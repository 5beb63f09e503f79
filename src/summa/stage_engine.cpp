#include "summa/stage_engine.hpp"

#include <optional>

#include "common/error.hpp"
#include "obs/recorder.hpp"
#include "sparse/serialize.hpp"
#include "summa/sparse_comm.hpp"

namespace casp {

void run_summa_stages(Grid3D& grid, const CscMat& local_a,
                      const CscMat& local_b, const SummaOptions& opts,
                      const StagePhases& phases, const StageConsumer& consume) {
  vmpi::Comm& row_comm = grid.row_comm();
  vmpi::Comm& col_comm = grid.col_comm();
  // Split communicators share the world's recorder, so spans opened through
  // either comm land on the same per-rank timeline.
  obs::Recorder& rec = row_comm.recorder();
  const int stages = grid.q();

  auto in_phase = [&](const char* name, auto&& body) {
    std::optional<obs::PhaseSpan> span;
    if (name != nullptr) span.emplace(rec, name);
    return body();
  };
  // The stage-s owner serializes its block once into a payload; the
  // broadcast forwards the handle, and receivers consume straight out of
  // the wire buffer (unpack_csc_view) — no per-hop or per-rank copies.
  auto post_b = [&](int s) {
    return in_phase(phases.b, [&] {
      return col_comm.ibcast_payload(
          s, col_comm.rank() == s ? pack_csc_payload(local_b) : Payload{});
    });
  };
  auto wait_b = [&](vmpi::PendingBcast& pending) {
    return in_phase(phases.b, [&] {
      return unpack_csc_view(col_comm.bcast_wait(pending));
    });
  };
  auto consume_stage = [&](int s, const CscView& a_view,
                           const CscView& b_view) {
    CASP_CHECK_MSG(a_view.ncols() == b_view.nrows(),
                   "SUMMA stage " << s << ": inner dim mismatch "
                                  << a_view.ncols() << " vs "
                                  << b_view.nrows());
    consume(a_view, b_view);
  };

  if (opts.sparse_comm) {
    SparseAExchange a_exchange(row_comm, local_a);
    // Wait the stage's B, then post the A need-list it induces.
    auto prepare_stage = [&](int s, vmpi::PendingBcast& b_pending) {
      CscView b_view = wait_b(b_pending);
      in_phase(phases.a, [&] { a_exchange.post(s, b_view); });
      return b_view;
    };
    vmpi::PendingBcast b_pending = post_b(0);
    CscView b_view = prepare_stage(0, b_pending);
    for (int s = 0; s < stages; ++s) {
      obs::ScopedTag stage_tag(rec, obs::ScopedTag::Kind::kStage, s);
      if (opts.pipeline && s + 1 < stages) b_pending = post_b(s + 1);
      const CscView a_view =
          in_phase(phases.a, [&] { return a_exchange.wait(s); });
      consume_stage(s, a_view, b_view);
      if (s + 1 < stages) {
        if (!opts.pipeline) b_pending = post_b(s + 1);
        b_view = prepare_stage(s + 1, b_pending);
      }
    }
    return;
  }

  struct StageBcasts {
    vmpi::PendingBcast a;
    vmpi::PendingBcast b;
  };
  auto post_stage = [&](int s) {
    StageBcasts pending;
    pending.a = in_phase(phases.a, [&] {
      return row_comm.ibcast_payload(
          s, row_comm.rank() == s ? pack_csc_payload(local_a) : Payload{});
    });
    pending.b = post_b(s);
    return pending;
  };
  StageBcasts current = post_stage(0);
  for (int s = 0; s < stages; ++s) {
    obs::ScopedTag stage_tag(rec, obs::ScopedTag::Kind::kStage, s);
    const CscView a_view = in_phase(phases.a, [&] {
      return unpack_csc_view(row_comm.bcast_wait(current.a));
    });
    const CscView b_view = wait_b(current.b);
    // Every stage posts then waits its own broadcasts in SPMD order, so
    // pipelined and blocking send the same messages in the same phases.
    if (opts.pipeline && s + 1 < stages) current = post_stage(s + 1);
    consume_stage(s, a_view, b_view);
    if (!opts.pipeline && s + 1 < stages) current = post_stage(s + 1);
  }
}

}  // namespace casp
