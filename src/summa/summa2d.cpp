#include "summa/summa2d.hpp"

#include <utility>
#include <vector>

#include "obs/recorder.hpp"
#include "summa/stage_engine.hpp"

namespace casp {

template <typename SR>
StagePartials summa2d_stages(Grid3D& grid, const CscMat& local_a,
                             const CscMat& local_b, const SummaOptions& opts) {
  obs::Recorder& rec = grid.row_comm().recorder();
  obs::ScopedTag layer_tag(rec, obs::ScopedTag::Kind::kLayer, grid.layer());

  StagePartials out;
  out.mats.reserve(static_cast<std::size_t>(grid.q()));
  out.charges.reserve(static_cast<std::size_t>(grid.q()));

  run_summa_stages(
      grid, local_a, local_b, opts, {steps::kABcast, steps::kBBcast},
      [&](const CscView& a_view, const CscView& b_view) {
        {
          obs::Span span(rec, steps::kLocalMultiply);
          out.mats.push_back(local_spgemm<SR>(a_view, b_view, opts.local_kind,
                                              opts.threads,
                                              opts.symbolic_col_nnz));
        }
        if (opts.memory != nullptr) {
          // Unmerged per-stage results are exactly the mem(C) term of
          // Eq. 1: they stay live until they are merged.
          out.charges.emplace_back(
              *opts.memory,
              static_cast<Bytes>(out.mats.back().nnz()) * kBytesPerNonzero,
              "unmerged stage output");
          rec.sample_memory(*opts.memory, "memory.live_bytes");
        }
      });
  return out;
}

template <typename SR>
CscMat summa2d(Grid3D& grid, const CscMat& local_a, const CscMat& local_b,
               const SummaOptions& opts) {
  StagePartials partials = summa2d_stages<SR>(grid, local_a, local_b, opts);
  obs::Recorder& rec = grid.row_comm().recorder();
  obs::ScopedTag layer_tag(rec, obs::ScopedTag::Kind::kLayer, grid.layer());
  obs::Span span(rec, steps::kMergeLayer);
  // q = 1: one stage partial has nothing to merge with.
  if (partials.mats.size() == 1) return std::move(partials.mats.front());
  return merge_matrices<SR>(csc_refs(partials.mats), opts.merge_kind,
                            opts.threads);
}

template StagePartials summa2d_stages<PlusTimes>(Grid3D&, const CscMat&,
                                                 const CscMat&,
                                                 const SummaOptions&);
template StagePartials summa2d_stages<MinPlus>(Grid3D&, const CscMat&,
                                               const CscMat&,
                                               const SummaOptions&);
template StagePartials summa2d_stages<MaxMin>(Grid3D&, const CscMat&,
                                              const CscMat&,
                                              const SummaOptions&);
template StagePartials summa2d_stages<OrAnd>(Grid3D&, const CscMat&,
                                             const CscMat&,
                                             const SummaOptions&);

template CscMat summa2d<PlusTimes>(Grid3D&, const CscMat&, const CscMat&,
                                   const SummaOptions&);
template CscMat summa2d<MinPlus>(Grid3D&, const CscMat&, const CscMat&,
                                 const SummaOptions&);
template CscMat summa2d<MaxMin>(Grid3D&, const CscMat&, const CscMat&,
                                const SummaOptions&);
template CscMat summa2d<OrAnd>(Grid3D&, const CscMat&, const CscMat&,
                               const SummaOptions&);

}  // namespace casp
