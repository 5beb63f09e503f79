#include "summa/summa2d.hpp"

#include <utility>
#include <vector>

#include "obs/recorder.hpp"
#include "summa/stage_engine.hpp"

namespace casp {

template <typename SR>
CscMat summa2d(Grid3D& grid, const CscMat& local_a, const CscMat& local_b,
               const SummaOptions& opts) {
  obs::Recorder& rec = grid.row_comm().recorder();
  obs::ScopedTag layer_tag(rec, obs::ScopedTag::Kind::kLayer, grid.layer());

  std::vector<CscMat> partials;
  partials.reserve(static_cast<std::size_t>(grid.q()));
  std::vector<MemoryCharge> partial_charges;
  partial_charges.reserve(static_cast<std::size_t>(grid.q()));

  run_summa_stages(
      grid, local_a, local_b, opts, {steps::kABcast, steps::kBBcast},
      [&](const CscView& a_view, const CscView& b_view) {
        {
          obs::Span span(rec, steps::kLocalMultiply);
          partials.push_back(local_spgemm<SR>(a_view, b_view, opts.local_kind,
                                              opts.threads,
                                              opts.symbolic_col_nnz));
        }
        if (opts.memory != nullptr) {
          // Unmerged per-stage results are exactly the mem(C) term of
          // Eq. 1: they stay live until Merge-Layer.
          partial_charges.emplace_back(
              *opts.memory,
              static_cast<Bytes>(partials.back().nnz()) * kBytesPerNonzero,
              "unmerged stage output");
          rec.sample_memory(*opts.memory, "memory.live_bytes");
        }
      });

  CscMat merged;
  {
    obs::Span span(rec, steps::kMergeLayer);
    // q = 1: one stage partial has nothing to merge with.
    if (partials.size() == 1)
      merged = std::move(partials.front());
    else
      merged = merge_matrices<SR>(csc_refs(partials), opts.merge_kind,
                                  opts.threads);
  }
  return merged;
}

template CscMat summa2d<PlusTimes>(Grid3D&, const CscMat&, const CscMat&,
                                   const SummaOptions&);
template CscMat summa2d<MinPlus>(Grid3D&, const CscMat&, const CscMat&,
                                 const SummaOptions&);
template CscMat summa2d<MaxMin>(Grid3D&, const CscMat&, const CscMat&,
                                const SummaOptions&);
template CscMat summa2d<OrAnd>(Grid3D&, const CscMat&, const CscMat&,
                               const SummaOptions&);

}  // namespace casp
