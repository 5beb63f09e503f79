#include "summa/symbolic3d.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "kernels/symbolic.hpp"
#include "obs/recorder.hpp"
#include "sparse/stats.hpp"
#include "summa/stage_engine.hpp"

namespace casp {

Index eq2_batches(Bytes total_memory, int ranks, Index max_nnz_a,
                  Index max_nnz_b, Index max_nnz_c) {
  if (total_memory == 0) return 1;
  const Bytes r = kBytesPerNonzero;
  const Bytes share = total_memory / static_cast<Bytes>(ranks);
  const Bytes input_bytes = r * static_cast<Bytes>(max_nnz_a + max_nnz_b);
  if (share <= input_bytes) return 0;
  return std::max<Index>(
      1, ceil_div(static_cast<Index>(r) * max_nnz_c,
                  static_cast<Index>(share - input_bytes)));
}

SymbolicResult symbolic3d(Grid3D& grid, const CscMat& local_a,
                          const CscMat& local_b, Bytes total_memory,
                          const SummaOptions& opts) {
  vmpi::Comm& world = grid.world();

  // Whole step is one span, its traffic recorded under "Symbolic": the
  // experiments (Fig. 8) break the symbolic step out of the bcast steps.
  // All comms here share the world's recorder, and the stage engine opens
  // no phase of its own (StagePhases{}), so this phase covers the stage
  // exchanges too.
  obs::Recorder& rec = world.recorder();
  obs::PhaseSpan world_span(rec, steps::kSymbolic);

  Index my_unmerged = 0;
  Index my_flops = 0;
  std::vector<Index> my_col_nnz;
  // Per-stage column counts accumulate into the whole-multiplication
  // per-column totals; their sum is exactly the old symbolic_nnz term.
  run_summa_stages(
      grid, local_a, local_b, opts, StagePhases{},
      [&](const CscView& a_view, const CscView& b_view) {
        const std::vector<Index> stage_cols =
            symbolic_column_nnz(a_view, b_view);
        if (my_col_nnz.empty()) my_col_nnz.assign(stage_cols.size(), 0);
        CASP_CHECK_MSG(my_col_nnz.size() == stage_cols.size(),
                       "symbolic3d: stage B widths disagree within a block "
                       "column");
        for (std::size_t j = 0; j < stage_cols.size(); ++j) {
          my_col_nnz[j] += stage_cols[j];
          my_unmerged += stage_cols[j];
        }
        my_flops += multiply_flops(a_view, b_view);
      });

  SymbolicResult result;
  result.col_nnz = std::move(my_col_nnz);
  result.max_nnz_c = world.allreduce_max<Index>(my_unmerged);
  result.max_nnz_a = world.allreduce_max<Index>(local_a.nnz());
  result.max_nnz_b = world.allreduce_max<Index>(local_b.nnz());
  result.total_unmerged_nnz = world.allreduce_sum<Index>(my_unmerged);
  result.total_flops = world.allreduce_sum<Index>(my_flops);

  result.batches = eq2_batches(total_memory, world.size(), result.max_nnz_a,
                               result.max_nnz_b, result.max_nnz_c);
  if (result.batches == 0) {
    throw MemoryError(
        "symbolic3d: inputs alone exceed the per-process memory share; "
        "batching cannot help (Eq. 2 denominator <= 0)");
  }
  return result;
}

}  // namespace casp
