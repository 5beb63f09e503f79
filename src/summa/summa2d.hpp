// 2D Sparse SUMMA (Algorithm 1), run within one layer of the 3D grid.
//
// Executes q stages; at stage s the owners in grid column s broadcast
// their A block along each process row and the owners in grid row s
// broadcast their B block down each process column. Partial products are
// kept per stage (merging incrementally is asymptotically worse [34]) and
// merged once at the end (Merge-Layer).
#pragma once

#include <vector>

#include "common/memory_tracker.hpp"
#include "grid/grid3d.hpp"
#include "sparse/csc_mat.hpp"
#include "summa/steps.hpp"

namespace casp {

/// The q per-stage Local-Multiply outputs of one SUMMA2D run, in stage
/// order, each charged to SummaOptions::memory (when set) until `charges`
/// is destroyed.
struct StagePartials {
  std::vector<CscMat> mats;
  std::vector<MemoryCharge> charges;
};

/// The stage loop alone, without Merge-Layer; same collectives and
/// arguments as summa2d. summa3d at l = 1 merges these partials once, as
/// its Merge-Fiber.
template <typename SR = PlusTimes>
StagePartials summa2d_stages(Grid3D& grid, const CscMat& local_a,
                             const CscMat& local_b,
                             const SummaOptions& opts = {});

/// Collective over grid.layer_comm(). local_a is this rank's A-style block
/// (rows part i x A-col slice), local_b its B-style block (B-row slice x
/// cols part j) — or any column subset of it (batching). Returns the local
/// block of D = A*B on this layer: rows part i x local_b.ncols(), merged
/// across stages but *not* across layers.
template <typename SR = PlusTimes>
CscMat summa2d(Grid3D& grid, const CscMat& local_a, const CscMat& local_b,
               const SummaOptions& opts = {});

}  // namespace casp
