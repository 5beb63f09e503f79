// The SUMMA stage loop (Alg. 1 lines 3-6), written once.
//
// At stage s the owners in grid column s send their A block along each
// process row and the owners in grid row s broadcast their B block down
// each process column; every rank then consumes the stage's (A, B) pair.
// summa2d consumes it with Local-Multiply, symbolic3d (Alg. 3) with
// LocalSymbolic — the per-stage work is the only thing that varies. This
// engine is the one place that posts and waits the stage exchanges.
//
// Schedules (both bit-identical, and identical in traffic per phase):
//   dense      A and B are handle-forwarding ibcasts, A(s) posted before
//              B(s). Pipelined: stage s+1 is posted before stage s is
//              consumed. Blocking: stage s+1 is posted after it.
//   need-list  (SummaOptions::sparse_comm) B keeps the dense ibcast, A
//              ships via SparseAExchange: B(s) is waited first and its row
//              support becomes the stage-s A request. Pipelined, B(s+1) is
//              posted before stage s is consumed; the A reply round and the
//              request for s+1 overlap the work around them.
#pragma once

#include <functional>

#include "grid/grid3d.hpp"
#include "sparse/csc_mat.hpp"
#include "sparse/csc_view.hpp"
#include "summa/steps.hpp"

namespace casp {

/// Phase labels the stage exchanges are recorded under. A null label leaves
/// the enclosing phase in force: symbolic3d runs the whole loop inside one
/// "Symbolic" phase, which a nested phase would override.
struct StagePhases {
  const char* a = nullptr;
  const char* b = nullptr;
};

/// Consumes one stage: `a` is the received A block (rows part i x inner
/// slice s), `b` the received B block (inner slice s x my columns).
using StageConsumer = std::function<void(const CscView& a, const CscView& b)>;

/// Collective over grid.row_comm() and grid.col_comm(): runs the q stages,
/// calling `consume` once per stage in stage order under the stage tag.
/// Reads opts.pipeline and opts.sparse_comm only.
void run_summa_stages(Grid3D& grid, const CscMat& local_a,
                      const CscMat& local_b, const SummaOptions& opts,
                      const StagePhases& phases, const StageConsumer& consume);

}  // namespace casp
