// Merging partial results — Merge-Layer and Merge-Fiber kernels.
//
// Merging adds entries with equal (row, column) across a collection of
// same-shaped matrices. The paper replaces the prior sorted heap-merge [13]
// with an *unsorted hash merge* that is an order of magnitude faster
// (Table VII) because it neither requires nor produces sorted columns; the
// single final sort happens once, inside Merge-Fiber's merge (sort_output).
#pragma once

#include <span>

#include "kernels/semiring.hpp"
#include "sparse/csc_mat.hpp"
#include "sparse/csc_ref.hpp"

namespace casp {

enum class MergeKind {
  kUnsortedHash,  ///< this paper: hash per column, unsorted in/out
  kSortedHeap,    ///< prior work: k-way heap merge, sorted in/out
};

const char* to_string(MergeKind kind);

/// Merge matrices of identical shape by summing duplicates (over SR::add).
/// kSortedHeap requires every input to have sorted columns.
/// `threads`: OpenMP threads over output columns.
/// `sort_output`: sort each output column inside the same parallel column
/// loop (same order as a later CscMat::sort_columns(), ties included), so
/// the paper's single final sort costs no second pass over the output.
///
/// Each output entry is written once: a single piece is copied column by
/// column with no hash table or heap, and when no column lost entries to
/// a duplicate the per-column upper-bound arrays become the result with no
/// compaction copy. Precondition for the single-piece copy to equal a
/// merge: each input column holds a row at most once (kSortedHeap needs
/// only that no row repeats back to back). Every local kernel and every
/// merge output satisfies it.
///
/// The single entry point takes non-owning refs; wrap an owned collection
/// with csc_refs(...) — works identically for CscMat vectors and CscView
/// vectors (e.g. the fiber all-to-all buffers, merged zero-copy without
/// deserializing them first).
template <typename SR = PlusTimes>
CscMat merge_matrices(std::span<const CscConstRef> pieces,
                      MergeKind kind = MergeKind::kUnsortedHash,
                      int threads = 1, bool sort_output = false);

}  // namespace casp
