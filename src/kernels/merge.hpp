// Merging partial results — Merge-Layer and Merge-Fiber kernels.
//
// Merging adds entries with equal (row, column) across a collection of
// same-shaped matrices. The paper replaces the prior sorted heap-merge [13]
// with an *unsorted hash merge* that is an order of magnitude faster
// (Table VII) because it neither requires nor produces sorted columns; the
// single final sort happens once, inside Merge-Fiber's merge (sort_output).
// When the block's rows fit a dense accumulator, that merge emits each
// column already in row order, so the final sort is no comparison sort.
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
/// `sort_output`: emit each output column in row order inside the same
/// parallel column loop (same order as a later CscMat::sort_columns(), ties
/// included), so the paper's single final sort costs no second pass over
/// the output.
///
/// kUnsortedHash accumulates through a per-thread dense row accumulator
/// (kernels/dense_accumulator.hpp) when merge_uses_dense_rows says so, and
/// through a hash table otherwise. The dense path emits sorted columns by scanning its bitmap
/// and unsorted ones in first-touch order, the hash table's order; both
/// paths sum each row in the same order, so the output is the same bit for
/// bit whichever one runs.
///
/// Each output entry is written once: when no column lost entries to a
/// duplicate, the per-column upper-bound arrays become the result with no
/// compaction copy. One piece has nothing to merge with; to sort a lone
/// matrix use sort_columns_in_place, which does not copy it.
///
/// The single entry point takes non-owning refs; wrap an owned collection
/// with csc_refs(...) — works identically for CscMat vectors and CscView
/// vectors (e.g. the fiber all-to-all buffers, merged zero-copy without
/// deserializing them first).
template <typename SR = PlusTimes>
CscMat merge_matrices(std::span<const CscConstRef> pieces,
                      MergeKind kind = MergeKind::kUnsortedHash,
                      int threads = 1, bool sort_output = false);

/// The size rule for the dense row accumulator: a value per row per
/// thread, so it is used only when the `threads` accumulators together hold
/// no more slots than the merge has input entries. Taller, sparser blocks
/// keep the hash table.
bool merge_uses_dense_rows(Index nrows, Index input_entries, int threads);

/// Sorts every column of `m` in place into CscMat::sort_columns()' order,
/// over `threads` OpenMP threads: what merge_matrices does to one piece
/// with sort_output, without copying it. Columns whose rows are distinct go
/// through a dense row accumulator when one fits (the same size rule).
void sort_columns_in_place(CscMat& m, int threads = 1);

}  // namespace casp
