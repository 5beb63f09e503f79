#include "kernels/merge.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "kernels/dense_accumulator.hpp"

namespace casp {

const char* to_string(MergeKind kind) {
  switch (kind) {
    case MergeKind::kUnsortedHash: return "unsorted-hash-merge";
    case MergeKind::kSortedHeap: return "sorted-heap-merge";
  }
  return "?";
}

namespace {

/// Hash map row -> value, reset between columns via used list.
template <typename SR>
class MergeTable {
 public:
  void require(Index min_capacity) {
    std::uint64_t want =
        next_pow2(static_cast<std::uint64_t>(std::max<Index>(16, 2 * min_capacity)));
    if (want > keys_.size()) {
      keys_.assign(want, -1);
      vals_.resize(want);
      mask_ = want - 1;
      used_.clear();
    }
  }
  void reset() {
    for (std::uint64_t slot : used_) keys_[slot] = -1;
    used_.clear();
  }
  void accumulate(Index row, Value v) {
    std::uint64_t slot =
        (static_cast<std::uint64_t>(row) * 0x9e3779b97f4a7c15ULL) & mask_;
    while (true) {
      if (keys_[slot] == -1) {
        keys_[slot] = row;
        vals_[slot] = v;
        used_.push_back(slot);
        return;
      }
      if (keys_[slot] == row) {
        vals_[slot] = SR::add(vals_[slot], v);
        return;
      }
      slot = (slot + 1) & mask_;
    }
  }
  Index size() const { return static_cast<Index>(used_.size()); }
  void emit(Index* rowids, Value* vals) const {
    for (std::size_t k = 0; k < used_.size(); ++k) {
      rowids[k] = keys_[used_[k]];
      vals[k] = vals_[used_[k]];
    }
  }

 private:
  std::vector<Index> keys_;
  std::vector<Value> vals_;
  std::vector<std::uint64_t> used_;
  std::uint64_t mask_ = 0;
};

using SortScratch = std::vector<std::pair<Index, Value>>;

/// Sorts one column in place into sort_column_entries' order: through the
/// dense accumulator when there is one and no row repeats, else through
/// sort_column_entries itself.
void sort_column(DenseRowAccumulator* dense, Index* rows, Value* vals,
                 std::size_t n, SortScratch& scratch) {
  if (std::is_sorted(rows, rows + n)) return;
  if (dense != nullptr) {
    std::size_t k = 0;
    while (k < n && dense->insert(rows[k], vals[k])) ++k;
    if (k == n) {
      dense->emit_sorted(rows, vals);
      return;
    }
    dense->clear();
  }
  sort_column_entries(rows, vals, n, scratch);
}

}  // namespace

bool merge_uses_dense_rows(Index nrows, Index input_entries, int threads) {
  return static_cast<std::uint64_t>(std::max(1, threads)) *
             static_cast<std::uint64_t>(nrows) <=
         static_cast<std::uint64_t>(input_entries);
}

template <typename SR>
CscMat merge_matrices(std::span<const CscConstRef> pieces, MergeKind kind,
                      int threads, bool sort_output) {
  CASP_CHECK(!pieces.empty());
  const Index nrows = pieces.front().nrows();
  const Index ncols = pieces.front().ncols();
  for (const CscConstRef& m : pieces)
    CASP_CHECK_MSG(m.nrows() == nrows && m.ncols() == ncols,
                   "merge: shape mismatch");

  // Upper bound per output column: total input entries in that column.
  std::vector<Index> ub_ptr(static_cast<std::size_t>(ncols) + 1, 0);
  for (Index j = 0; j < ncols; ++j) {
    Index ub = 0;
    for (const CscConstRef& m : pieces) ub += m.col_nnz(j);
    ub_ptr[static_cast<std::size_t>(j) + 1] = ub_ptr[static_cast<std::size_t>(j)] + ub;
  }
  std::vector<Index> rowids(static_cast<std::size_t>(ub_ptr.back()));
  std::vector<Value> vals(rowids.size());
  std::vector<Index> counts(static_cast<std::size_t>(ncols), 0);
  const bool dense = kind == MergeKind::kUnsortedHash &&
                     merge_uses_dense_rows(nrows, ub_ptr.back(), threads);

#if defined(CASP_HAVE_OPENMP)
#pragma omp parallel num_threads(std::max(1, threads))
#else
  (void)threads;
#endif
  {
    MergeTable<SR> table;
    std::optional<DenseRowAccumulator> rows_acc;
    if (dense) rows_acc.emplace(nrows);
    // Per-thread scratch for the sorted-emit (heap) path and the fused
    // final sort, reused across all columns this thread processes instead
    // of reallocated per column.
    using HeapItem = std::pair<Index, std::size_t>;  // (row, piece index)
    std::vector<HeapItem> heap;
    std::vector<std::size_t> pos;
    SortScratch sort_buf;
#if defined(CASP_HAVE_OPENMP)
#pragma omp for schedule(dynamic, 32)
#endif
    for (Index j = 0; j < ncols; ++j) {
      const Index cap = ub_ptr[static_cast<std::size_t>(j) + 1] -
                        ub_ptr[static_cast<std::size_t>(j)];
      if (cap == 0) continue;
      Index* out_rows = rowids.data() + ub_ptr[static_cast<std::size_t>(j)];
      Value* out_vals = vals.data() + ub_ptr[static_cast<std::size_t>(j)];
      Index cnt = 0;
      if (dense) {
        for (const CscConstRef& m : pieces) {
          const auto rows = m.col_rowids(j);
          const auto mv = m.col_vals(j);
          for (std::size_t k = 0; k < rows.size(); ++k)
            rows_acc->accumulate<SR>(rows[k], mv[k]);
        }
        cnt = rows_acc->size();
        if (sort_output)
          rows_acc->emit_sorted(out_rows, out_vals);
        else
          rows_acc->emit_unsorted(out_rows, out_vals);
      } else if (kind == MergeKind::kUnsortedHash) {
        table.require(cap);
        table.reset();
        for (const CscConstRef& m : pieces) {
          const auto rows = m.col_rowids(j);
          const auto mv = m.col_vals(j);
          for (std::size_t k = 0; k < rows.size(); ++k)
            table.accumulate(rows[k], mv[k]);
        }
        cnt = table.size();
        table.emit(out_rows, out_vals);
        if (sort_output)
          sort_column_entries(out_rows, out_vals,
                              static_cast<std::size_t>(cnt), sort_buf);
      } else {
        // k-way heap merge over sorted input columns (min-heap maintained
        // manually on the hoisted vector).
        heap.clear();
        pos.assign(pieces.size(), 0);
        for (std::size_t s = 0; s < pieces.size(); ++s) {
          if (pieces[s].col_nnz(j) > 0)
            heap.emplace_back(pieces[s].col_rowids(j)[0], s);
        }
        std::make_heap(heap.begin(), heap.end(), std::greater<>{});
        while (!heap.empty()) {
          std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
          const auto [row, s] = heap.back();
          heap.pop_back();
          const Value v = pieces[s].col_vals(j)[pos[s]];
          if (cnt > 0 && out_rows[cnt - 1] == row) {
            out_vals[cnt - 1] = SR::add(out_vals[cnt - 1], v);
          } else {
            out_rows[cnt] = row;
            out_vals[cnt] = v;
            ++cnt;
          }
          if (++pos[s] < static_cast<std::size_t>(pieces[s].col_nnz(j))) {
            heap.emplace_back(pieces[s].col_rowids(j)[pos[s]], s);
            std::push_heap(heap.begin(), heap.end(), std::greater<>{});
          }
        }
        if (sort_output)
          sort_column_entries(out_rows, out_vals,
                              static_cast<std::size_t>(cnt), sort_buf);
      }
      counts[static_cast<std::size_t>(j)] = cnt;
    }
  }

  // No column lost entries: the upper-bound arrays are already the result.
  bool full = true;
  for (Index j = 0; j < ncols && full; ++j)
    full = counts[static_cast<std::size_t>(j)] ==
           ub_ptr[static_cast<std::size_t>(j) + 1] -
               ub_ptr[static_cast<std::size_t>(j)];
  if (full)
    return CscMat(nrows, ncols, std::move(ub_ptr), std::move(rowids),
                  std::move(vals));

  // Compact.
  std::vector<Index> colptr(static_cast<std::size_t>(ncols) + 1, 0);
  for (Index j = 0; j < ncols; ++j)
    colptr[static_cast<std::size_t>(j) + 1] =
        colptr[static_cast<std::size_t>(j)] + counts[static_cast<std::size_t>(j)];
  std::vector<Index> out_rowids(static_cast<std::size_t>(colptr.back()));
  std::vector<Value> out_vals(out_rowids.size());
  for (Index j = 0; j < ncols; ++j) {
    const auto src = static_cast<std::size_t>(ub_ptr[static_cast<std::size_t>(j)]);
    const auto dst = static_cast<std::size_t>(colptr[static_cast<std::size_t>(j)]);
    const auto cnt = static_cast<std::size_t>(counts[static_cast<std::size_t>(j)]);
    std::copy_n(rowids.begin() + static_cast<std::ptrdiff_t>(src), cnt,
                out_rowids.begin() + static_cast<std::ptrdiff_t>(dst));
    std::copy_n(vals.begin() + static_cast<std::ptrdiff_t>(src), cnt,
                out_vals.begin() + static_cast<std::ptrdiff_t>(dst));
  }
  return CscMat(nrows, ncols, std::move(colptr), std::move(out_rowids),
                std::move(out_vals));
}

void sort_columns_in_place(CscMat& m, int threads) {
  const std::span<const Index> colptr = m.colptr();
  const std::span<Index> rowids = m.rowids_mutable();
  const std::span<Value> vals = m.vals_mutable();
  const bool dense = merge_uses_dense_rows(m.nrows(), m.nnz(), threads);
  const Index ncols = m.ncols();
#if defined(CASP_HAVE_OPENMP)
#pragma omp parallel num_threads(std::max(1, threads))
#else
  (void)threads;
#endif
  {
    std::optional<DenseRowAccumulator> rows_acc;
    if (dense) rows_acc.emplace(m.nrows());
    SortScratch sort_buf;
#if defined(CASP_HAVE_OPENMP)
#pragma omp for schedule(dynamic, 32)
#endif
    for (Index j = 0; j < ncols; ++j) {
      const auto lo = static_cast<std::size_t>(colptr[static_cast<std::size_t>(j)]);
      const auto hi =
          static_cast<std::size_t>(colptr[static_cast<std::size_t>(j) + 1]);
      sort_column(dense ? &*rows_acc : nullptr, rowids.data() + lo,
                  vals.data() + lo, hi - lo, sort_buf);
    }
  }
}

template CscMat merge_matrices<PlusTimes>(std::span<const CscConstRef>,
                                          MergeKind, int, bool);
template CscMat merge_matrices<MinPlus>(std::span<const CscConstRef>,
                                        MergeKind, int, bool);
template CscMat merge_matrices<MaxMin>(std::span<const CscConstRef>,
                                       MergeKind, int, bool);
template CscMat merge_matrices<OrAnd>(std::span<const CscConstRef>, MergeKind,
                                      int, bool);

}  // namespace casp
