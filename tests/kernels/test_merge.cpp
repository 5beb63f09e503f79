#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "kernels/merge.hpp"
#include "kernels/reference.hpp"
#include "kernels/spgemm.hpp"
#include "test_util.hpp"

namespace casp {
namespace {

std::vector<CscMat> random_pieces(int count, Index rows, Index cols, double d,
                                  std::uint64_t seed) {
  std::vector<CscMat> pieces;
  for (int i = 0; i < count; ++i)
    pieces.push_back(testing::random_matrix(
        rows, cols, d, seed + static_cast<std::uint64_t>(i)));
  return pieces;
}

class MergeBothKinds : public ::testing::TestWithParam<MergeKind> {};

TEST_P(MergeBothKinds, MatchesReferenceAcrossPieceCounts) {
  const MergeKind kind = GetParam();
  for (int count : {1, 2, 3, 7, 16}) {
    const auto pieces = random_pieces(count, 30, 25, 3.0, 50);
    const CscMat expected = reference_merge<PlusTimes>(pieces);
    const CscMat got = merge_matrices<PlusTimes>(csc_refs(pieces), kind);
    testing::expect_mat_near(got, expected, 1e-9);
    if (kind == MergeKind::kSortedHeap) {
      EXPECT_TRUE(got.columns_sorted());
    }
  }
}

TEST_P(MergeBothKinds, OverlappingEntriesAreSummed) {
  const MergeKind kind = GetParam();
  // All pieces identical: merged value = count * value.
  const CscMat base = testing::random_matrix(20, 20, 3.0, 51);
  const std::vector<CscMat> pieces(4, base);
  const CscMat merged = merge_matrices<PlusTimes>(csc_refs(pieces), kind);
  EXPECT_EQ(merged.nnz(), base.nnz());
  CscMat sorted_merged = merged;
  sorted_merged.sort_columns();
  CscMat expected = base;
  expected.sort_columns();
  for (Value& v : expected.vals_mutable()) v *= 4.0;
  testing::expect_mat_near(sorted_merged, expected, 1e-12);
}

TEST_P(MergeBothKinds, EmptyPieces) {
  const MergeKind kind = GetParam();
  const std::vector<CscMat> pieces(3, CscMat(10, 10));
  const CscMat merged = merge_matrices<PlusTimes>(csc_refs(pieces), kind);
  EXPECT_EQ(merged.nnz(), 0);
  EXPECT_EQ(merged.nrows(), 10);
}

TEST_P(MergeBothKinds, MinPlusSemiring) {
  const MergeKind kind = GetParam();
  const auto pieces = random_pieces(3, 15, 15, 2.0, 52);
  testing::expect_mat_near(merge_matrices<MinPlus>(csc_refs(pieces), kind),
                           reference_merge<MinPlus>(pieces), 1e-12);
}

// Each column's entries in reverse order: unsorted columns that still hold
// every row at most once, like the unsorted-hash kernels' output.
CscMat reversed_columns(const CscMat& m) {
  std::vector<Index> rows(m.rowids().begin(), m.rowids().end());
  std::vector<Value> vals(m.vals().begin(), m.vals().end());
  for (Index j = 0; j < m.ncols(); ++j) {
    const auto lo = static_cast<std::ptrdiff_t>(m.colptr()[static_cast<std::size_t>(j)]);
    const auto hi = static_cast<std::ptrdiff_t>(m.colptr()[static_cast<std::size_t>(j) + 1]);
    std::reverse(rows.begin() + lo, rows.begin() + hi);
    std::reverse(vals.begin() + lo, vals.begin() + hi);
  }
  return CscMat(m.nrows(), m.ncols(),
                std::vector<Index>(m.colptr().begin(), m.colptr().end()),
                std::move(rows), std::move(vals));
}

bool has_repeated_row(const CscMat& m) {
  for (Index j = 0; j < m.ncols(); ++j) {
    std::vector<Index> rows(m.col_rowids(j).begin(), m.col_rowids(j).end());
    std::sort(rows.begin(), rows.end());
    if (std::adjacent_find(rows.begin(), rows.end()) != rows.end()) return true;
  }
  return false;
}

std::vector<CscMat> pieces_for(int count, bool sorted, std::uint64_t seed) {
  std::vector<CscMat> pieces = random_pieces(count, 40, 33, 5.0, seed);
  if (!sorted)
    for (CscMat& m : pieces) m = reversed_columns(m);
  return pieces;
}

TEST_P(MergeBothKinds, OnePieceMergesToItselfBitForBit) {
  const MergeKind kind = GetParam();
  for (const bool sorted : {true, false}) {
    const auto pieces = pieces_for(1, sorted, 60);
    ASSERT_EQ(pieces.front().columns_sorted(), sorted);
    for (const int threads : {1, 4}) {
      EXPECT_EQ(merge_matrices<PlusTimes>(csc_refs(pieces), kind, threads),
                pieces.front())
          << "sorted=" << sorted << " threads=" << threads;
    }
  }
}

template <typename SR>
void expect_fused_sort_matches_sort_columns(MergeKind kind) {
  for (const bool sorted : {true, false}) {
    for (const int count : {1, 2, 4}) {
      const auto pieces = pieces_for(count, sorted, 61);
      for (const int threads : {1, 4}) {
        CscMat expected =
            merge_matrices<SR>(csc_refs(pieces), kind, threads);
        if (kind == MergeKind::kSortedHeap && !sorted && count > 1) {
          // Heap-merging unsorted columns emits a row more than once; the
          // fused sort must order those ties exactly as sort_columns does.
          EXPECT_TRUE(has_repeated_row(expected));
        }
        expected.sort_columns();
        const CscMat fused =
            merge_matrices<SR>(csc_refs(pieces), kind, threads, true);
        EXPECT_EQ(fused, expected) << "sorted=" << sorted
                                   << " count=" << count
                                   << " threads=" << threads;
      }
    }
  }
}

TEST_P(MergeBothKinds, FusedSortEqualsMergeThenSortColumnsPlusTimes) {
  expect_fused_sort_matches_sort_columns<PlusTimes>(GetParam());
}

TEST_P(MergeBothKinds, FusedSortEqualsMergeThenSortColumnsMinPlus) {
  expect_fused_sort_matches_sort_columns<MinPlus>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kinds, MergeBothKinds,
                         ::testing::Values(MergeKind::kUnsortedHash,
                                           MergeKind::kSortedHeap));

// Pieces shaped like unsorted-hash Local-Multiply partials: every column
// holds distinct rows in random order. Columns j % 4 == 0 are empty in
// every piece; columns j % 4 == 1 hold one entry per piece, at row 0 or
// row nrows - 1 (far apart); the rest hold `per_col` random rows.
// `boolean` draws values from {0, 1} (OrAnd's domain).
std::vector<CscMat> accumulator_pieces(int count, Index nrows, Index ncols,
                                       Index per_col, bool boolean,
                                       std::uint64_t seed) {
  std::vector<CscMat> pieces;
  Rng rng(seed);
  std::vector<char> seen(static_cast<std::size_t>(nrows), 0);
  for (int s = 0; s < count; ++s) {
    std::vector<Index> colptr{0};
    std::vector<Index> rows;
    std::vector<Value> vals;
    auto value = [&] {
      return boolean ? static_cast<Value>(rng.below(2)) : rng.uniform() - 0.25;
    };
    for (Index j = 0; j < ncols; ++j) {
      if (j % 4 == 1) {
        rows.push_back(s % 2 == 0 ? 0 : nrows - 1);
        vals.push_back(value());
      } else if (j % 4 != 0) {
        const std::size_t first = rows.size();
        while (static_cast<Index>(rows.size() - first) < per_col) {
          const Index r = rng.range(0, nrows);
          if (seen[static_cast<std::size_t>(r)] != 0) continue;
          seen[static_cast<std::size_t>(r)] = 1;
          rows.push_back(r);
          vals.push_back(value());
        }
        for (std::size_t k = first; k < rows.size(); ++k)
          seen[static_cast<std::size_t>(rows[k])] = 0;
      }
      colptr.push_back(static_cast<Index>(rows.size()));
    }
    pieces.emplace_back(nrows, ncols, std::move(colptr), std::move(rows),
                        std::move(vals));
  }
  return pieces;
}

// The same entries in a block with `nrows` rows.
CscMat with_rows(const CscMat& m, Index nrows) {
  return CscMat(nrows, m.ncols(),
                std::vector<Index>(m.colptr().begin(), m.colptr().end()),
                std::vector<Index>(m.rowids().begin(), m.rowids().end()),
                std::vector<Value>(m.vals().begin(), m.vals().end()));
}

// The hash merge's dense row accumulator against its hash table + sort
// path: the same pieces, once in their own block (dense) and once in a
// block too tall for the size rule (hash), must merge to the same arrays.
template <typename SR>
void expect_dense_rows_match_hash(bool boolean) {
  for (const Index nrows : {1, 63, 64, 65, 4097}) {
    const Index per_col = std::min<Index>(nrows, 24);
    const Index ncols = 16 + 12 * nrows / per_col;
    for (const int count : {1, 2, 4, 16}) {
      const auto pieces = accumulator_pieces(
          count, nrows, ncols, per_col, boolean,
          70 + static_cast<std::uint64_t>(nrows * count));
      Index input = 0;
      for (const CscMat& m : pieces) input += m.nnz();
      const Index tall_rows = nrows + input + 1;
      std::vector<CscMat> tall;
      for (const CscMat& m : pieces) tall.push_back(with_rows(m, tall_rows));
      for (const int threads : {1, 4}) {
        ASSERT_TRUE(merge_uses_dense_rows(nrows, input, threads));
        ASSERT_FALSE(merge_uses_dense_rows(tall_rows, input, threads));
        for (const bool sort_output : {false, true}) {
          const CscMat dense = merge_matrices<SR>(
              csc_refs(pieces), MergeKind::kUnsortedHash, threads,
              sort_output);
          const CscMat hashed = merge_matrices<SR>(
              csc_refs(tall), MergeKind::kUnsortedHash, threads, sort_output);
          SCOPED_TRACE(::testing::Message()
                       << "nrows=" << nrows << " count=" << count
                       << " threads=" << threads
                       << " sort_output=" << sort_output);
          testing::expect_mat_identical(dense, with_rows(hashed, nrows));
          if (sort_output) {
            EXPECT_TRUE(dense.columns_sorted());
          }
        }
      }
    }
  }
}

TEST(MergeDenseRows, MatchesHashPathBitForBitPlusTimes) {
  expect_dense_rows_match_hash<PlusTimes>(false);
}

TEST(MergeDenseRows, MatchesHashPathBitForBitMinPlus) {
  expect_dense_rows_match_hash<MinPlus>(false);
}

TEST(MergeDenseRows, MatchesHashPathBitForBitMaxMin) {
  expect_dense_rows_match_hash<MaxMin>(false);
}

TEST(MergeDenseRows, MatchesHashPathBitForBitOrAnd) {
  expect_dense_rows_match_hash<OrAnd>(true);
}

TEST(MergeDenseRows, SortColumnsInPlaceEqualsSortColumns) {
  // Distinct-row columns take the dense accumulator; a column holding a
  // row twice falls back to sort_column_entries, so the ties still land
  // where CscMat::sort_columns puts them.
  for (const Index nrows : {1, 65, 4097}) {
    CscMat m = accumulator_pieces(1, nrows, 16 + 12 * nrows / 24,
                                  std::min<Index>(nrows, 24), false,
                                  90 + static_cast<std::uint64_t>(nrows))
                   .front();
    std::vector<Index> rows(m.rowids().begin(), m.rowids().end());
    std::vector<Value> vals(m.vals().begin(), m.vals().end());
    const auto last = static_cast<std::size_t>(m.colptr().back());
    if (last >= 2 && m.col_nnz(m.ncols() - 1) >= 2) {
      rows[last - 1] = rows[last - 2];  // repeat a row in the last column
      vals[last - 1] = 2.5;
    }
    const CscMat unsorted(nrows, m.ncols(),
                          std::vector<Index>(m.colptr().begin(),
                                             m.colptr().end()),
                          std::move(rows), std::move(vals));
    CscMat expected = unsorted;
    expected.sort_columns();
    for (const int threads : {1, 4}) {
      CscMat got = unsorted;
      sort_columns_in_place(got, threads);
      SCOPED_TRACE(::testing::Message()
                   << "nrows=" << nrows << " threads=" << threads);
      testing::expect_mat_identical(got, expected);
    }
  }
}

TEST(Merge, ShapeMismatchThrows) {
  std::vector<CscMat> pieces;
  pieces.push_back(testing::random_matrix(5, 5, 1.0, 53));
  pieces.push_back(testing::random_matrix(5, 6, 1.0, 54));
  EXPECT_THROW(
      merge_matrices<PlusTimes>(csc_refs(pieces), MergeKind::kUnsortedHash),
               std::logic_error);
}

TEST(Merge, HashMergeAcceptsUnsortedInputs) {
  // Feed unsorted-hash SpGEMM outputs (unsorted columns) directly into the
  // hash merge — the exact mid-pipeline situation of BatchedSUMMA3D.
  const CscMat a = testing::random_matrix(40, 40, 3.0, 55);
  const CscMat b = testing::random_matrix(40, 40, 3.0, 56);
  std::vector<CscMat> partials;
  partials.push_back(local_spgemm<PlusTimes>(a, b, SpGemmKind::kUnsortedHash));
  partials.push_back(local_spgemm<PlusTimes>(b, a, SpGemmKind::kUnsortedHash));
  const CscMat merged =
      merge_matrices<PlusTimes>(csc_refs(partials), MergeKind::kUnsortedHash);
  std::vector<CscMat> sorted_partials = partials;
  for (CscMat& m : sorted_partials) m.sort_columns();
  const CscMat expected = reference_merge<PlusTimes>(sorted_partials);
  testing::expect_mat_near(merged, expected, 1e-9);
}

TEST(Merge, HashMergeOutputUnsortedIsAllowed) {
  // Documents the contract: kUnsortedHash merge gives no ordering promise;
  // only the final sort fixes order. (Not a strict requirement that it be
  // unsorted — just that the merged values are right either way.)
  const auto pieces = random_pieces(4, 25, 25, 4.0, 57);
  CscMat merged =
      merge_matrices<PlusTimes>(csc_refs(pieces), MergeKind::kUnsortedHash);
  merged.sort_columns();
  testing::expect_mat_near(merged, reference_merge<PlusTimes>(pieces), 1e-9);
}

TEST(Merge, MultithreadedMatchesSerial) {
  const auto pieces = random_pieces(8, 60, 60, 4.0, 58);
  const CscMat serial =
      merge_matrices<PlusTimes>(csc_refs(pieces), MergeKind::kUnsortedHash, 1);
  const CscMat parallel =
      merge_matrices<PlusTimes>(csc_refs(pieces), MergeKind::kUnsortedHash, 4);
  testing::expect_mat_near(parallel, serial, 1e-12);
}

TEST(Merge, KindNames) {
  EXPECT_STREQ(to_string(MergeKind::kUnsortedHash), "unsorted-hash-merge");
  EXPECT_STREQ(to_string(MergeKind::kSortedHeap), "sorted-heap-merge");
}

}  // namespace
}  // namespace casp
