// Distribution round-trip and partition-coverage properties for the 3D
// layouts of Fig. 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "grid/dist.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp {
namespace {

void expect_empty(const CscMat& m) {
  EXPECT_EQ(m.nrows(), 0);
  EXPECT_EQ(m.ncols(), 0);
  EXPECT_EQ(m.nnz(), 0);
}

struct DistCase {
  int p;
  int l;
  Index rows;
  Index cols;
};

class DistRoundTrip : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistRoundTrip, AStyleGatherRestoresGlobal) {
  const auto [p, l, rows, cols] = GetParam();
  const CscMat global = testing::random_matrix(rows, cols, 3.0, 42);
  vmpi::run(p, [&, l = l](vmpi::Comm& world) {
    Grid3D grid(world, l);
    DistMat3D dist = distribute_a_style(grid, global);
    EXPECT_EQ(dist.local.nrows(), dist.rows.count);
    EXPECT_EQ(dist.local.ncols(), dist.cols.count);
    CscMat back = gather_dist(grid, dist);
    testing::expect_mat_near(back, global);
  });
}

TEST_P(DistRoundTrip, BStyleGatherRestoresGlobal) {
  const auto [p, l, rows, cols] = GetParam();
  const CscMat global = testing::random_matrix(rows, cols, 3.0, 43);
  vmpi::run(p, [&, l = l](vmpi::Comm& world) {
    Grid3D grid(world, l);
    DistMat3D dist = distribute_b_style(grid, global);
    CscMat back = gather_dist(grid, dist);
    testing::expect_mat_near(back, global);
  });
}

TEST_P(DistRoundTrip, RootGatherIsExactForBothStyles) {
  const auto [p, l, rows, cols] = GetParam();
  const CscMat global = testing::random_matrix(rows, cols, 3.0, 45);
  vmpi::run(p, [&, l = l](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const CscMat from_a =
        gather_dist_root(grid, distribute_a_style(grid, global));
    const CscMat from_b =
        gather_dist_root(grid, distribute_b_style(grid, global));
    if (world.rank() == 0) {
      testing::expect_mat_identical(from_a, global);
      testing::expect_mat_identical(from_b, global);
    } else {
      expect_empty(from_a);
      expect_empty(from_b);
    }
  });
}

TEST_P(DistRoundTrip, AllRankGatherIsExactOnEveryRank) {
  const auto [p, l, rows, cols] = GetParam();
  const CscMat global = testing::random_matrix(rows, cols, 3.0, 46);
  vmpi::run(p, [&, l = l](vmpi::Comm& world) {
    Grid3D grid(world, l);
    testing::expect_mat_identical(gather_dist(grid, distribute_a_style(grid, global)),
                         global);
    testing::expect_mat_identical(gather_dist(grid, distribute_b_style(grid, global)),
                         global);
  });
}

TEST_P(DistRoundTrip, LocalNnzSumsToGlobal) {
  const auto [p, l, rows, cols] = GetParam();
  const CscMat global = testing::random_matrix(rows, cols, 2.5, 44);
  vmpi::run(p, [&, l = l](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, global);
    const DistMat3D db = distribute_b_style(grid, global);
    EXPECT_EQ(world.allreduce_sum<Index>(da.local.nnz()), global.nnz());
    EXPECT_EQ(world.allreduce_sum<Index>(db.local.nnz()), global.nnz());
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DistRoundTrip,
    ::testing::Values(DistCase{1, 1, 10, 10}, DistCase{4, 1, 16, 16},
                      DistCase{4, 4, 17, 23},  // odd sizes, deep layering
                      DistCase{8, 2, 33, 19}, DistCase{16, 4, 40, 40},
                      DistCase{18, 2, 29, 37}, DistCase{16, 16, 21, 13},
                      DistCase{9, 1, 27, 31},
                      // more ranks than columns: some blocks empty
                      DistCase{16, 4, 5, 3}));

/// The same block with every column's row order reversed — what a block
/// built with sort_final = false may look like.
CscMat reverse_columns(const CscMat& m) {
  std::vector<Index> rowids(m.rowids().begin(), m.rowids().end());
  std::vector<Value> vals(m.vals().begin(), m.vals().end());
  const auto colptr = m.colptr();
  for (std::size_t j = 0; j + 1 < colptr.size(); ++j) {
    const auto lo = static_cast<std::ptrdiff_t>(colptr[j]);
    const auto hi = static_cast<std::ptrdiff_t>(colptr[j + 1]);
    std::reverse(rowids.begin() + lo, rowids.begin() + hi);
    std::reverse(vals.begin() + lo, vals.begin() + hi);
  }
  return CscMat(m.nrows(), m.ncols(),
                std::vector<Index>(colptr.begin(), colptr.end()),
                std::move(rowids), std::move(vals));
}

TEST(DistGather, UnsortedBlockColumnsComeBackSortedLikeFromTriples) {
  const CscMat global = testing::random_matrix(30, 22, 4.0, 47);
  const CscMat reference = CscMat::from_triples(global.to_triples());
  vmpi::run(4, [&](vmpi::Comm& world) {
    Grid3D grid(world, 1);
    DistMat3D dist = distribute_a_style(grid, global);
    dist.local = reverse_columns(dist.local);
    const CscMat root = gather_dist_root(grid, dist);
    if (world.rank() == 0) testing::expect_mat_identical(root, reference);
    testing::expect_mat_identical(gather_dist(grid, dist), reference);
  });
}

TEST(DistGather, DuplicateRowsInABlockColumnAreSummedLikeFromTriples) {
  // Rank 1's column 0 repeats row 2 out of order; from_triples sums it.
  const auto block = [](int rank) {
    if (rank == 0) return CscMat(4, 2, {0, 1, 2}, {3, 1}, {0.5, 0.25});
    return CscMat(4, 2, {0, 3, 3}, {2, 0, 2}, {1.0, 2.0, 4.0});
  };
  TripleMat all(8, 2);
  for (int rank = 0; rank < 2; ++rank) {
    const TripleMat mine = block(rank).to_triples();
    for (const Triple& t : mine.entries())
      all.push_back(t.row + 4 * rank, t.col, t.val);
  }
  const CscMat reference = CscMat::from_triples(std::move(all));
  ASSERT_EQ(reference.nnz(), 4);
  vmpi::run(2, [&](vmpi::Comm& world) {
    Grid3D grid(world, 2);  // p=2 is a valid grid only as 1x1x2
    DistMat3D dist;
    dist.global_rows = 8;
    dist.global_cols = 2;
    dist.rows = {4 * world.rank(), 4};
    dist.cols = {0, 2};
    dist.local = block(world.rank());
    const CscMat root = gather_dist_root(grid, dist);
    if (world.rank() == 0) testing::expect_mat_identical(root, reference);
    testing::expect_mat_identical(gather_dist(grid, dist), reference);
  });
}

/// Runs a 2-rank root gather in which rank 1's block is moved to
/// (row_start, col_start); returns the CASP_CHECK message it raised.
std::string gather_with_rank1_block_at(Index row_start, Index col_start) {
  const CscMat global = testing::random_matrix(8, 8, 3.0, 48);
  try {
    vmpi::run(2, [&](vmpi::Comm& world) {
      Grid3D grid(world, 2);  // p=2 is a valid grid only as 1x1x2
      DistMat3D dist;
      dist.global_rows = 8;
      dist.global_cols = 8;
      dist.rows = {world.rank() == 0 ? Index{0} : row_start, 4};
      dist.cols = {world.rank() == 0 ? Index{0} : col_start, 4};
      dist.local = extract_block(global, 0, 4, 0, 4);
      (void)gather_dist_root(grid, dist);
    });
  } catch (const std::logic_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "gather assembled a matrix from invalid blocks";
  return {};
}

TEST(DistGather, OverlappingBlocksTripACheck) {
  // Shares columns 2-3 and rows 2-3 with rank 0's block.
  const std::string what = gather_with_rank1_block_at(2, 2);
  EXPECT_NE(what.find("CASP_CHECK"), std::string::npos) << what;
  EXPECT_NE(what.find("overlap"), std::string::npos) << what;
}

TEST(DistGather, OutOfRangeBlocksTripACheck) {
  // Rows 6-9 of an 8-row matrix.
  const std::string what = gather_with_rank1_block_at(6, 4);
  EXPECT_NE(what.find("CASP_CHECK"), std::string::npos) << what;
  EXPECT_NE(what.find("escapes"), std::string::npos) << what;
}

TEST(DistGather, StackedBlocksInASharedColumnAssemble) {
  // Control for the two checks above: the same block at rows 0-3 and at
  // rows 4-7 of the same columns is a valid layout.
  const CscMat global = testing::random_matrix(8, 8, 3.0, 48);
  const CscMat top = extract_block(global, 0, 4, 0, 4);
  TripleMat stacked(8, 8);
  const TripleMat top_entries = top.to_triples();
  for (const Triple& t : top_entries.entries()) {
    stacked.push_back(t.row, t.col, t.val);
    stacked.push_back(t.row + 4, t.col, t.val);
  }
  const CscMat reference = CscMat::from_triples(std::move(stacked));
  vmpi::run(2, [&](vmpi::Comm& world) {
    Grid3D grid(world, 2);
    DistMat3D dist;
    dist.global_rows = 8;
    dist.global_cols = 8;
    dist.rows = {world.rank() == 0 ? Index{0} : Index{4}, 4};
    dist.cols = {0, 4};
    dist.local = top;
    const CscMat back = gather_dist_root(grid, dist);
    if (world.rank() == 0) testing::expect_mat_identical(back, reference);
  });
}

TEST(DistRanges, AStyleRangesPartitionTheMatrix) {
  // Across all ranks, the (rows x cols) rectangles must tile the matrix
  // exactly: every global (row, col) owned by exactly one rank.
  const int p = 8, l = 2;
  const Index rows = 13, cols = 11;
  std::vector<std::vector<int>> owners(
      static_cast<std::size_t>(rows),
      std::vector<int>(static_cast<std::size_t>(cols), 0));
  std::mutex mutex;
  vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const LocalRange rr = a_style_row_range(grid, rows);
    const LocalRange cr = a_style_col_range(grid, cols);
    std::lock_guard<std::mutex> lock(mutex);
    for (Index r = rr.start; r < rr.start + rr.count; ++r)
      for (Index c = cr.start; c < cr.start + cr.count; ++c)
        ++owners[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
  });
  for (Index r = 0; r < rows; ++r)
    for (Index c = 0; c < cols; ++c)
      EXPECT_EQ(owners[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)],
                1)
          << "cell (" << r << "," << c << ")";
}

TEST(DistRanges, BStyleRangesPartitionTheMatrix) {
  const int p = 18, l = 2;  // q = 3: odd grid
  const Index rows = 17, cols = 23;
  std::vector<std::vector<int>> owners(
      static_cast<std::size_t>(rows),
      std::vector<int>(static_cast<std::size_t>(cols), 0));
  std::mutex mutex;
  vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const LocalRange rr = b_style_row_range(grid, rows);
    const LocalRange cr = b_style_col_range(grid, cols);
    std::lock_guard<std::mutex> lock(mutex);
    for (Index r = rr.start; r < rr.start + rr.count; ++r)
      for (Index c = cr.start; c < cr.start + cr.count; ++c)
        ++owners[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
  });
  // B-style: rows split q*l ways keyed by (i, k), columns q ways keyed by
  // j — every cell owned exactly once.
  for (Index r = 0; r < rows; ++r)
    for (Index c = 0; c < cols; ++c)
      EXPECT_EQ(owners[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)],
                1)
          << "cell (" << r << "," << c << ")";
}

TEST(DistRanges, InnerDimensionAlignmentAcrossStyles) {
  // The stage-s broadcast alignment invariant: A's column slice owned by
  // (i=anything, j=s, k) must equal B's row slice owned by (i=s,
  // j=anything, k) for every layer k.
  const int p = 8, l = 2;
  const Index inner = 29;
  std::mutex mutex;
  // a_cols[s][k] and b_rows[s][k] collected from the ranks.
  std::map<std::pair<int, int>, LocalRange> a_cols, b_rows;
  vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, l);
    std::lock_guard<std::mutex> lock(mutex);
    a_cols[{grid.col(), grid.layer()}] = a_style_col_range(grid, inner);
    b_rows[{grid.row(), grid.layer()}] = b_style_row_range(grid, inner);
  });
  for (const auto& [key, range] : a_cols) {
    ASSERT_TRUE(b_rows.count(key));
    EXPECT_EQ(range.start, b_rows[key].start) << key.first << "," << key.second;
    EXPECT_EQ(range.count, b_rows[key].count);
  }
}

TEST(ExtractBlock, ReindexesAndFilters) {
  TripleMat t(6, 6);
  t.push_back(0, 0, 1.0);
  t.push_back(2, 1, 2.0);
  t.push_back(3, 1, 3.0);
  t.push_back(5, 5, 4.0);
  t.push_back(2, 4, 5.0);
  const CscMat m = CscMat::from_triples(std::move(t));
  const CscMat block = extract_block(m, 2, 4, 1, 5);
  EXPECT_EQ(block.nrows(), 2);
  EXPECT_EQ(block.ncols(), 4);
  EXPECT_EQ(block.nnz(), 3);  // (2,1), (3,1), (2,4)
  TripleMat bt = block.to_triples();
  ASSERT_EQ(bt.nnz(), 3);
  EXPECT_EQ(bt.entries()[0].row, 0);  // global (2,1) -> local (0,0)
  EXPECT_EQ(bt.entries()[0].col, 0);
  EXPECT_EQ(bt.entries()[1].row, 1);  // global (3,1) -> local (1,0)
  EXPECT_EQ(bt.entries()[2].col, 3);  // global (2,4) -> local (0,3)
}

}  // namespace
}  // namespace casp
