// Distribution round-trip and partition-coverage properties for the 3D
// layouts of Fig. 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/math.hpp"
#include "gen/rmat.hpp"
#include "grid/dist.hpp"
#include "kernels/reference.hpp"
#include "summa/batched.hpp"
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

/// The same structure with small integer values: every partial sum of a
/// product is then exact, so any summation order gives the same bits.
CscMat integer_valued(const CscMat& m) {
  CscMat out = m;
  const auto vals = out.vals_mutable();
  for (std::size_t e = 0; e < vals.size(); ++e)
    vals[e] = static_cast<Value>(e % 5 + 1);
  return out;
}

/// Layer whose A-style column / B-style row slices hold inner position pos
/// on a grid of q x q x l.
Index layer_at(Index pos, Index q, Index l, Index n) {
  for (Index j = 0; j < q; ++j) {
    const Index part = part_size(j, q, n);
    for (Index t = 0; t < l; ++t) {
      const Index lo = part_low(j, q, n) + part_low(t, l, part);
      if (pos >= lo && pos < lo + part_size(t, l, part)) return t;
    }
  }
  ADD_FAILURE() << "position " << pos << " is in no slice";
  return -1;
}

/// Multiply work per layer: sum of nnz(A(:,k)) * nnz(B(k,:)) over the
/// inner positions k the layer holds.
std::vector<double> layer_flops(const CscMat& a, const CscMat& b, int p,
                                int l) {
  const Index n = a.ncols();
  const Index q = exact_isqrt(p / l);
  std::vector<Index> b_row_nnz(static_cast<std::size_t>(n), 0);
  for (const Index r : b.rowids()) ++b_row_nnz[static_cast<std::size_t>(r)];
  std::vector<double> load(static_cast<std::size_t>(l), 0.0);
  for (Index k = 0; k < n; ++k)
    load[static_cast<std::size_t>(layer_at(k, q, l, n))] +=
        static_cast<double>(a.col_nnz(k)) *
        static_cast<double>(b_row_nnz[static_cast<std::size_t>(k)]);
  return load;
}

double max_over_mean(const std::vector<double>& load) {
  double sum = 0.0;
  for (const double x : load) sum += x;
  return *std::max_element(load.begin(), load.end()) /
         (sum / static_cast<double>(load.size()));
}

TEST(BalanceInnerLayers, OneLayerIsTheIdentity) {
  const CscMat a = testing::random_matrix(23, 31, 3.0, 50);
  const CscMat b = testing::random_matrix(31, 17, 3.0, 51);
  for (const int p : {1, 4, 9, 16}) {
    const auto [qa, qb] = balance_inner_layers(a, b, p, 1);
    testing::expect_mat_identical(qa, a);
    testing::expect_mat_identical(qb, b);
  }
}

constexpr std::pair<int, int> kLayeredGrids[] = {{2, 2}, {4, 4}, {8, 2},
                                                 {16, 4}};

TEST(BalanceInnerLayers, ProductIsBitIdenticalOnIntegerInputs) {
  const CscMat a = integer_valued(testing::random_matrix(37, 29, 3.0, 52));
  const CscMat b = integer_valued(testing::random_matrix(29, 41, 3.0, 53));
  const CscMat at = a.transpose();
  const CscMat ab = reference_multiply<PlusTimes>(a, b);
  const CscMat aat = reference_multiply<PlusTimes>(a, at);
  for (const auto& [p, l] : kLayeredGrids) {
    SCOPED_TRACE("p=" + std::to_string(p) + " l=" + std::to_string(l));
    const auto [qa, qb] = balance_inner_layers(a, b, p, l);
    EXPECT_EQ(qa.nrows(), a.nrows());
    EXPECT_EQ(qa.ncols(), a.ncols());
    EXPECT_EQ(qb.nrows(), b.nrows());
    EXPECT_EQ(qb.ncols(), b.ncols());
    EXPECT_TRUE(qb.columns_sorted());
    testing::expect_mat_identical(reference_multiply<PlusTimes>(qa, qb), ab);
    const auto [sa, sat] = balance_inner_layers(a, at, p, l);
    testing::expect_mat_identical(reference_multiply<PlusTimes>(sa, sat),
                                  aat);
  }
}

TEST(BalanceInnerLayers, KeepsTheOriginalOrderInsideEachLayer) {
  // Tag A's column k and B's row k with the value k + 1: the relabeled
  // operands then name the original k at every inner position.
  const Index n = 61;
  const CscMat a_shape = testing::random_matrix(40, n, 4.0, 54);
  const CscMat b_shape = testing::random_matrix(n, 35, 4.0, 55);
  CscMat a = a_shape;
  for (Index k = 0; k < n; ++k)
    for (Index e = a.colptr()[static_cast<std::size_t>(k)];
         e < a.colptr()[static_cast<std::size_t>(k) + 1]; ++e)
      a.vals_mutable()[static_cast<std::size_t>(e)] = static_cast<Value>(k + 1);
  CscMat b = b_shape;
  for (std::size_t e = 0; e < b.rowids().size(); ++e)
    b.vals_mutable()[e] = static_cast<Value>(b.rowids()[e] + 1);

  for (const auto& [p, l] : kLayeredGrids) {
    SCOPED_TRACE("p=" + std::to_string(p) + " l=" + std::to_string(l));
    const auto [qa, qb] = balance_inner_layers(a, b, p, l);
    // Deterministic: a second call gives the same bits.
    const auto [qa2, qb2] = balance_inner_layers(a, b, p, l);
    testing::expect_mat_identical(qa2, qa);
    testing::expect_mat_identical(qb2, qb);

    std::vector<Index> original(static_cast<std::size_t>(n), -1);
    for (Index pos = 0; pos < n; ++pos)
      if (qa.col_nnz(pos) > 0)
        original[static_cast<std::size_t>(pos)] =
            static_cast<Index>(qa.col_vals(pos)[0]) - 1;
    for (std::size_t e = 0; e < qb.rowids().size(); ++e) {
      Index& k = original[static_cast<std::size_t>(qb.rowids()[e])];
      const auto tag = static_cast<Index>(qb.vals()[e]) - 1;
      if (k >= 0) {
        EXPECT_EQ(k, tag) << "A and B disagree on a relabel";
      }
      k = tag;
    }
    const Index q = exact_isqrt(p / l);
    std::vector<Index> last(static_cast<std::size_t>(l), -1);
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    Index named = 0;
    for (Index pos = 0; pos < n; ++pos) {
      const Index k = original[static_cast<std::size_t>(pos)];
      if (k < 0) continue;  // A's column and B's row both empty
      ++named;
      EXPECT_EQ(seen[static_cast<std::size_t>(k)], 0) << "k=" << k;
      seen[static_cast<std::size_t>(k)] = 1;
      Index& prev = last[static_cast<std::size_t>(layer_at(pos, q, l, n))];
      EXPECT_LT(prev, k) << "layer order broken at position " << pos;
      prev = k;
    }
    EXPECT_GE(named, n - 3);
    // The relabel moves work between layers, so it is not the identity.
    EXPECT_FALSE(qa == a);
  }
}

TEST(BalanceInnerLayers, InnerDimensionSmallerThanTheSlices) {
  // p=16, l=4 has q * l = 8 inner slices; most of them are empty here.
  for (const Index inner : {1, 3, 5, 7}) {
    SCOPED_TRACE("inner=" + std::to_string(inner));
    const CscMat a =
        integer_valued(testing::random_matrix(9, inner, 3.0, 56));
    const CscMat b =
        integer_valued(testing::random_matrix(inner, 11, 3.0, 57));
    const CscMat expected = reference_multiply<PlusTimes>(a, b);
    for (const auto& [p, l] : kLayeredGrids) {
      const auto [qa, qb] = balance_inner_layers(a, b, p, l);
      testing::expect_mat_identical(reference_multiply<PlusTimes>(qa, qb),
                                    expected);
    }
  }
}

TEST(BalanceInnerLayers, RmatLayersCarryEqualWork) {
  RmatParams params;
  params.scale = 10;
  params.seed = 3;
  const CscMat a = generate_rmat(params);
  for (const int p : {4, 16}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    // The raw order piles the hubs into layer 0.
    EXPECT_GT(max_over_mean(layer_flops(a, a, p, 4)), 2.0);
    const auto [qa, qb] = balance_inner_layers(a, a, p, 4);
    EXPECT_LE(max_over_mean(layer_flops(qa, qb, p, 4)), 1.1);
  }
}

TEST(BalanceInnerLayers, DistributedProductMatchesTheReferenceForEveryKernel) {
  const CscMat a = integer_valued(testing::random_matrix(34, 30, 3.5, 58));
  const CscMat b = integer_valued(testing::random_matrix(30, 27, 3.5, 59));
  const CscMat expected = reference_multiply<PlusTimes>(a, b);
  const std::pair<SpGemmKind, MergeKind> kinds[] = {
      {SpGemmKind::kUnsortedHash, MergeKind::kUnsortedHash},
      {SpGemmKind::kUnsortedHash, MergeKind::kSortedHeap},
      {SpGemmKind::kSortedHash, MergeKind::kUnsortedHash},
      {SpGemmKind::kSortedHash, MergeKind::kSortedHeap},
      {SpGemmKind::kHeap, MergeKind::kSortedHeap},
      {SpGemmKind::kHybrid, MergeKind::kSortedHeap},
      {SpGemmKind::kSpa, MergeKind::kUnsortedHash}};
  for (const auto& [p, l] : kLayeredGrids) {
    const auto [qa, qb] = balance_inner_layers(a, b, p, l);
    for (const auto& [local_kind, merge_kind] : kinds)
      for (const bool sort_final : {true, false}) {
        SCOPED_TRACE("p=" + std::to_string(p) + " l=" + std::to_string(l) +
                     " " + to_string(local_kind) + "/" +
                     to_string(merge_kind) +
                     " sort_final=" + std::to_string(sort_final));
        vmpi::run(p, [&, l = l](vmpi::Comm& world) {
          Grid3D grid(world, l);
          SummaOptions opts;
          opts.local_kind = local_kind;
          opts.merge_kind = merge_kind;
          opts.sort_final = sort_final;
          opts.force_batches = 2;
          const BatchedResult r = batched_summa3d<PlusTimes>(
              grid, distribute_a_style(grid, qa), distribute_b_style(grid, qb),
              0, opts);
          const CscMat c = gather_dist_root(grid, r.c);
          if (world.rank() == 0) testing::expect_mat_identical(c, expected);
        });
      }
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
