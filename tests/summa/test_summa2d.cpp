// SUMMA2D (Algorithm 1) correctness: the gathered distributed product must
// equal the serial reference for random matrices across grid shapes,
// kernel choices, and semirings. Runs with l = 1 so the layer is the whole
// grid and the 2D result is the final result.
#include <gtest/gtest.h>

#include <algorithm>

#include "grid/dist.hpp"
#include "kernels/reference.hpp"
#include "kernels/spgemm.hpp"
#include "summa/summa2d.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp {
namespace {

// `p` is an Index, not an int, so the struct has no padding: gtest names
// each case by printing the raw bytes of its parameter, and uninitialised
// padding would give the cases different names from one run to the next.
struct Summa2DCase {
  Index p;
  Index n;
  double density;
  SpGemmKind local_kind;
  MergeKind merge_kind;
};

class Summa2DCorrectness : public ::testing::TestWithParam<Summa2DCase> {};

TEST_P(Summa2DCorrectness, MatchesSerialReference) {
  const auto param = GetParam();
  const CscMat a = testing::random_matrix(param.n, param.n, param.density, 7);
  const CscMat b = testing::random_matrix(param.n, param.n, param.density, 8);
  const CscMat expected = reference_multiply<PlusTimes>(a, b);

  vmpi::run(static_cast<int>(param.p), [&](vmpi::Comm& world) {
    Grid3D grid(world, /*layers=*/1);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, b);
    SummaOptions opts;
    opts.local_kind = param.local_kind;
    opts.merge_kind = param.merge_kind;
    CscMat local_d = summa2d<PlusTimes>(grid, da.local, db.local, opts);

    DistMat3D dc;
    dc.local = std::move(local_d);
    dc.global_rows = a.nrows();
    dc.global_cols = b.ncols();
    dc.rows = da.rows;
    dc.cols = db.cols;  // with l=1 the 2D product is distributed like B cols
    CscMat gathered = gather_dist(grid, dc);
    testing::expect_mat_near(gathered, expected, 1e-9);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grids, Summa2DCorrectness,
    ::testing::Values(
        Summa2DCase{1, 12, 3.0, SpGemmKind::kUnsortedHash,
                    MergeKind::kUnsortedHash},
        Summa2DCase{4, 20, 3.0, SpGemmKind::kUnsortedHash,
                    MergeKind::kUnsortedHash},
        Summa2DCase{4, 21, 4.0, SpGemmKind::kSortedHash,
                    MergeKind::kSortedHeap},
        Summa2DCase{9, 30, 3.0, SpGemmKind::kHeap, MergeKind::kSortedHeap},
        Summa2DCase{9, 31, 2.0, SpGemmKind::kHybrid, MergeKind::kSortedHeap},
        Summa2DCase{16, 37, 3.5, SpGemmKind::kUnsortedHash,
                    MergeKind::kUnsortedHash},
        Summa2DCase{16, 40, 5.0, SpGemmKind::kSpa, MergeKind::kUnsortedHash},
        // denser than rows: guaranteed collisions and compression
        Summa2DCase{4, 8, 6.0, SpGemmKind::kUnsortedHash,
                    MergeKind::kUnsortedHash}));

TEST(Summa2DRectangular, TallTimesWide) {
  const Index m = 26, k = 14, n = 33;
  const CscMat a = testing::random_matrix(m, k, 3.0, 9);
  const CscMat b = testing::random_matrix(k, n, 3.0, 10);
  const CscMat expected = reference_multiply<PlusTimes>(a, b);
  vmpi::run(4, [&](vmpi::Comm& world) {
    Grid3D grid(world, 1);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, b);
    CscMat local_d = summa2d<PlusTimes>(grid, da.local, db.local, {});
    DistMat3D dc{std::move(local_d), m, n, /*global_nnz=*/0, da.rows, db.cols};
    testing::expect_mat_near(gather_dist(grid, dc), expected);
  });
}

TEST(Summa2DSemiring, MinPlusShortestPathStep) {
  const Index n = 18;
  const CscMat a = testing::random_matrix(n, n, 3.0, 11);
  const CscMat expected = reference_multiply<MinPlus>(a, a);
  vmpi::run(4, [&](vmpi::Comm& world) {
    Grid3D grid(world, 1);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    CscMat local_d = summa2d<MinPlus>(grid, da.local, db.local, {});
    DistMat3D dc{std::move(local_d), n, n, /*global_nnz=*/0, da.rows, db.cols};
    testing::expect_mat_near(gather_dist(grid, dc), expected);
  });
}

TEST(Summa2DTiming, RecordsAllStepTimes) {
  const Index n = 16;
  const CscMat a = testing::random_matrix(n, n, 3.0, 12);
  auto result = vmpi::run(4, [&](vmpi::Comm& world) {
    Grid3D grid(world, 1);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    (void)summa2d<PlusTimes>(grid, da.local, db.local, {});
  });
  EXPECT_GT(result.max_time(steps::kABcast), 0.0);
  EXPECT_GT(result.max_time(steps::kBBcast), 0.0);
  EXPECT_GT(result.max_time(steps::kLocalMultiply), 0.0);
  EXPECT_GT(result.max_time(steps::kMergeLayer), 0.0);
  // Traffic must be attributed to the bcast phases.
  const auto summary = result.traffic_summary();
  EXPECT_GT(summary.total_per_phase.at(steps::kABcast).bytes, 0u);
  EXPECT_GT(summary.total_per_phase.at(steps::kBBcast).bytes, 0u);
}

TEST(Summa2DSingleStage, MergeLayerPassesLocalMultiplyOutputThrough) {
  // q = 1 (p = 1, or l = p): one stage partial, so Merge-Layer has nothing
  // to add and hands back the Local-Multiply output bit for bit, still
  // inside a Merge-Layer span.
  const Index n = 24;
  const CscMat a = testing::random_matrix(n, n, 3.0, 13);
  const CscMat b = testing::random_matrix(n, n, 3.0, 14);
  for (const int p : {1, 4}) {
    auto result = vmpi::run(p, [&](vmpi::Comm& world) {
      Grid3D grid(world, p);
      ASSERT_EQ(grid.q(), 1);
      const DistMat3D da = distribute_a_style(grid, a);
      const DistMat3D db = distribute_b_style(grid, b);
      const CscMat expected = local_spgemm<PlusTimes>(da.local, db.local);
      EXPECT_EQ(summa2d<PlusTimes>(grid, da.local, db.local, {}), expected);
    });
    const auto names = result.time_names();
    EXPECT_NE(std::find(names.begin(), names.end(), steps::kMergeLayer),
              names.end())
        << "p=" << p;
  }
}

}  // namespace
}  // namespace casp
