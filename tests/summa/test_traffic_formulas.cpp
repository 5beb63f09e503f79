// Regression tests pinning the instrumented communication against the
// Table II closed forms — the assertion-based sibling of
// bench_table2_comm_complexity.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "grid/dist.hpp"
#include "summa/batched.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp {
namespace {

struct TrafficCase {
  int p;
  int l;
  Index b;
};

class TrafficFormulas : public ::testing::TestWithParam<TrafficCase> {};

TEST_P(TrafficFormulas, MessageCountsMatchClosedForms) {
  const auto [p, l, b] = GetParam();
  const int q = static_cast<int>(std::sqrt(p / l));
  const Index n = 40;
  const CscMat a = testing::random_matrix(n, n, 3.0, 170);

  auto result = vmpi::run(p, [&, l = l, b = b](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    SummaOptions opts;
    opts.force_batches = b;
    (void)batched_summa3d<PlusTimes>(grid, da, db, 0, opts);
  });
  const auto traffic = result.traffic_summary().total_per_phase;
  auto messages = [&](const char* s) -> std::uint64_t {
    const auto it = traffic.find(s);
    return it == traffic.end() ? 0 : it->second.messages;
  };

  // Binomial-tree broadcasts: q-1 sends per tree; b*q trees per process
  // row; l*q rows (and symmetrically columns).
  const std::uint64_t bcast_msgs = static_cast<std::uint64_t>(l) * q * b * q *
                                   static_cast<std::uint64_t>(q - 1);
  EXPECT_EQ(messages(steps::kABcast), bcast_msgs);
  EXPECT_EQ(messages(steps::kBBcast), bcast_msgs);

  // Pairwise all-to-all: l-1 sends per rank per batch, q*q*l ranks.
  const std::uint64_t fiber_msgs = static_cast<std::uint64_t>(b) * q * q * l *
                                   static_cast<std::uint64_t>(l - 1);
  EXPECT_EQ(messages(steps::kAllToAllFiber), fiber_msgs);
}

TEST_P(TrafficFormulas, ABcastBytesScaleLinearlyWithBatches) {
  const auto [p, l, b] = GetParam();
  if (p / l < 4) GTEST_SKIP();  // need q >= 2 for nonzero broadcasts
  const Index n = 48;
  const CscMat a = testing::random_matrix(n, n, 3.0, 171);
  auto volume_at = [&](Index batches) {
    auto result = vmpi::run(p, [&, l = l, batches](vmpi::Comm& world) {
      Grid3D grid(world, l);
      const DistMat3D da = distribute_a_style(grid, a);
      const DistMat3D db = distribute_b_style(grid, a);
      SummaOptions opts;
      opts.force_batches = batches;
      (void)batched_summa3d<PlusTimes>(grid, da, db, 0, opts);
    });
    return result.traffic_summary().total_per_phase.at(steps::kABcast).bytes;
  };
  const Bytes v1 = volume_at(1);
  const Bytes v4 = volume_at(4);
  // Payload quadruples; per-batch colptr overhead makes it slightly more.
  EXPECT_GE(v4, 3 * v1);
  EXPECT_LE(v4, 5 * v1);
}

INSTANTIATE_TEST_SUITE_P(Grids, TrafficFormulas,
                         ::testing::Values(TrafficCase{4, 1, 1},
                                           TrafficCase{16, 4, 2},
                                           TrafficCase{16, 1, 3},
                                           TrafficCase{36, 4, 2},
                                           TrafficCase{16, 16, 2}));

TEST(TrafficFormulas, BBcastBytesIndependentOfBatches) {
  const int p = 16, l = 4;
  const Index n = 48;
  const CscMat a = testing::random_matrix(n, n, 3.0, 172);
  Bytes volumes[2];
  int idx = 0;
  for (Index b : {Index{1}, Index{6}}) {
    auto result = vmpi::run(p, [&, b](vmpi::Comm& world) {
      Grid3D grid(world, l);
      const DistMat3D da = distribute_a_style(grid, a);
      const DistMat3D db = distribute_b_style(grid, a);
      SummaOptions opts;
      opts.force_batches = b;
      (void)batched_summa3d<PlusTimes>(grid, da, db, 0, opts);
    });
    volumes[idx++] =
        result.traffic_summary().total_per_phase.at(steps::kBBcast).bytes;
  }
  // Same payload split into 6 slices: only headers/colptr framing differ.
  EXPECT_LT(static_cast<double>(volumes[1]),
            1.6 * static_cast<double>(volumes[0]));
}

// The stage engine records the stage exchanges under the caller's phase
// labels: Symbolic3D's under the one enclosing "Symbolic" phase, SUMMA2D's
// under A-Bcast/B-Bcast. A batched run must therefore charge Symbolic
// exactly what a standalone symbolic3d run sends, and A-Bcast/B-Bcast
// exactly what the same run with the symbolic step skipped sends.
class StageTrafficAttribution : public ::testing::TestWithParam<bool> {};

TEST_P(StageTrafficAttribution, PhasesMatchStandaloneRuns) {
  const bool sparse_comm = GetParam();
  const int p = 8, l = 2;
  const Index n = 40;
  const CscMat a = testing::random_matrix(n, n, 3.0, 173);
  SummaOptions opts;
  opts.sparse_comm = sparse_comm;

  auto batched_traffic = [&](Index force_batches) {
    SummaOptions run_opts = opts;
    run_opts.force_batches = force_batches;
    auto result = vmpi::run(p, [&](vmpi::Comm& world) {
      Grid3D grid(world, l);
      const DistMat3D da = distribute_a_style(grid, a);
      const DistMat3D db = distribute_b_style(grid, a);
      (void)batched_summa3d<PlusTimes>(grid, da, db, 0, run_opts);
    });
    return result.traffic_summary().total_per_phase;
  };
  const auto with_symbolic = batched_traffic(0);
  const auto without_symbolic = batched_traffic(1);
  const auto standalone = vmpi::run(p, [&](vmpi::Comm& world) {
                            Grid3D grid(world, l);
                            const DistMat3D da = distribute_a_style(grid, a);
                            const DistMat3D db = distribute_b_style(grid, a);
                            (void)symbolic3d(grid, da.local, db.local, 0, opts);
                          })
                              .traffic_summary()
                              .total_per_phase;

  using Ledger = std::map<std::string, vmpi::PhaseTraffic>;
  auto phase = [](const Ledger& ledger, const char* name) {
    const auto it = ledger.find(name);
    return it == ledger.end() ? vmpi::PhaseTraffic{} : it->second;
  };
  auto expect_same = [&](const Ledger& got, const Ledger& want,
                         const char* name) {
    const vmpi::PhaseTraffic g = phase(got, name), w = phase(want, name);
    EXPECT_GT(w.messages, 0u) << name;
    EXPECT_EQ(g.messages, w.messages) << name;
    EXPECT_EQ(g.bytes, w.bytes) << name;
    EXPECT_EQ(g.shipped, w.shipped) << name;
  };
  expect_same(with_symbolic, standalone, steps::kSymbolic);
  expect_same(with_symbolic, without_symbolic, steps::kABcast);
  expect_same(with_symbolic, without_symbolic, steps::kBBcast);
  EXPECT_EQ(phase(without_symbolic, steps::kSymbolic).messages, 0u);
  // The standalone symbolic pass leaks nothing into the bcast phases.
  EXPECT_EQ(phase(standalone, steps::kABcast).messages, 0u);
  EXPECT_EQ(phase(standalone, steps::kBBcast).messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(SparseComm, StageTrafficAttribution,
                         ::testing::Values(false, true));

}  // namespace
}  // namespace casp
