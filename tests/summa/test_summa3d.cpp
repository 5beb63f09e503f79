// SUMMA3D (Algorithm 2) correctness across (p, l) shapes: the result must
// land A-style distributed and equal the serial product.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>

#include "common/math.hpp"
#include "grid/dist.hpp"
#include "kernels/reference.hpp"
#include "sparse/serialize.hpp"
#include "summa/batched.hpp"
#include "summa/summa3d.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp {
namespace {

struct Summa3DCase {
  int p;
  int l;
  Index n;
  double density;
};

class Summa3DCorrectness : public ::testing::TestWithParam<Summa3DCase> {};

TEST_P(Summa3DCorrectness, MatchesSerialReference) {
  const auto [p, l, n, density] = GetParam();
  const CscMat a = testing::random_matrix(n, n, density, 21);
  const CscMat b = testing::random_matrix(n, n, density, 22);
  const CscMat expected = reference_multiply<PlusTimes>(a, b);

  vmpi::run(p, [&, l = l](vmpi::Comm& world) {
    Grid3D grid(world, l);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, b);
    CscMat local_c = summa3d<PlusTimes>(grid, da.local, db.local, {});

    // The merged fiber piece is the A-style block of C.
    DistMat3D dc;
    dc.local = std::move(local_c);
    dc.global_rows = a.nrows();
    dc.global_cols = b.ncols();
    dc.rows = a_style_row_range(grid, a.nrows());
    dc.cols = a_style_col_range(grid, b.ncols());
    EXPECT_EQ(dc.local.nrows(), dc.rows.count);
    EXPECT_EQ(dc.local.ncols(), dc.cols.count);
    testing::expect_mat_near(gather_dist(grid, dc), expected, 1e-9);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Summa3DCorrectness,
    ::testing::Values(Summa3DCase{1, 1, 14, 3.0}, Summa3DCase{2, 2, 15, 3.0},
                      Summa3DCase{4, 4, 18, 3.0}, Summa3DCase{8, 2, 25, 3.0},
                      Summa3DCase{16, 4, 33, 3.0}, Summa3DCase{16, 16, 19, 2.0},
                      Summa3DCase{12, 3, 27, 4.0}, Summa3DCase{18, 2, 35, 3.0},
                      // l > n/q slices: many empty layer slices
                      Summa3DCase{16, 4, 7, 2.0}));

TEST(Summa3DFinalSort, OutputColumnsAreSorted) {
  const Index n = 24;
  const CscMat a = testing::random_matrix(n, n, 4.0, 23);
  vmpi::run(8, [&](vmpi::Comm& world) {
    Grid3D grid(world, 2);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    SummaOptions opts;  // defaults: unsorted kernels + one final sort
    CscMat local_c = summa3d<PlusTimes>(grid, da.local, db.local, opts);
    EXPECT_TRUE(local_c.columns_sorted());
  });
}

TEST(Summa3DSemiring, OrAndReachability) {
  const Index n = 20;
  CscMat a = testing::random_matrix(n, n, 3.0, 24);
  for (Value& v : a.vals_mutable()) v = 1.0;
  const CscMat expected = reference_multiply<OrAnd>(a, a);
  vmpi::run(4, [&](vmpi::Comm& world) {
    Grid3D grid(world, 4);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    CscMat local_c = summa3d<OrAnd>(grid, da.local, db.local, {});
    DistMat3D dc{std::move(local_c), n, n, /*global_nnz=*/0,
                 a_style_row_range(grid, n), a_style_col_range(grid, n)};
    testing::expect_mat_near(gather_dist(grid, dc), expected);
  });
}

TEST(Summa3DZeroCopy, FiberExchangeAndMergeNeverDeepCopy) {
  // The ROADMAP claim behind the refcounted-payload transport: the fiber
  // stage — pack (wrap), AllToAll-Fiber (forwarded handles), Merge-Fiber
  // (CscViews borrowing the wire buffers) — performs zero Payload deep
  // copies. The job below runs *only* that stage (matrices generated
  // locally, no barriers or scalar collectives, whose 1–8 byte transport
  // copies are by design), so Payload::deep_copies() must not move at all.
  // Any regression — a copy_of on the exchange path, a release_or_copy
  // deserializing a received piece — fails this test.
  const int p = 4;
  const Index n = 32;

  const std::uint64_t before = Payload::deep_copies();
  vmpi::run(p, [&](vmpi::Comm& world) {
    // My slice of an unmerged D: p column blocks, one per destination.
    const CscMat d = testing::random_matrix(
        n, n, 3.0, 50 + static_cast<std::uint64_t>(world.rank()));

    std::vector<Payload> outgoing(static_cast<std::size_t>(p));
    for (int m = 0; m < p; ++m) {
      const Index lo = part_low(m, p, d.ncols());
      const Index hi = part_low(m + 1, p, d.ncols());
      outgoing[static_cast<std::size_t>(m)] =
          pack_csc_payload(d.slice_cols(lo, hi));
    }
    std::vector<Payload> incoming =
        world.alltoall_payload(std::move(outgoing));

    std::vector<CscView> pieces;
    pieces.reserve(incoming.size());
    for (const Payload& buf : incoming) pieces.push_back(unpack_csc_view(buf));
    const CscMat merged =
        merge_matrices<PlusTimes>(csc_refs(pieces), MergeKind::kUnsortedHash, 1);

    // Sanity: the merge really consumed every rank's piece.
    Index total = 0;
    for (const CscView& v : pieces) total += v.nnz();
    EXPECT_GT(total, 0);
    EXPECT_LE(merged.nnz(), total);
    EXPECT_GT(merged.nnz(), 0);
  });
  EXPECT_EQ(Payload::deep_copies(), before)
      << "the fiber exchange / Merge-Fiber path deep-copied a payload";
}

// Small integer values: every sum is exact, so the product is bit-identical
// to the reference whichever order the kernels add in.
CscMat integer_valued(CscMat m) {
  Index k = 0;
  for (Value& v : m.vals_mutable()) v = static_cast<Value>(1 + k++ % 5);
  return m;
}

// One rank's output block with its global origin.
struct OwnedBlock {
  Index row_start = 0;
  Index col_start = 0;
  CscMat local;
};

CscMat assemble_blocks(Index n, const std::vector<OwnedBlock>& blocks) {
  TripleMat t(n, n);
  for (const OwnedBlock& b : blocks)
    for (Index j = 0; j < b.local.ncols(); ++j) {
      const auto rows = b.local.col_rowids(j);
      const auto vals = b.local.col_vals(j);
      for (std::size_t k = 0; k < rows.size(); ++k)
        t.push_back(rows[k] + b.row_start, j + b.col_start, vals[k]);
    }
  return CscMat::from_triples(std::move(t));
}

TEST(Summa3DSingleLayer, OneMergeOfTheStagePartialsForEveryKernelKnob) {
  // At l = 1 the stage partials are merged once, as Merge-Fiber: no
  // Merge-Layer pass and no fiber self-exchange (zero AllToAll-Fiber bytes,
  // no Payload deep copies beyond the grid setup's), and the product is
  // the reference's for every local_kind x merge_kind x sort_final.
  const Index n = 21;
  const CscMat a = integer_valued(testing::random_matrix(n, n, 4.0, 26));
  const CscMat expected = reference_multiply<PlusTimes>(a, a);
  const SpGemmKind local_kinds[] = {
      SpGemmKind::kUnsortedHash, SpGemmKind::kSortedHash, SpGemmKind::kHeap,
      SpGemmKind::kHybrid, SpGemmKind::kSpa};
  for (const int p : {1, 4, 9}) {
    std::uint64_t before = Payload::deep_copies();
    vmpi::run(p, [&](vmpi::Comm& world) {
      Grid3D grid(world, 1);
      (void)distribute_a_style(grid, a);
      (void)distribute_b_style(grid, a);
    });
    const std::uint64_t setup_copies = Payload::deep_copies() - before;
    for (const SpGemmKind local_kind : local_kinds)
      for (const MergeKind merge_kind :
           {MergeKind::kUnsortedHash, MergeKind::kSortedHeap})
        for (const bool sort_final : {false, true})
          for (const bool batched : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "p=" << p << " " << to_string(local_kind) << " "
                         << to_string(merge_kind) << " sort_final="
                         << sort_final << " batched=" << batched);
            std::vector<OwnedBlock> blocks(static_cast<std::size_t>(p));
            before = Payload::deep_copies();
            const auto result = vmpi::run(p, [&](vmpi::Comm& world) {
              Grid3D grid(world, 1);
              const DistMat3D da = distribute_a_style(grid, a);
              const DistMat3D db = distribute_b_style(grid, a);
              SummaOptions opts;
              opts.local_kind = local_kind;
              opts.merge_kind = merge_kind;
              opts.sort_final = sort_final;
              OwnedBlock& mine = blocks[static_cast<std::size_t>(world.rank())];
              if (batched) {
                opts.force_batches = 2;
                BatchedResult r =
                    batched_summa3d<PlusTimes>(grid, da, db, 0, opts);
                mine = {r.c.rows.start, r.c.cols.start, std::move(r.c.local)};
              } else {
                mine = {da.rows.start, a_style_col_range(grid, n).start,
                        summa3d<PlusTimes>(grid, da.local, db.local, opts)};
              }
            });
            EXPECT_EQ(Payload::deep_copies() - before, setup_copies);
            const auto traffic = result.traffic_summary();
            const auto fiber = traffic.total_per_phase.find(steps::kAllToAllFiber);
            if (fiber != traffic.total_per_phase.end()) {
              EXPECT_EQ(fiber->second.bytes, 0u);
            }
            const auto names = result.time_names();
            EXPECT_NE(std::find(names.begin(), names.end(), steps::kMergeFiber),
                      names.end());
            EXPECT_EQ(std::find(names.begin(), names.end(), steps::kMergeLayer),
                      names.end());
            if (sort_final && (merge_kind == MergeKind::kUnsortedHash ||
                               produces_sorted(local_kind))) {
              for (const OwnedBlock& b : blocks)
                EXPECT_TRUE(b.local.columns_sorted());
            }
            testing::expect_mat_identical(assemble_blocks(n, blocks), expected);
          }
  }
}

TEST(Summa3DSingleLayer, BudgetedRunKeepsBatchesAndTrackedPeak) {
  // Merging the stage partials as Merge-Fiber keeps them charged until that
  // merge ends, exactly as long as Merge-Layer did, so a budgeted l = 1 run
  // admits, rebatches and peaks as before. The figures were measured on the
  // Merge-Layer + self-exchange pipeline with this input.
  const int p = 4;
  const CscMat a = testing::random_matrix(40, 40, 5.0, 77);
  const Bytes expected_peak[] = {4440, 5064, 5568, 5328};
  vmpi::run(p, [&](vmpi::Comm& world) {
    Grid3D grid(world, 1);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    const SymbolicResult unlimited = symbolic3d(grid, da.local, db.local, 0);
    const Bytes inputs =
        static_cast<Bytes>(unlimited.max_nnz_a + unlimited.max_nnz_b) *
        kBytesPerNonzero;
    const Bytes output =
        static_cast<Bytes>(unlimited.max_nnz_c) * kBytesPerNonzero;
    MemoryTracker tracker(inputs + output / 4);
    SummaOptions opts;
    opts.memory = &tracker;
    const BatchedResult r = batched_summa3d<PlusTimes>(
        grid, da, db, world.size() * (inputs + output / 2), opts,
        [](CscMat&&, const BatchInfo&) {}, /*keep_output=*/false);
    EXPECT_EQ(r.batches, 2);
    EXPECT_EQ(r.final_batches, 8);
    EXPECT_EQ(r.rebatch_events, 2);
    EXPECT_EQ(tracker.peak(),
              expected_peak[static_cast<std::size_t>(world.rank())]);
  });
}

TEST(Summa3DTraffic, FiberTrafficOnlyWhenLayered) {
  const Index n = 24;
  const CscMat a = testing::random_matrix(n, n, 3.0, 25);
  auto run_with_layers = [&](int p, int l) {
    return vmpi::run(p, [&, l](vmpi::Comm& world) {
      Grid3D grid(world, l);
      const DistMat3D da = distribute_a_style(grid, a);
      const DistMat3D db = distribute_b_style(grid, a);
      (void)summa3d<PlusTimes>(grid, da.local, db.local, {});
    });
  };
  const auto flat = run_with_layers(4, 1).traffic_summary();
  const auto layered = run_with_layers(4, 4).traffic_summary();
  // l=1: there is no fiber all-to-all at all.
  const auto it = flat.total_per_phase.find(steps::kAllToAllFiber);
  if (it != flat.total_per_phase.end()) {
    EXPECT_EQ(it->second.bytes, 0u);
  }
  EXPECT_GT(layered.total_per_phase.at(steps::kAllToAllFiber).bytes, 0u);
}

}  // namespace
}  // namespace casp
