// Fig. 4: impact of the number of layers (l) and batches (b) on every step
// of BatchedSUMMA3D.
//
// Panel (a): Friendster on 16,384 cores; (b) Friendster on 65,536 cores;
// (c) Isolates-small on 65,536 cores — all MODELED at paper scale from the
// analogs' exactly-measured statistics. A MEASURED sweep on 64 virtual
// ranks follows, confirming the same directions with real execution.
//
// Shape criteria (paper): A-Bcast ~ linear in b, ~1/sqrt(l) in l;
// B-Bcast and the fiber steps flat in b; fiber steps grow with l.
#include "bench_util.hpp"

using namespace casp;
using namespace casp::bench;

namespace {

void modeled_panel(const char* title, const Dataset& data, Index cores) {
  const Machine machine = cori_knl();
  const Index p = cores / machine.threads_per_process;
  std::printf("--- %s: p = %lld processes (%lld cores) [MODELED] ---\n", title,
              static_cast<long long>(p), static_cast<long long>(cores));
  Table table({"l", "b", "Symbolic", "A-Bcast", "B-Bcast", "Local-Mult",
               "Merge-Layer", "A2A-Fiber", "Merge-Fiber", "total"});
  for (Index l : {Index{1}, Index{4}, Index{16}}) {
    const ProblemStats stats = dataset_stats_paper_scale(data, l);
    for (Index b : {Index{1}, Index{4}, Index{16}, Index{64}}) {
      const StepSeconds t = predict_steps(machine, stats, {p, l, b, true});
      table.add_row({fmt_int(l), fmt_int(b), fmt_time(t.at(steps::kSymbolic)),
                     fmt_time(t.at(steps::kABcast)),
                     fmt_time(t.at(steps::kBBcast)),
                     fmt_time(t.at(steps::kLocalMultiply)),
                     fmt_time(t.at(steps::kMergeLayer)),
                     fmt_time(t.at(steps::kAllToAllFiber)),
                     fmt_time(t.at(steps::kMergeFiber)),
                     fmt_time(total_seconds(t))});
    }
  }
  table.print();
  std::printf("\n");
}

}  // namespace

int main() {
  print_header(
      "Fig. 4: per-step impact of layers (l) and batches (b)",
      "MODELED at paper scale + MEASURED at small scale");

  // The analogs are ~10^4x smaller than the originals; every statistic is
  // rescaled to its Table V magnitude so the modeled times land in the
  // paper's range with the paper's compute-to-communication balance.
  Dataset friendster = friendster_s();
  Dataset isolates_small = isolates_small_s();
  modeled_panel("(a) Friendster", friendster, 16384);
  modeled_panel("(b) Friendster", friendster, 65536);
  modeled_panel("(c) Isolates-small", isolates_small, 65536);

  std::printf("--- measured confirmation: Friendster-s on 64 virtual ranks "
              "[MEASURED] ---\n");
  Table table({"l", "b", "A-Bcast bytes", "B-Bcast bytes", "A2A-Fiber bytes",
               "Local-Mult", "Merge-Layer", "Merge-Fiber", "wall"});
  for (int l : {1, 4, 16}) {
    for (Index b : {Index{1}, Index{4}, Index{16}}) {
      const MeasuredRun r = run_measured(friendster, 64, l, b);
      auto phase_bytes = [&](const char* name) -> double {
        const auto it = r.traffic.find(name);
        return it == r.traffic.end() ? 0.0
                                     : static_cast<double>(it->second.bytes);
      };
      table.add_row(
          {fmt_int(l), fmt_int(b), fmt_bytes(phase_bytes(steps::kABcast)),
           fmt_bytes(phase_bytes(steps::kBBcast)),
           fmt_bytes(phase_bytes(steps::kAllToAllFiber)),
           fmt_time(r.seconds(steps::kLocalMultiply)),
           fmt_time(r.seconds(steps::kMergeLayer)),
           fmt_time(r.seconds(steps::kMergeFiber)),
           fmt_time(r.wall_seconds)});
    }
  }
  table.print();
  std::printf(
      "\nExpected shapes: A-Bcast bytes grow ~linearly with b and shrink\n"
      "with l; B-Bcast bytes independent of b; AllToAll-Fiber grows with l\n"
      "and is flat in b; merge times flat in b. At l = 1 the stage partials\n"
      "are merged once, under Merge-Fiber, so Merge-Layer reads 0 there.\n");
  return 0;
}
