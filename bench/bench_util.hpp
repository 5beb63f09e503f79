// Shared infrastructure for the per-table/per-figure benchmark binaries.
//
// Two execution modes, labeled in every output:
//  - MEASURED: real execution on thread-backed virtual ranks on this host.
//    Timings are real; communication volumes/messages are exact.
//  - MODELED: the alpha-beta cost model (model/costs.hpp) evaluated at the
//    paper's scale (thousands of nodes), driven by exactly-measured problem
//    statistics from the scaled dataset analogs.
#pragma once

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "gen/er.hpp"
#include "gen/kmer.hpp"
#include "gen/protein.hpp"
#include "gen/rmat.hpp"
#include "grid/dist.hpp"
#include "model/costs.hpp"
#include "model/machine.hpp"
#include "model/scaling.hpp"
#include "obs/report.hpp"
#include "sparse/stats.hpp"
#include "summa/batched.hpp"
#include "vmpi/runtime.hpp"

namespace casp::bench {

// ---------------------------------------------------------------------------
// Dataset registry: scaled-down analogs of Table V. Each targets the shape
// that matters for its experiments (output blow-up ratio, cf, sparsity
// skew), at ~1/10^4 of the paper's size so a bench run takes seconds.
// ---------------------------------------------------------------------------

struct Dataset {
  std::string name;        ///< paper matrix this stands in for
  CscMat a;                ///< the matrix (A)
  CscMat b;                ///< second operand (A, or A^T for the AAT cases)
  bool is_aat = false;     ///< true when b = a^T (BELLA/PASTIS pattern)
};

/// Eukarya analog: smallest protein network (3M rows, nnz(C)/nnz(A) ~ 5.6).
Dataset eukarya_s();
/// Isolates-small analog: mid-size protein network, cf ~ 170 in the paper;
/// high within-family density so squaring is compute-heavy.
Dataset isolates_small_s();
/// Isolates analog: the biggest squaring workload (301T flops in paper).
Dataset isolates_s();
/// Metaclust50 analog: sparser than Isolates but vast (nnz(C) ~ 27x nnz(A)).
Dataset metaclust50_s();
/// Friendster analog: power-law social network, nnz(C) ~ 280x nnz(A).
Dataset friendster_s();
/// Rice-kmers analog: hyper-sparse tall A (2 nnz/col), nnz(AA^T) ~ nnz(A),
/// communication-bound, b = 1.
Dataset rice_kmers_s();
/// Metaclust20m analog: reads x k-mers with heavy output blow-up
/// (nnz(C) ~ 156x nnz(A) in the paper).
Dataset metaclust20m_s();

/// All of Table V, in paper order.
std::vector<Dataset> all_datasets();

// ---------------------------------------------------------------------------
// Measured runs
// ---------------------------------------------------------------------------

struct MeasuredRun {
  Index p = 1, l = 1, b = 1;
  /// Max-over-ranks seconds per step (real wall time).
  std::map<std::string, double> step_seconds;
  /// step_seconds of `step`, or 0 when the run never entered it (an l = 1
  /// run records its one merge under Merge-Fiber and has no Merge-Layer).
  double seconds(const std::string& step) const {
    const auto it = step_seconds.find(step);
    return it == step_seconds.end() ? 0.0 : it->second;
  }
  /// Exact communication per phase (sum over ranks).
  std::map<std::string, vmpi::PhaseTraffic> traffic;
  double wall_seconds = 0.0;
  Index symbolic_batches = 1;  ///< what the symbolic step would choose
  Index output_nnz = 0;
  /// The full observability aggregate of the run — the same document the
  /// CLIs' --report flag writes. step_seconds/traffic above are convenience
  /// views of its entries.
  obs::RunReport report;
};

/// Run BatchedSUMMA3D on `p` virtual ranks and collect the breakdown.
/// force_b = 0 lets the symbolic step decide against `total_memory`.
MeasuredRun run_measured(const Dataset& data, int p, int l, Index force_b,
                         Bytes total_memory = 0,
                         const SummaOptions& base_opts = {});

// ---------------------------------------------------------------------------
// Modeled runs
// ---------------------------------------------------------------------------

/// Problem statistics of a dataset, scaled up by `scale_factor` to paper
/// magnitude (1 = use the analog's own size). The layered intermediate
/// volume is measured exactly on the analog and scaled with everything
/// else, preserving the compression structure.
/// `stages` further subdivides the inner dimension (the SUMMA stage count
/// q): the unmerged volume is measured on l*stages slices, matching what
/// the distributed algorithm stores per process at grid sqrt(p/l)^2 * l.
ProblemStats dataset_stats(const Dataset& data, Index layers,
                           double scale_factor = 1.0, Index stages = 1);

/// The Table V statistics of each original matrix (indexable by the analog
/// name, e.g. "Friendster-s" -> the real Friendster numbers).
struct PaperStats {
  double nnz_a = 0;
  double nnz_b = 0;
  double flops = 0;
  double nnz_c = 0;
};
PaperStats paper_stats(const std::string& analog_name);

/// Analog statistics rescaled so every field matches the *original*
/// matrix's Table V magnitude: nnz(A)/nnz(B) by the input ratio, flops by
/// the flop ratio, nnz(C) by the output ratio, and the layered
/// intermediate volume by the flop ratio (it lives between nnz(C) and
/// flops). This preserves the paper's compute-to-communication balance,
/// which plain single-factor scaling cannot (the analogs' compression
/// factors are necessarily smaller at ~10^4x reduced size).
ProblemStats dataset_stats_paper_scale(const Dataset& data, Index layers,
                                       Index stages = 1);

/// Configure a machine's per-node memory so that, at the *smallest*
/// process count of a sweep, inputs fit with `input_headroom`x slack but
/// only `output_fraction` of the unmerged output does — the memory-tight
/// regime of the paper's experiments, where the symbolic step must batch.
/// As the sweep adds nodes, aggregate memory grows and b falls, exactly
/// the super-linear-speedup mechanism of Figs. 6-7.
Machine machine_with_tight_memory(Machine machine, const ProblemStats& stats,
                                  Index smallest_p,
                                  double input_headroom = 4.0,
                                  double output_fraction = 0.15);

// ---------------------------------------------------------------------------
// Output helpers
// ---------------------------------------------------------------------------

/// Fixed-width table printing.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void add_row(const std::vector<std::string>& cells);
  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string fmt(double v, int precision = 3);
std::string fmt_int(Index v);
/// "1.23 s" / "45.6 ms" / "789 us" auto-ranged.
std::string fmt_time(double seconds);
/// "12.3 GB" auto-ranged.
std::string fmt_bytes(double bytes);

void print_header(const std::string& title, const std::string& mode);

/// Machine-readable perf records for cross-PR tracking: a JSON array of
/// {"op", "bytes", "ns", "copies"} objects (BENCH_kernels.json /
/// BENCH_abcast.json). `bytes` is the logical payload per operation, `ns`
/// wall time per operation, `copies` Payload deep copies per operation.
class JsonRecords {
 public:
  void add(const std::string& op, double bytes, double ns, double copies);
  /// Writes the array to `path`; prints a note and returns false on error.
  bool write(const std::string& path) const;

 private:
  struct Record {
    std::string op;
    double bytes = 0;
    double ns = 0;
    double copies = 0;
  };
  std::vector<Record> records_;
};

}  // namespace casp::bench
