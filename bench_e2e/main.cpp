// End-to-end service benchmark: drives svc::Server in-process through its
// public API, checks every output against the serial references, and
// prints end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage: bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                  [--tiny] [--workdir DIR] [--trace-dir DIR]
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "summa/steps.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using bench::JobObs;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string workdir = ".bench_e2e/work";
  std::string trace_dir = ".bench_e2e/traces";
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = std::stoi(value()) != 0;
    } else if (k == "--tiny") {
      a.tiny = true;
    } else if (k == "--workdir") {
      a.workdir = value();
    } else if (k == "--trace-dir") {
      a.trace_dir = value();
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Values of `f` over the loop's jobs; when no loop job has the layer
/// (f returns nullopt for all), over the probe jobs instead.
template <typename F>
double layer_median(const std::vector<JobObs>& loop,
                    const std::vector<JobObs>& probes, F f) {
  std::vector<double> v;
  for (const JobObs& o : loop)
    if (const std::optional<double> x = f(o)) v.push_back(*x);
  if (v.empty())
    for (const JobObs& o : probes)
      if (const std::optional<double> x = f(o)) v.push_back(*x);
  return median(v);
}

bool is_spgemm(const JobObs& o) { return o.op == "spgemm"; }

std::optional<double> step(const JobObs& o, const char* name) {
  if (!o.executed) return std::nullopt;
  auto it = o.step_max.find(name);
  if (it == o.step_max.end()) return std::nullopt;
  return it->second;
}

double sum_of_steps(const JobObs& o) {
  double s = 0.0;
  for (const char* name : casp::steps::kAll)
    if (auto it = o.step_max.find(name); it != o.step_max.end())
      s += it->second;
  return s;
}

/// The median over job shapes of each shape's median latency. Every shape
/// runs equally often, so this is the p50 of the job mix; the pooled median
/// would instead land between two shapes' latency clusters and read the
/// slowest job of one and the fastest of the other.
double latency_p50(const std::vector<JobObs>& jobs) {
  std::map<std::string, std::vector<double>> by_shape;
  for (const JobObs& o : jobs) by_shape[o.label].push_back(o.latency_s);
  std::vector<double> per_shape;
  for (const auto& [label, v] : by_shape) per_shape.push_back(median(v));
  return median(per_shape);
}

/// Local-Multiply at threads=1 over threads=4 on p=1 SpGEMMs of one input.
double thread_speedup(const std::vector<JobObs>& all) {
  std::map<std::string, std::vector<double>> t1, t4;
  for (const JobObs& o : all) {
    if (!is_spgemm(o) || o.ranks != 1) continue;
    const std::optional<double> lm = step(o, casp::steps::kLocalMultiply);
    if (!lm) continue;
    if (o.threads == 1) t1[o.input].push_back(*lm);
    if (o.threads == 4) t4[o.input].push_back(*lm);
  }
  std::vector<double> ratios;
  for (const auto& [input, v1] : t1)
    if (auto it = t4.find(input); it != t4.end() && median(it->second) > 0.0)
      ratios.push_back(median(v1) / median(it->second));
  return median(ratios);
}

/// Latency with ckpt_dir minus latency without, over shapes seen both ways.
/// The checkpointed side comes from the loop when it has checkpointed jobs
/// (their twins without ckpt_dir run as probes), else from the probe pair.
double ckpt_overhead(const std::vector<JobObs>& loop,
                     const std::vector<JobObs>& probes) {
  const bool in_loop =
      std::any_of(loop.begin(), loop.end(), [](const JobObs& o) { return o.ckpt; });
  std::map<std::string, std::vector<double>> on, off;
  for (const std::vector<JobObs>* jobs : {&loop, &probes})
    for (const JobObs& o : *jobs) {
      if (!o.ckpt)
        off[o.shape].push_back(o.latency_s);
      else if (o.probe != in_loop)
        on[o.shape].push_back(o.latency_s);
    }
  std::vector<double> diffs;
  for (const auto& [shape, v] : on)
    if (auto it = off.find(shape); it != off.end())
      diffs.push_back(median(v) - median(it->second));
  return median(diffs);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The classified kind plus where it hit: a budget overrun's message reads
/// "... allocating N bytes for <what>: live ...", so "memory_budget at
/// \"concatenated output\"".
std::string describe_failure(const JobObs& o) {
  if (o.failure_what.empty()) return o.failure_kind;
  const std::size_t at = o.failure_what.find(" for ");
  if (at == std::string::npos)
    return o.failure_kind + ": " + o.failure_what.substr(0, 60);
  const std::size_t end = o.failure_what.find(':', at);
  return o.failure_kind + " at \"" +
         o.failure_what.substr(at + 5, end == std::string::npos ? end : end - at - 5) +
         "\"";
}

void print_job_table(const std::vector<JobObs>& jobs) {
  std::printf("%-10s %-44s %8s %8s %4s %4s %-9s %s\n", "job", "shape", "submit_s",
              "latency", "b", "fin_b", "state", "failure");
  for (const JobObs& o : jobs) {
    const std::string failure = describe_failure(o);
    std::printf("%-10s %-44s %8.4f %8.4f %4lld %4lld %-9s %s\n", o.id.c_str(),
                o.label.substr(0, 44).c_str(), o.submit_s, o.latency_s,
                static_cast<long long>(o.admitted_b),
                static_cast<long long>(o.final_b), o.state.c_str(),
                failure.c_str());
  }
}

int run(const Args& args) {
  if (args.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  const std::string workdir =
      args.workdir + "/" + args.workload + "-" + std::to_string(args.seed) +
      "-" + std::to_string(::getpid());
  fs::create_directories(workdir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{workdir};

  // Benchmark set-up (not part of setup_s): inputs and references.
  const double t = bench::now_s();
  const bench::Workload w =
      bench::make_workload(args.workload, args.seed, args.tiny, workdir);
  std::vector<bench::Plan> checked = w.cycle;
  if (args.trace) checked.insert(checked.end(), w.probes.begin(), w.probes.end());
  const bench::References refs =
      bench::compute_references(w.inputs, bench::needs_of(checked));
  std::printf("# workload %s seed %llu: inputs and references in %.2f s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              bench::now_s() - t);
  for (const auto& [name, in] : w.inputs)
    std::printf("#   input %-8s n=%lld nnz=%lld\n", name.c_str(),
                static_cast<long long>(in.a.ncols()),
                static_cast<long long>(in.a.nnz()));

  bench::Tracer tracer(false);
  bench::Runner runner(w, refs, workdir, tracer);
  std::vector<double> setups;
  const int setup_reps = args.tiny ? 1 : 15;
  for (int i = 0; i < setup_reps; ++i) setups.push_back(runner.setup_once());

  const bench::LoopResult loop = runner.run(args.seconds, args.trace);
  const std::vector<JobObs>& jobs = loop.jobs;
  const int attempted = static_cast<int>(jobs.size());
  int verified = 0, wrong = 0, unclassified = 0, refused = 0;
  std::vector<double> latency;
  std::map<std::string, int> shapes;
  for (const JobObs& o : jobs) {
    latency.push_back(o.latency_s);
    ++shapes[o.label];
    if (o.verified) ++verified;
    if (o.failure_kind == "wrong_output") ++wrong;
    if (!o.verified && (o.failure_kind.empty() || o.failure_kind == "exception"))
      ++unclassified;
    if (o.state == "rejected" || o.state == "throttled") ++refused;
  }
  const int failed = attempted - verified;

  std::printf("# %d cycles, %d jobs, %.3f s of service wall time\n", loop.cycles,
              attempted, loop.timed_s);
  print_job_table(jobs);
  for (const JobObs& o : jobs)
    if (!o.verified)
      std::printf("# not verified: job %s (%s) kind=%s\n", o.id.c_str(),
                  o.op.c_str(), o.failure_kind.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setups), "s"},
        {"jobs_per_s", median(loop.cycle_jobs_per_s), "1/s"},
        {"job_latency_p50_s", latency_p50(jobs), "s"},
        {"verified_share", static_cast<double>(verified) / attempted, "share"},
        {"peak_rss_mb", loop.peak_rss_mb, "MB"},
    };
    std::printf("# job_latency_p50_s over %zu samples of %zu shapes (pooled "
                "median %.4f s); failed_share %.4f\n",
                latency.size(), shapes.size(), median(latency),
                static_cast<double>(failed) / attempted);
  } else {
    tracer.set_enabled(true);
    const std::vector<JobObs> probes = runner.run_probes();
    const std::vector<bench::ReplicaObs> replicas = runner.run_replicas();
    std::printf("# probes (layer coverage for metrics this workload lacks)\n");
    print_job_table(probes);
    std::vector<JobObs> all = jobs;
    all.insert(all.end(), probes.begin(), probes.end());

    std::vector<double> dist, gather, gather_bytes;
    std::printf("# rank replicas on the resident pool (max over ranks, s)\n");
    std::printf("%-44s %8s %10s %10s %10s %14s %s\n", "shape", "wall",
                "distribute", "summa", "gather", "gather_bytes", "failure");
    for (const bench::ReplicaObs& r : replicas) {
      std::printf("%-44s %8.4f %10.4f %10.4f %10.4f %14llu %s\n",
                  r.label.substr(0, 44).c_str(), r.wall, r.distribute_s,
                  r.summa_s, r.gather_s,
                  static_cast<unsigned long long>(r.gather_bytes),
                  r.failure_kind.c_str());
      dist.push_back(r.distribute_s);
      if (r.failure_kind.empty()) {
        gather.push_back(r.gather_s);
        gather_bytes.push_back(static_cast<double>(r.gather_bytes));
      }
    }
    // Where an SpGEMM job's run time goes: the seven steps, then what the
    // replicas attribute the rest to.
    using O = std::optional<double>;
    auto spg = [](const JobObs& o) { return is_spgemm(o) && o.executed; };
    const double unattributed = layer_median(jobs, probes, [&](const JobObs& o) -> O {
      if (!spg(o)) return std::nullopt;
      return o.run_wall - sum_of_steps(o);
    });
    std::printf("# attribution of SpGEMM run wall (median over jobs, s): "
                "run %.4f, seven steps %.4f, unattributed %.4f; replicas: "
                "distribute %.4f, gather %.4f\n",
                layer_median(jobs, probes, [&](const JobObs& o) -> O {
                  if (!spg(o)) return std::nullopt;
                  return o.run_wall;
                }),
                layer_median(jobs, probes, [&](const JobObs& o) -> O {
                  if (!spg(o)) return std::nullopt;
                  return sum_of_steps(o);
                }),
                unattributed, median(dist), median(gather));

    const double traced = median(loop.traced_latency);
    const double untraced = median(loop.untraced_latency);
    const double overhead = untraced > 0.0 ? traced / untraced - 1.0 : 0.0;
    fs::create_directories(args.trace_dir);
    const std::string trace_path = args.trace_dir + "/" + w.name + "-seed" +
                                   std::to_string(args.seed) + ".json";
    tracer.write_chrome(trace_path);
    std::printf("# chrome trace %s (%zu spans); tracing overhead %+.4f "
                "(traced p50 %.4f s vs untraced p50 %.4f s)\n",
                trace_path.c_str(), tracer.size(), overhead, traced, untraced);

    auto st = [&](const char* name) {
      return layer_median(jobs, probes, [name](const JobObs& o) { return step(o, name); });
    };
    metrics = {
        {"svc.submit_s", layer_median(jobs, probes, [](const JobObs& o) -> O { return o.submit_s; }), "s"},
        {"svc.unattributed_s", unattributed, "s"},
        {"svc.outside_run_s", median(loop.outside_run_s), "s"},
        {"svc.pool_util", median(loop.pool_util), "share"},
        {"svc.admission_miss", layer_median(jobs, probes, [&](const JobObs& o) -> O {
           if (!spg(o) || o.memory == 0 || o.admitted_b == 0) return std::nullopt;
           return static_cast<double>(o.final_b) / static_cast<double>(o.admitted_b);
         }), "ratio"},
        {"svc.refused", static_cast<double>(refused), "count"},
        {"svc.failed_share", static_cast<double>(failed) / attempted, "share"},
        {"grid.distribute_s", median(dist), "s"},
        {"grid.gather_s", median(gather), "s"},
        {"grid.gather_logical_bytes", median(gather_bytes), "B"},
        {"summa.symbolic_s", st(casp::steps::kSymbolic), "s"},
        {"summa.a_bcast_s", st(casp::steps::kABcast), "s"},
        {"summa.b_bcast_s", st(casp::steps::kBBcast), "s"},
        {"summa.local_multiply_s", st(casp::steps::kLocalMultiply), "s"},
        {"summa.merge_layer_s", st(casp::steps::kMergeLayer), "s"},
        {"summa.alltoall_fiber_s", st(casp::steps::kAllToAllFiber), "s"},
        {"summa.merge_fiber_s", st(casp::steps::kMergeFiber), "s"},
        {"summa.rebatch_consensus_messages", layer_median(jobs, probes, [](const JobObs& o) -> O {
           if (o.consensus_messages < 0) return std::nullopt;
           return static_cast<double>(o.consensus_messages);
         }), "count"},
        {"summa.final_batches", layer_median(jobs, probes, [&](const JobObs& o) -> O {
           if (!spg(o)) return std::nullopt;
           return static_cast<double>(o.final_b);
         }), "count"},
        {"summa.rebatch_events", layer_median(jobs, probes, [&](const JobObs& o) -> O {
           if (!spg(o)) return std::nullopt;
           return static_cast<double>(o.rebatch_events);
         }), "count"},
        {"kernels.flops", layer_median(jobs, probes, [](const JobObs& o) -> O {
           if (!is_spgemm(o)) return std::nullopt;
           return static_cast<double>(o.flops);
         }), "count"},
        {"kernels.local_multiply_gflops", layer_median(jobs, probes, [](const JobObs& o) -> O {
           const O lm = is_spgemm(o) ? step(o, casp::steps::kLocalMultiply) : std::nullopt;
           if (!lm || *lm <= 0.0) return std::nullopt;
           return static_cast<double>(o.flops) / *lm / 1e9;
         }), "GFLOP/s"},
        {"kernels.cf", layer_median(jobs, probes, [](const JobObs& o) -> O {
           if (!is_spgemm(o) || !o.verified || o.nnz_c == 0) return std::nullopt;
           return static_cast<double>(o.flops) / static_cast<double>(o.nnz_c);
         }), "ratio"},
        {"kernels.thread_speedup", thread_speedup(all), "ratio"},
        {"vmpi.messages", layer_median(jobs, probes, [](const JobObs& o) -> O {
           if (!o.executed) return std::nullopt;
           return static_cast<double>(o.messages);
         }), "count"},
        {"vmpi.logical_bytes", layer_median(jobs, probes, [](const JobObs& o) -> O {
           if (!o.executed) return std::nullopt;
           return static_cast<double>(o.logical_bytes);
         }), "B"},
        {"vmpi.shipped_bytes", layer_median(jobs, probes, [](const JobObs& o) -> O {
           if (!o.executed) return std::nullopt;
           return static_cast<double>(o.shipped_bytes);
         }), "B"},
        {"vmpi.a_bcast_shipped_bytes", layer_median(jobs, probes, [](const JobObs& o) -> O {
           if (!o.executed) return std::nullopt;
           return static_cast<double>(o.a_bcast_shipped);
         }), "B"},
        {"vmpi.unnamed_phase_bytes", layer_median(jobs, probes, [](const JobObs& o) -> O {
           if (!o.executed) return std::nullopt;
           return static_cast<double>(o.unnamed_bytes);
         }), "B"},
        {"common.tracked_peak_bytes", layer_median(jobs, probes, [](const JobObs& o) -> O {
           if (!o.executed || o.rank_share == 0) return std::nullopt;
           return static_cast<double>(o.tracked_peak);
         }), "B"},
        {"common.budget_headroom", layer_median(jobs, probes, [](const JobObs& o) -> O {
           if (!o.executed || o.rank_share == 0) return std::nullopt;
           return static_cast<double>(o.tracked_peak) / static_cast<double>(o.rank_share);
         }), "ratio"},
        {"ckpt.bytes_written", layer_median(jobs, probes, [](const JobObs& o) -> O {
           if (!o.ckpt || !o.executed) return std::nullopt;
           return static_cast<double>(o.ckpt_bytes);
         }), "B"},
        {"ckpt.overhead_s", ckpt_overhead(jobs, probes), "s"},
        {"apps.mcl_iteration_s", layer_median(jobs, probes, [](const JobObs& o) -> O {
           if (o.op != "mcl" || !o.executed || o.mcl_iterations <= 0) return std::nullopt;
           return o.run_wall / o.mcl_iterations;
         }), "s"},
        {"apps.triangle_s", layer_median(jobs, probes, [](const JobObs& o) -> O {
           if (o.op != "triangle" || !o.executed) return std::nullopt;
           return o.run_wall;
         }), "s"},
        {"obs.report_s", median(loop.report_s), "s"},
        {"trace.overhead_share", overhead, "share"},
    };
  }

  const bool correct = wrong == 0 && unclassified == 0;
  std::printf("# %s: attempted %d, verified %d, failed %d (wrong output %d, "
              "unclassified %d)\n",
              correct ? "outputs correct" : "OUTPUTS WRONG", attempted, verified,
              failed, wrong, unclassified);
  for (const Metric& m : metrics)
    std::printf("# %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
