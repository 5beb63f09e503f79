// The benchmark's workloads and the loop that drives them through the real
// svc::Server (submit / wait / drain / find / job_reports_json / pool()).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "svc/server.hpp"
#include "trace.hpp"

namespace bench {

/// One job shape of a workload.
struct Plan {
  std::string label;
  std::string input;
  casp::svc::JobSpec spec;
  bool ckpt = false;  ///< gets a fresh ckpt_dir under the work directory
};

struct Workload {
  std::string name;
  /// 1 = closed loop: one job in flight, submit then wait. Otherwise the
  /// whole cycle is submitted and drained at this many jobs in flight.
  int concurrency = 1;
  bool closed_loop() const { return concurrency == 1; }
  /// The jobs of one cycle; a run repeats the cycle.
  std::vector<Plan> cycle;
  /// Traced run only: small jobs that cover layers the cycle does not
  /// exercise (checkpoints, budgets, apps, the threads=1/4 pair), and the
  /// checkpoint-free twins of the cycle's checkpointed jobs.
  std::vector<Plan> probes;
  Plan warmup;
  std::map<std::string, Input> inputs;
};

/// The references `plans` are checked against.
ReferenceNeeds needs_of(const std::vector<Plan>& plans);

/// Builds workload `name` ("square-gather", "square-budgeted",
/// "service-mix"), generating its inputs from `seed` under `dir`. `tiny`
/// shrinks every input for the self-test. Throws on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny,
                       const std::string& dir);

/// What the benchmark observed about one job.
struct JobObs {
  std::string id;
  std::string label;
  std::string shape;  ///< label without the checkpoint marker
  std::string op;
  std::string input;
  int ranks = 1;
  int threads = 1;
  bool ckpt = false;
  bool probe = false;
  casp::Bytes memory = 0;

  double submit_s = 0.0;   ///< time inside Server::submit
  double latency_s = 0.0;  ///< submit -> terminal, as the client sees it
  std::string state;
  std::string failure_kind;  ///< classified kind, or "wrong_output"
  std::string failure_what;
  bool executed = false;
  bool verified = false;  ///< done and equal to the serial reference

  casp::Index admitted_b = 0;
  casp::Index final_b = 0;
  casp::Index rebatch_events = 0;
  casp::Index flops = 0;
  casp::Index nnz_c = 0;
  double run_wall = 0.0;
  std::map<std::string, double> step_max;  ///< report phase -> max seconds
  std::uint64_t messages = 0;
  casp::Bytes logical_bytes = 0;
  casp::Bytes shipped_bytes = 0;
  casp::Bytes a_bcast_shipped = 0;
  /// Messages of the Rebatch-Consensus phase; -1 when the job had none.
  /// The report carries no time for it (the phase only tags traffic).
  std::int64_t consensus_messages = -1;
  casp::Bytes unnamed_bytes = 0;  ///< traffic charged to phase "default"
  casp::Bytes tracked_peak = 0;
  casp::Bytes rank_share = 0;     ///< per-rank budget share (0 = none)
  casp::Bytes ckpt_bytes = 0;
  int mcl_iterations = 0;
};

/// Rank-replica observation: the grid/summa calls of the service's SpGEMM
/// body, timed per rank on the resident pool.
struct ReplicaObs {
  std::string label;
  double wall = 0.0;
  double distribute_s = 0.0;  ///< max over ranks, A and B distribution
  double summa_s = 0.0;       ///< max over ranks, batched_summa3d
  double gather_s = 0.0;      ///< max over ranks, gather_dist
  casp::Bytes gather_bytes = 0;  ///< logical bytes sent by gather_dist
  std::string failure_kind;
};

struct LoopResult {
  std::vector<JobObs> jobs;
  double timed_s = 0.0;  ///< service wall, verification excluded
  double peak_rss_mb = 0.0;
  int cycles = 0;
  std::vector<double> cycle_jobs_per_s;  ///< verified jobs / cycle wall
  std::vector<double> report_s;       ///< per job_reports_json call
  std::vector<double> outside_run_s;  ///< per cycle, per job
  std::vector<double> pool_util;      ///< per cycle
  std::vector<double> traced_latency;    ///< trace mode: traced cycles
  std::vector<double> untraced_latency;  ///< trace mode: untraced cycles
};

class Runner {
 public:
  Runner(const Workload& w, const References& refs, std::string workdir,
         Tracer& tracer);

  /// One set-up: Server construction through a finished warm-up job.
  double setup_once();
  /// Whole cycles until `seconds` of service wall time have passed. With
  /// `trace`, cycles alternate untraced/traced (at least one of each) so the
  /// tracing overhead can be read off the same run.
  LoopResult run(double seconds, bool trace);
  /// Runs the probe jobs (traced run only).
  std::vector<JobObs> run_probes();
  /// Replays each SpGEMM shape of the cycle on the resident pool
  /// with spans around distribute / batched_summa3d / gather_dist.
  std::vector<ReplicaObs> run_replicas();

 private:
  casp::svc::ServerOptions options() const;
  casp::svc::JobSpec instantiate(const Plan& plan, const std::string& tag);
  /// Reads the finished record, checks it against the references, and
  /// removes its checkpoint directory.
  JobObs observe(casp::svc::Server& server, const std::string& id,
                 const Plan& plan);

  const Workload& w_;
  const References& refs_;
  std::string workdir_;
  Tracer& tracer_;
  std::uint64_t next_tag_ = 0;
};

/// Peak resident set size sampled every few milliseconds on a background
/// thread while the sampler lives.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  double peak_mb() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace bench
