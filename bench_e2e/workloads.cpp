#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "ckpt/checkpoint.hpp"
#include "common/memory_tracker.hpp"
#include "grid/dist.hpp"
#include "grid/grid3d.hpp"
#include "sparse/stats.hpp"
#include "summa/batched.hpp"
#include "summa/steps.hpp"

namespace bench {

namespace fs = std::filesystem;
using casp::Bytes;
using casp::svc::JobOp;
using casp::svc::JobRecord;
using casp::svc::JobSpec;
using casp::svc::JobState;
using casp::svc::Server;

namespace {

constexpr Bytes kMiB = Bytes{1} << 20;

/// Builds plans against one workload's inputs.
struct PlanMaker {
  Workload& w;

  Plan spgemm(const std::string& input, int ranks, int layers, int threads,
              Bytes memory = 0, bool sparse_comm = false, bool ckpt = false) {
    Plan p;
    p.input = input;
    p.spec.op = JobOp::kSpGemm;
    p.spec.a = casp::svc::MatrixSource::file(w.inputs.at(input).path);
    p.spec.ranks = ranks;
    p.spec.layers = layers;
    p.spec.threads = threads;
    p.spec.memory_bytes = memory;
    p.spec.sparse_comm = sparse_comm;
    p.ckpt = ckpt;
    p.label = input + "^2 p" + std::to_string(ranks) + " l" +
              std::to_string(layers) + " t" + std::to_string(threads);
    if (memory != 0) p.label += " M" + std::to_string(memory / kMiB) + "MiB";
    if (sparse_comm) p.label += " sparse";
    if (ckpt) p.label += " ckpt";
    return p;
  }

  Plan triangles(const std::string& input, int ranks) {
    Plan p;
    p.input = input;
    p.spec.op = JobOp::kTriangleCount;
    p.spec.a = casp::svc::MatrixSource::file(w.inputs.at(input).path);
    p.spec.ranks = ranks;
    p.label = "triangles(" + input + ") p" + std::to_string(ranks);
    return p;
  }

  Plan mcl(const std::string& input, int ranks) {
    Plan p;
    p.input = input;
    p.spec.op = JobOp::kMcl;
    p.spec.a = casp::svc::MatrixSource::file(w.inputs.at(input).path);
    p.spec.ranks = ranks;
    p.label = "mcl(" + input + ") p" + std::to_string(ranks);
    return p;
  }
};

Plan with_tenant(Plan p, const std::string& tenant, int priority) {
  p.spec.tenant = tenant;
  p.spec.priority = priority;
  p.label += " [" + tenant + "]";
  return p;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny,
                       const std::string& dir) {
  Workload w;
  w.name = name;
  using K = InputRecipe::Kind;
  // Full sizes follow the workload definitions in README.md; tiny sizes
  // only keep every code path alive for the self-test.
  auto add = [&](const std::string& input, InputRecipe full, InputRecipe small,
                 std::uint64_t salt) {
    w.inputs.emplace(input, make_input(dir, input, tiny ? small : full,
                                       seed * 1000003ULL + salt));
  };
  const InputRecipe rmat13{K::kRmat, 13, 8.0, 0}, rmat13_t{K::kRmat, 9, 8.0, 0};
  const InputRecipe rmat12{K::kRmat, 12, 8.0, 0}, rmat12_t{K::kRmat, 8, 8.0, 0};
  const InputRecipe rmat11{K::kRmat, 11, 8.0, 0}, rmat11_t{K::kRmat, 7, 8.0, 0};
  const InputRecipe prot20k{K::kProtein, 0, 0.0, 20000};
  const InputRecipe prot_t{K::kProtein, 0, 0.0, 600};
  add("rmat12", rmat12, rmat12_t, 12);
  add("prot2k", {K::kProtein, 0, 0.0, 2000}, {K::kProtein, 0, 0.0, 300}, 2);
  add("rmat11", rmat11, rmat11_t, 11);
  PlanMaker mk{w};

  // Coverage probes shared by all workloads: a budgeted checkpointed pair,
  // an MCL job, a triangle count and a threads=1/threads=4 pair.
  const Bytes probe_budget = 64 * kMiB;
  std::vector<Plan> probes = {
      mk.spgemm("rmat12", 4, 1, 1, probe_budget, false, true),
      mk.spgemm("rmat12", 4, 1, 1, probe_budget, false, false),
      mk.mcl("prot2k", 1),
      mk.triangles("rmat12", 1),
  };
  for (Plan& p : probes) p.label = "probe " + p.label;

  if (name == "square-gather") {
    add("rmat13", rmat13, rmat13_t, 13);
    add("prot20k", prot20k, prot_t, 20);
    w.cycle = {
        mk.spgemm("rmat13", 4, 1, 1),
        mk.spgemm("rmat13", 4, 4, 1),
        mk.spgemm("prot20k", 4, 1, 1),
        mk.spgemm("rmat13", 1, 1, 4),
    };
    probes.push_back(mk.spgemm("rmat13", 1, 1, 1));
    probes.back().label = "probe " + probes.back().label;
    w.warmup = mk.spgemm("rmat11", 4, 1, 1);
  } else if (name == "square-budgeted") {
    add("rmat13", rmat13, rmat13_t, 13);
    // Six shapes: R-MAT at 512/256/128 MiB x l in {1,4}. Three run
    // sparse_comm and three set a ckpt_dir, each set spanning both l. The
    // traced run adds a checkpoint-free twin of each checkpointed shape, so
    // ckpt.overhead_s compares the same job with and without checkpoints.
    w.cycle = {
        mk.spgemm("rmat13", 4, 1, 1, 512 * kMiB, true, false),
        mk.spgemm("rmat13", 4, 4, 1, 512 * kMiB, false, true),
        mk.spgemm("rmat13", 4, 1, 1, 256 * kMiB, false, false),
        mk.spgemm("rmat13", 4, 4, 1, 256 * kMiB, true, true),
        mk.spgemm("rmat13", 4, 1, 1, 128 * kMiB, true, true),
        mk.spgemm("rmat13", 4, 4, 1, 128 * kMiB, false, false),
    };
    for (const Plan& p : w.cycle) {
      if (!p.ckpt) continue;
      const casp::svc::JobSpec& s = p.spec;
      probes.push_back(mk.spgemm(p.input, s.ranks, s.layers, s.threads,
                                 s.memory_bytes, s.sparse_comm, false));
    }
    probes.push_back(mk.spgemm("rmat12", 1, 1, 1));
    probes.push_back(mk.spgemm("rmat12", 1, 1, 4));
    for (std::size_t i = probes.size() - 2; i < probes.size(); ++i)
      probes[i].label = "probe " + probes[i].label;
    w.warmup = mk.spgemm("rmat11", 4, 1, 1, 256 * kMiB);
  } else if (name == "service-mix") {
    add("er8k", {K::kEr, 0, 8.0, 8192}, {K::kEr, 0, 4.0, 512}, 8);
    add("prot4k", {K::kProtein, 0, 0.0, 4000}, {K::kProtein, 0, 0.0, 400}, 4);
    w.concurrency = 4;
    w.cycle = {
        with_tenant(mk.triangles("rmat12", 1), "alice", 2),
        with_tenant(mk.mcl("prot2k", 1), "bob", 1),
        with_tenant(mk.spgemm("er8k", 1, 1, 1), "carol", 0),
        with_tenant(mk.spgemm("prot4k", 1, 1, 1), "alice", 1),
        with_tenant(mk.triangles("rmat12", 1), "carol", 2),
        with_tenant(mk.spgemm("er8k", 1, 1, 1), "bob", 0),
        with_tenant(mk.spgemm("er8k", 4, 4, 1), "alice", 0),
        with_tenant(mk.mcl("prot2k", 1), "carol", 1),
        with_tenant(mk.spgemm("prot4k", 1, 1, 1), "bob", 2),
        with_tenant(mk.triangles("rmat12", 4), "bob", 1),
        with_tenant(mk.spgemm("er8k", 1, 1, 1), "alice", 2),
        with_tenant(mk.spgemm("prot4k", 4, 1, 1), "carol", 0),
    };
    probes.push_back(mk.spgemm("rmat12", 1, 1, 1));
    probes.push_back(mk.spgemm("rmat12", 1, 1, 4));
    for (std::size_t i = probes.size() - 2; i < probes.size(); ++i)
      probes[i].label = "probe " + probes[i].label;
    w.warmup = mk.spgemm("rmat11", 1, 1, 1);
  } else {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  w.probes = std::move(probes);
  return w;
}

ReferenceNeeds needs_of(const std::vector<Plan>& plans) {
  ReferenceNeeds needs;
  for (const Plan& p : plans) {
    switch (p.spec.op) {
      case JobOp::kSpGemm:
        needs.square.insert(p.input);
        break;
      case JobOp::kTriangleCount:
        needs.triangles.insert(p.input);
        break;
      case JobOp::kMcl:
        needs.mcl[p.input] = p.spec.mcl;
        break;
    }
  }
  return needs;
}

Runner::Runner(const Workload& w, const References& refs, std::string workdir,
               Tracer& tracer)
    : w_(w), refs_(refs), workdir_(std::move(workdir)), tracer_(tracer) {}

casp::svc::ServerOptions Runner::options() const {
  casp::svc::ServerOptions o;
  o.pool_ranks = 4;
  o.concurrency = w_.concurrency;
  return o;
}

JobSpec Runner::instantiate(const Plan& plan, const std::string& tag) {
  JobSpec spec = plan.spec;
  spec.job_id = tag + "-" + std::to_string(next_tag_++);
  if (plan.ckpt) spec.ckpt_dir = workdir_ + "/ckpt/" + spec.job_id;
  return spec;
}

namespace {

Bytes dir_bytes(const std::string& dir) {
  Bytes total = 0;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec))
    if (e.is_regular_file(ec)) total += static_cast<Bytes>(e.file_size(ec));
  return total;
}

std::int64_t counter(const casp::obs::RunReport& r, const std::string& name) {
  auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second;
}

}  // namespace

JobObs Runner::observe(Server& server, const std::string& id,
                       const Plan& plan) {
  const JobRecord& rec = *server.find(id);
  JobObs o;
  o.id = id;
  o.label = plan.label;
  o.shape = plan.label;
  if (const auto at = o.shape.find(" ckpt"); at != std::string::npos)
    o.shape.erase(at, 5);
  o.op = casp::svc::to_string(rec.spec.op);
  o.input = plan.input;
  o.ranks = rec.spec.ranks;
  o.threads = rec.spec.threads;
  o.ckpt = plan.ckpt;
  o.memory = rec.spec.memory_bytes;
  o.state = casp::svc::to_string(rec.state);
  o.admitted_b = rec.admission.batches;
  if (rec.state == JobState::kRejected || rec.state == JobState::kThrottled)
    o.failure_kind = o.state;
  const casp::CscMat& a = w_.inputs.at(plan.input).a;
  if (rec.report.run.has_value()) {
    const casp::obs::RunReport& run = *rec.report.run;
    o.executed = true;
    o.run_wall = run.wall_seconds;
    for (const auto& [phase, entry] : run.phases)
      o.step_max[phase] = entry.seconds_max;
    o.messages = rec.report.billing.messages;
    o.logical_bytes = rec.report.billing.logical_bytes;
    o.shipped_bytes = rec.report.billing.shipped_bytes;
    if (auto it = run.phases.find(casp::steps::kABcast); it != run.phases.end())
      o.a_bcast_shipped = it->second.total.shipped;
    if (auto it = run.phases.find(casp::steps::kRebatchConsensus);
        it != run.phases.end())
      o.consensus_messages = static_cast<std::int64_t>(it->second.total.messages);
    if (auto it = run.phases.find("default"); it != run.phases.end())
      o.unnamed_bytes = it->second.total.bytes;
    o.tracked_peak = run.peak_bytes_max;
    if (o.memory != 0)
      o.rank_share = std::max<Bytes>(1, o.memory / static_cast<Bytes>(o.ranks));
    o.final_b = counter(run, "summa.final_batches");
    o.rebatch_events = counter(run, "summa.rebatch_events");
    o.mcl_iterations = static_cast<int>(counter(run, "mcl.iterations"));
    if (run.failure.has_value()) {
      o.failure_kind = run.failure->kind;
      o.failure_what = run.failure->what;
    }
  }
  if (rec.state == JobState::kDone) {
    switch (rec.spec.op) {
      case JobOp::kSpGemm:
        o.verified = same_matrix(rec.c, refs_.square.at(plan.input));
        o.nnz_c = rec.c.nnz();
        break;
      case JobOp::kTriangleCount:
        o.verified = rec.triangles == refs_.triangles.at(plan.input);
        break;
      case JobOp::kMcl:
        o.verified = same_clustering(rec.mcl, refs_.mcl.at(plan.input));
        o.mcl_iterations = rec.mcl.iterations;
        break;
    }
    if (!o.verified) o.failure_kind = "wrong_output";
  }
  if (rec.spec.op == JobOp::kSpGemm) o.flops = casp::multiply_flops(a, a);
  if (!rec.spec.ckpt_dir.empty()) {
    o.ckpt_bytes = dir_bytes(rec.spec.ckpt_dir);
    std::error_code ec;
    fs::remove_all(rec.spec.ckpt_dir, ec);
  }
  return o;
}

double Runner::setup_once() {
  const double t0 = now_s();
  double t1 = t0;
  {
    Server server(options());
    const std::string id = server.submit(instantiate(w_.warmup, "warmup"));
    const JobRecord& rec = server.wait(id);
    t1 = now_s();
    if (rec.state != JobState::kDone)
      throw std::runtime_error("warm-up job ended " +
                               std::string(casp::svc::to_string(rec.state)) +
                               ": " + rec.reason);
  }
  return t1 - t0;
}

LoopResult Runner::run(double seconds, bool trace) {
  LoopResult out;
  RssSampler rss;
  const std::vector<Plan>& cycle = w_.cycle;
  while (out.cycles < (trace ? 2 : 1) || out.timed_s < seconds) {
    const bool traced = trace && out.cycles % 2 == 1;
    tracer_.set_enabled(traced);
    const std::string tag = "c" + std::to_string(out.cycles);
    double timed = 0.0;
    const double c0 = now_s();
    const int cycle_span = tracer_.begin("cycle " + tag);
    auto server = std::make_unique<Server>(options());

    struct Sent {
      std::string id;
      const Plan* plan;
      double t_submit;
      double submit_s;
      double t_terminal = 0.0;
      int wait_span = -1;
    };
    std::vector<Sent> sent;
    const double first = now_s();
    double service_end = first;
    double waited = 0.0;
    for (const Plan& plan : cycle) {
      JobSpec spec = instantiate(plan, tag);
      const std::string id = spec.job_id;
      const double t0 = now_s();
      {
        Scoped s(tracer_, "submit", cycle_span, id);
        server->submit(std::move(spec));
      }
      const double t1 = now_s();
      sent.push_back({id, &plan, t0, t1 - t0});
      if (w_.closed_loop()) {
        Scoped s(tracer_, "wait", cycle_span, id);
        server->wait(id);
        sent.back().t_terminal = now_s();
        sent.back().wait_span = s.index();
        waited += sent.back().t_terminal - t1;
      }
    }
    int drain_span = -1;
    if (!w_.closed_loop()) {
      const double d0 = now_s();
      {
        Scoped s(tracer_, "drain", cycle_span);
        drain_span = s.index();
        server->drain();
      }
      const double d1 = now_s();
      waited = d1 - d0;
      for (Sent& s : sent) s.t_terminal = d1;
    }
    for (const Sent& s : sent) service_end = std::max(service_end, s.t_terminal);
    {
      const double r0 = now_s();
      Scoped s(tracer_, "job_reports_json", cycle_span);
      const casp::obs::Json reports = server->job_reports_json(false);
      out.report_s.push_back(now_s() - r0);
      if (reports.size() != cycle.size())
        throw std::runtime_error("job_reports_json lost a job");
    }
    timed += now_s() - c0;

    // Untimed: read back, verify, clean checkpoints, merge job spans.
    double run_sum = 0.0, rank_seconds = 0.0;
    int verified = 0;
    for (const Sent& s : sent) {
      JobObs o = observe(*server, s.id, *s.plan);
      verified += o.verified ? 1 : 0;
      o.submit_s = s.submit_s;
      o.latency_s = s.t_terminal - s.t_submit;
      run_sum += o.run_wall;
      rank_seconds += o.run_wall * o.ranks;
      if (traced) {
        const int pid = tracer_.track(s.id + " " + s.plan->label);
        tracer_.add_job_steps(server->find(s.id)->run_result, s.id, pid,
                              w_.closed_loop() ? s.wait_span : drain_span);
        out.traced_latency.push_back(o.latency_s);
      } else if (trace) {
        out.untraced_latency.push_back(o.latency_s);
      }
      out.jobs.push_back(std::move(o));
    }
    const double busy = std::max(service_end - first, 1e-9);
    out.pool_util.push_back(rank_seconds / (4.0 * busy));
    out.outside_run_s.push_back((waited - run_sum) /
                                static_cast<double>(sent.size()));

    const double d0 = now_s();
    server.reset();
    tracer_.end(cycle_span);
    const double teardown = now_s() - d0;
    timed += teardown;
    out.timed_s += timed;
    out.cycle_jobs_per_s.push_back(verified / timed);
    double submitting = 0.0;
    for (const Sent& s : sent) submitting += s.submit_s;
    std::printf("# cycle %s: %.4f s timed (submit %.4f, %s %.4f, teardown "
                "%.4f), %.4f jobs/s\n",
                tag.c_str(), timed, submitting,
                w_.closed_loop() ? "wait" : "drain", waited, teardown,
                verified / timed);
    ++out.cycles;
  }
  tracer_.set_enabled(trace);
  out.peak_rss_mb = rss.peak_mb();
  return out;
}

std::vector<JobObs> Runner::run_probes() {
  std::vector<JobObs> out;
  Server server(options());
  const int parent = tracer_.begin("probes");
  for (const Plan& plan : w_.probes) {
    JobSpec spec = instantiate(plan, "probe");
    const std::string id = spec.job_id;
    const double t0 = now_s();
    server.submit(std::move(spec));
    const double t1 = now_s();
    server.wait(id);
    JobObs o = observe(server, id, plan);
    o.probe = true;
    o.submit_s = t1 - t0;
    o.latency_s = now_s() - t0;
    out.push_back(std::move(o));
  }
  tracer_.end(parent);
  return out;
}

namespace {

Bytes logical_sent(casp::vmpi::Comm& comm) {
  Bytes total = 0;
  for (const auto& [phase, t] : comm.recorder().traffic().per_phase())
    total += t.bytes;
  return total;
}

/// Per-rank span log; each rank writes only its own slot.
struct RankLog {
  std::vector<Span> spans;
  Bytes gather_bytes = 0;
};

class RankSpan {
 public:
  RankSpan(RankLog& log, const char* name, int rank, int pid)
      : log_(log) {
    span_.name = name;
    span_.t0 = now_s();
    span_.tid = rank;
    span_.pid = pid;
  }
  ~RankSpan() {
    span_.t1 = now_s();
    log_.spans.push_back(std::move(span_));
  }
  RankSpan(const RankSpan&) = delete;
  RankSpan& operator=(const RankSpan&) = delete;

 private:
  RankLog& log_;
  Span span_;
};

double max_span(const std::vector<RankLog>& logs, const std::string& a,
                const std::string& b = {}) {
  double worst = 0.0;
  for (const RankLog& log : logs) {
    double sum = 0.0;
    for (const Span& s : log.spans)
      if (s.name == a || (!b.empty() && s.name == b)) sum += s.t1 - s.t0;
    worst = std::max(worst, sum);
  }
  return worst;
}

}  // namespace

std::vector<ReplicaObs> Runner::run_replicas() {
  std::vector<ReplicaObs> out;
  Server server(options());
  casp::vmpi::RankPool& pool = server.pool();
  const int parent = tracer_.begin("replicas");
  for (const Plan& plan : w_.cycle) {
    if (plan.spec.op != JobOp::kSpGemm) continue;
    const JobSpec spec = instantiate(plan, "replica");
    const casp::CscMat& a = w_.inputs.at(plan.input).a;
    const int pid = tracer_.track(spec.job_id + " replica " + plan.label);
    std::vector<RankLog> logs(static_cast<std::size_t>(spec.ranks));
    // The grid/summa calls Server::run_body makes for an SpGEMM job, with a
    // span around each.
    auto body = [&](casp::vmpi::Comm& world) {
      RankLog& log = logs[static_cast<std::size_t>(world.rank())];
      casp::MemoryTracker tracker(
          spec.memory_bytes == 0
              ? 0
              : std::max<Bytes>(1, spec.memory_bytes /
                                       static_cast<Bytes>(world.size())));
      casp::SummaOptions opts = spec.summa_options();
      if (spec.memory_bytes != 0) opts.memory = &tracker;
      casp::ckpt::Checkpointer ck;
      if (!spec.ckpt_dir.empty()) {
        ck = casp::ckpt::Checkpointer(spec.ckpt_dir, world.rank(),
                                      spec.ckpt_every, &world.recorder());
        opts.ckpt = &ck;
      }
      casp::Grid3D grid(world, spec.layers);
      casp::DistMat3D da, db;
      {
        RankSpan s(log, "distribute_a_style", world.rank(), pid);
        da = casp::distribute_a_style(grid, a);
      }
      {
        RankSpan s(log, "distribute_b_style", world.rank(), pid);
        db = casp::distribute_b_style(grid, a);
      }
      casp::BatchedResult r;
      {
        RankSpan s(log, "batched_summa3d", world.rank(), pid);
        r = casp::batched_summa3d<casp::PlusTimes>(
            grid, da, db, spec.memory_bytes, opts, casp::BatchCallback{},
            /*keep_output=*/true);
      }
      const Bytes before = logical_sent(world);
      {
        RankSpan s(log, "gather_dist", world.rank(), pid);
        const casp::CscMat full = casp::gather_dist(grid, r.c);
      }
      log.gather_bytes = logical_sent(world) - before;
    };
    std::vector<int> members(static_cast<std::size_t>(spec.ranks));
    for (int r = 0; r < spec.ranks; ++r) members[static_cast<std::size_t>(r)] = r;
    const casp::vmpi::JobTicketPtr ticket =
        pool.start_job_on(members, body, spec.run_options());
    const casp::vmpi::RunResult res = pool.finish_job(ticket);
    ReplicaObs o;
    o.label = plan.label;
    o.wall = res.wall_seconds;
    o.distribute_s = max_span(logs, "distribute_a_style", "distribute_b_style");
    o.summa_s = max_span(logs, "batched_summa3d");
    o.gather_s = max_span(logs, "gather_dist");
    if (res.failed()) o.failure_kind = res.failure->kind;
    for (RankLog& log : logs) {
      o.gather_bytes += log.gather_bytes;
      for (Span& s : log.spans) {
        s.parent = parent;
        s.job = spec.job_id;
        tracer_.add(std::move(s));
      }
    }
    if (!spec.ckpt_dir.empty()) fs::remove_all(spec.ckpt_dir);
    out.push_back(std::move(o));
  }
  tracer_.end(parent);
  return out;
}

struct RssSampler::State {
  std::atomic<bool> stop{false};
  std::atomic<long> peak_pages{0};
  std::thread thread;
};

namespace {

long resident_pages() {
  std::ifstream statm("/proc/self/statm");
  long size = 0, resident = 0;
  statm >> size >> resident;
  return resident;
}

}  // namespace

RssSampler::RssSampler() : state_(std::make_unique<State>()) {
  State& s = *state_;
  s.peak_pages = resident_pages();
  s.thread = std::thread([&s] {
    while (!s.stop.load()) {
      const long now = resident_pages();
      long prev = s.peak_pages.load();
      while (now > prev && !s.peak_pages.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

RssSampler::~RssSampler() {
  state_->stop = true;
  state_->thread.join();
}

double RssSampler::peak_mb() const {
  const long pages = std::max(state_->peak_pages.load(), resident_pages());
  return static_cast<double>(pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

}  // namespace bench
