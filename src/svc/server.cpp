#include "svc/server.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <tuple>
#include <utility>

#include "apps/triangle.hpp"
#include "ckpt/checkpoint.hpp"
#include "common/error.hpp"
#include "grid/dist.hpp"
#include "grid/grid3d.hpp"
#include "kernels/semiring.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "summa/batched.hpp"
#include "summa/steps.hpp"
#include "svc/admission.hpp"
#include "vmpi/faults.hpp"

namespace casp::svc {

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kRejected:
      return "rejected";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kThrottled:
      return "throttled";
  }
  return "unknown";
}

namespace {

std::string throttle_reason(const TenantLedger& ledger) {
  std::ostringstream os;
  os << "svc: tenant \"" << ledger.name() << "\" traffic quota exhausted ("
     << ledger.traffic_billed() << " B logical billed >= quota "
     << ledger.quota().traffic_bytes << " B)";
  return os.str();
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(options),
      pool_(options.pool_ranks),
      busy_(static_cast<std::size_t>(options.pool_ranks), 0) {}

TenantLedger& Server::tenant(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    TenantQuota quota;
    auto qi = options_.quotas.find(name);
    if (qi != options_.quotas.end()) quota = qi->second;
    it = tenants_
             .emplace(std::piecewise_construct, std::forward_as_tuple(name),
                      std::forward_as_tuple(name, quota))
             .first;
  }
  return it->second;
}

obs::Json Server::tenant_report(const std::string& name) {
  return tenant(name).report();
}

obs::Json Server::job_reports_json(bool deterministic) const {
  obs::Json arr = obs::Json::array();
  for (const std::string& id : order_) {
    const obs::JobReport& rep = jobs_.at(id)->report;
    arr.push_back(deterministic ? rep.deterministic_json() : rep.to_json());
  }
  return arr;
}

std::string Server::submit(JobSpec spec) {
  spec.validate();
  if (spec.ranks > options_.pool_ranks) {
    std::ostringstream os;
    os << "svc: job wants " << spec.ranks << " ranks but the pool has "
       << options_.pool_ranks;
    throw InvalidArgument(os.str());
  }
  if (spec.job_id.empty())
    spec.job_id = "job-" + std::to_string(next_job_);
  ++next_job_;
  if (jobs_.count(spec.job_id) != 0)
    throw InvalidArgument("svc: duplicate job id \"" + spec.job_id + "\"");

  auto holder = std::make_unique<JobRecord>();
  JobRecord& rec = *holder;
  rec.spec = std::move(spec);
  rec.in_a = rec.spec.a.materialize();
  switch (rec.spec.op) {
    case JobOp::kSpGemm:
      if (rec.spec.aat)
        rec.in_b = rec.in_a.transpose();
      else if (rec.spec.b.empty())
        rec.in_b = rec.in_a;
      else
        rec.in_b = rec.spec.b.materialize();
      // Relabel the inner index once so every layer gets an equal share of
      // the multiply (DESIGN.md § 5m): admission, every attempt, restarts
      // and shrink/regrow re-admission all see these operands.
      std::tie(rec.in_a, rec.in_b) =
          balance_inner_layers(std::move(rec.in_a), std::move(rec.in_b),
                               rec.spec.ranks, rec.spec.layers);
      break;
    case JobOp::kMcl:
    case JobOp::kTriangleCount:
      if (rec.in_a.nrows() != rec.in_a.ncols())
        throw InvalidArgument(std::string("svc: ") + to_string(rec.spec.op) +
                              " requires a square input matrix");
      rec.in_b = rec.in_a;
      break;
  }

  const std::string id = rec.spec.job_id;
  jobs_.emplace(id, std::move(holder));
  order_.push_back(id);
  JobRecord& job = *jobs_.at(id);

  // Eq. (2) estimate on a fault-free scratch job (outside the pool).
  AdmissionEstimate est = estimate_admission(job.spec, job.in_a, job.in_b);
  job.admission = est.admission;
  if (!est.fits()) {
    finish(job, JobState::kRejected, est.reason);
    return id;
  }
  job.reserved_bytes = reservation_bytes(job.spec, job.admission);
  job.admission.reserved_bytes = job.reserved_bytes;

  TenantLedger& ledger = tenant(job.spec.tenant);
  if (!ledger.within_memory_quota(job.reserved_bytes)) {
    std::ostringstream os;
    os << "svc: reservation " << job.reserved_bytes
       << " B exceeds tenant \"" << job.spec.tenant << "\" memory quota "
       << ledger.quota().memory_bytes << " B";
    finish(job, JobState::kRejected, os.str());
    return id;
  }
  if (ledger.traffic_exhausted()) {
    finish(job, JobState::kThrottled, throttle_reason(ledger));
    return id;
  }
  // Take the reservation now when the quota allows; otherwise the job
  // queues unreserved and the scheduler retries as earlier jobs release.
  if (ledger.reserve(job.reserved_bytes)) job.holds_reservation = true;
  queue_.push(id, job.spec.priority, job.spec.deadline_ms);
  return id;
}

bool Server::cancel(const std::string& job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return false;
  if (!queue_.remove(job_id)) return false;  // running or already terminal
  finish(*it->second, JobState::kCancelled, "cancelled by client");
  return true;
}

const JobRecord& Server::wait(const std::string& job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end())
    throw InvalidArgument("svc: unknown job id \"" + job_id + "\"");
  run(1, it->second.get());
  return *it->second;
}

void Server::drain() { run(effective_concurrency(), nullptr); }

int Server::effective_concurrency() const {
  int k = std::max(1, options_.concurrency);
#ifdef CASP_VMPI_SCHED
  // One deterministic-scheduler state exists per process; concurrent jobs
  // would share (and corrupt) it. Serialize while a plan is active.
  if (vmpi::SchedPlan::from_env().has_value()) k = 1;
#endif
  return std::min(k, options_.pool_ranks);
}

const JobRecord* Server::find(const std::string& job_id) const {
  auto it = jobs_.find(job_id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

namespace {

/// Largest valid grid on at most `avail` ranks, preferring the requested
/// layer count, then the tallest stack that still divides. {0, 0} when not
/// even a 1x1x1 grid fits (avail < 1).
std::pair<int, int> best_shrink(int avail, int want_layers) {
  for (int p = avail; p >= 1; --p) {
    if (want_layers >= 1 && want_layers <= p &&
        Grid3D::valid_shape(p, want_layers))
      return {p, want_layers};
    for (int l = std::min(want_layers, p); l >= 1; --l)
      if (Grid3D::valid_shape(p, l)) return {p, l};
  }
  return {0, 0};
}

/// Fold one executed attempt's traffic into the job's cumulative bill (a
/// degraded job pays for the failed full-grid attempt too).
void fold_billing(obs::JobBilling& total, const obs::JobBilling& attempt) {
  total.messages += attempt.messages;
  total.logical_bytes += attempt.logical_bytes;
  total.shipped_bytes += attempt.shipped_bytes;
  total.restarts += attempt.restarts;
  for (const std::string& k : attempt.recovered_failure_kinds)
    total.recovered_failure_kinds.push_back(k);
}

}  // namespace

/// Per-job execution state. One Exec spans all rounds of one job: the grid
/// the next attempt runs on, the redistributed-resume cache, the cumulative
/// bill and recovery evidence, and — while a ticket is in flight — the
/// round's supervision chain, driven one attempt at a time so the launcher
/// never blocks on a whole chain.
struct Server::Exec {
  JobRecord* rec = nullptr;
  /// Grid the current round runs on; shrinks after a permanent loss,
  /// regrows after probationers are admitted.
  int run_ranks = 0;
  int run_layers = 0;
  /// Degraded/regrown resume state: the redistributed checkpoint cache
  /// (owned here, borrowed by the attempt through SummaOptions::resume).
  ckpt::ResumeCache cache;
  const ckpt::ResumeCache* resume = nullptr;
  /// Fault kinds that already fired a shrink are disarmed on relaunch — a
  /// permanent crash is one event, not a property of every future attempt.
  std::vector<std::string> disarm;
  obs::JobBilling bill;
  obs::RecoveryReport recovery;
  bool track_recovery = false;
  bool shrank = false;
  /// Probationers admitted at this job's pause boundaries, pending the
  /// regrow that folds them into recovery.rejoined_ranks.
  std::vector<int> rejoined;
  int round = 0;

  // In-flight attempt state (valid while ticket != nullptr).
  std::vector<int> members;  ///< pool ranks; members[i] backs job rank i
  vmpi::JobTicketPtr ticket;
  /// This round's supervision chain; empty for unsupervised specs.
  std::optional<vmpi::SupervisionChain> chain;
};

Server::RoundStart Server::begin_round(Exec& e) {
  JobRecord& rec = *e.rec;
  const JobSpec& spec = rec.spec;
  // Every shrink disarms "permanent_crash", so a second round cannot fire
  // it again, and every pause round either admits or strikes a probationer
  // (quarantine bounds the flapping case) — the cap is defense in depth.
  if (e.round >= 8) {
    rec.report.billing = e.bill;
    finish(rec, JobState::kFailed,
           "svc: elastic recovery did not converge within the round cap");
    return RoundStart::kTerminal;
  }
  ++e.round;

  // Schedulable ranks for THIS job: alive and not held by another job's
  // in-flight split (busy_ is launcher-side bookkeeping — see server.hpp).
  // Dead ranks stay resident (they are threads whose death is logical) but
  // are never scheduled onto again. At width 1 avail == alive.
  const std::vector<int> alive = pool_.alive_ranks();
  std::vector<int> avail;
  avail.reserve(alive.size());
  for (const int r : alive)
    if (busy_[static_cast<std::size_t>(r)] == 0) avail.push_back(r);

  if (static_cast<int>(alive.size()) < e.run_ranks) {
    if (!spec.elastic) {
      std::ostringstream os;
      os << "svc: job wants " << e.run_ranks << " ranks but only "
         << alive.size() << " of " << options_.pool_ranks
         << " pool ranks are alive and the job is not elastic";
      finish(rec, JobState::kFailed, os.str());
      return RoundStart::kTerminal;
    }
    if (avail.empty() && !alive.empty()) {
      // Survivors exist but every one of them is on a neighbour's split;
      // shrink once one frees (sizing from avail keeps splits disjoint).
      --e.round;
      return RoundStart::kNoCapacity;
    }
    const auto [p2, l2] =
        best_shrink(static_cast<int>(avail.size()), spec.layers);
    if (p2 == 0) {
      finish(rec, JobState::kFailed,
             "svc: no pool ranks left alive to run the job on");
      return RoundStart::kTerminal;
    }
    // Re-run Eq. (2) admission for the survivor grid: fewer ranks means
    // a smaller per-process share, and a budget that fit p ranks may not
    // fit p'.
    JobSpec shrunk = spec;
    shrunk.ranks = p2;
    shrunk.layers = l2;
    AdmissionEstimate est = estimate_admission(shrunk, rec.in_a, rec.in_b);
    if (!est.fits()) {
      std::ostringstream os;
      os << "svc: degraded grid " << p2 << " ranks x " << l2
         << " layers cannot hold the job under its declared budget: "
         << est.reason;
      finish(rec, JobState::kFailed, os.str());
      return RoundStart::kTerminal;
    }
    e.track_recovery = true;
    if (!e.shrank) {
      e.recovery.degraded_from_ranks = e.run_ranks;
      e.recovery.degraded_from_layers = e.run_layers;
    }
    e.shrank = true;
    e.recovery.degraded_to_ranks = p2;
    e.recovery.degraded_to_layers = l2;
    e.run_ranks = p2;
    e.run_layers = l2;
    // Redistribute the dead grid's checkpoints onto the survivor grid.
    // MCL resumes natively (its snapshot holds the re-replicated global
    // iterate under a grid-independent id); SpGEMM needs the pieces
    // re-sharded by global coordinates.
    if (spec.op == JobOp::kSpGemm && !spec.ckpt_dir.empty()) {
      e.cache = ckpt::redistribute_for_grid(
          spec.ckpt_dir,
          summa_ckpt_job_id(rec.in_a.nrows(), rec.in_a.ncols(),
                            rec.in_b.ncols(), rec.in_a.nnz(),
                            rec.in_b.nnz(), spec.ckpt_job_tag));
      e.resume = e.cache.empty() ? nullptr : &e.cache;
    }
  } else if (static_cast<int>(avail.size()) < e.run_ranks) {
    // Enough live capacity overall, just busy on other splits right now.
    --e.round;
    return RoundStart::kNoCapacity;
  } else if (options_.auto_rejoin && spec.elastic && e.shrank &&
             spec.op == JobOp::kSpGemm && !spec.ckpt_dir.empty()) {
    // Regrow, symmetric to the shrink above: the best grid on the ranks
    // this job may use (its own split plus idle spares, capped at the
    // spec's width). Admission must re-fit the larger shape; a refusal
    // keeps the degraded grid — never a failure.
    const auto [gp, gl] = best_shrink(
        std::min<int>(static_cast<int>(avail.size()), spec.ranks),
        spec.layers);
    if (gp > e.run_ranks) {
      JobSpec grown = spec;
      grown.ranks = gp;
      grown.layers = gl;
      AdmissionEstimate est = estimate_admission(grown, rec.in_a, rec.in_b);
      if (est.fits()) {
        e.track_recovery = true;
        e.recovery.regrown_from_ranks = e.run_ranks;
        e.recovery.regrown_from_layers = e.run_layers;
        e.recovery.regrown_to_ranks = gp;
        e.recovery.regrown_to_layers = gl;
        e.recovery.rejoined_ranks = e.rejoined;
        e.run_ranks = gp;
        e.run_layers = gl;
        // Re-shard the checkpoints for the larger shape. The epoch filter
        // in redistribute_for_grid keeps only the newest writer's grid, so
        // the mixed-shape directory (full-grid prefix + shrunk-grid
        // continuation) resumes exactly from the latest progress.
        e.cache = ckpt::redistribute_for_grid(
            spec.ckpt_dir,
            summa_ckpt_job_id(rec.in_a.nrows(), rec.in_a.ncols(),
                              rec.in_b.ncols(), rec.in_a.nnz(),
                              rec.in_b.nnz(), spec.ckpt_job_tag));
        e.resume = e.cache.empty() ? nullptr : &e.cache;
      }
    }
  }

  e.members.assign(avail.begin(),
                   avail.begin() + static_cast<std::ptrdiff_t>(e.run_ranks));

  // Arm the cooperative pause when there is a membership change to absorb:
  // a shrunk elastic SpGEMM job with probationers waiting parks after one
  // fresh batch so admit_probationers can run and the next round can
  // regrow. Bounded: each pause is followed by exactly one handshake per
  // probationer, which admits or strikes (quarantine at max_failures).
  rec.attempt_pause = 0;
  rec.attempt_paused = false;
  if (options_.auto_rejoin && spec.elastic && e.shrank &&
      spec.op == JobOp::kSpGemm && !spec.ckpt_dir.empty() &&
      !pool_.probation_ranks().empty())
    rec.attempt_pause = 1;

  // A fresh supervision chain per round; emplace drops the spent one.
  if (spec.supervised()) {
    vmpi::SupervisorOptions sopts = spec.supervisor_options();
    for (const std::string& kind : e.disarm)
      if (sopts.faults.has_value())
        sopts.faults = sopts.faults->disarmed(kind);
    e.chain.emplace(std::move(sopts));
  }
  start_attempt(e);
  return RoundStart::kStarted;
}

void Server::start_attempt(Exec& e) {
  JobRecord& rec = *e.rec;
  const int layers = e.run_layers;
  const ckpt::ResumeCache* attempt_resume = e.resume;
  // The job world is exactly members.size() ranks wide (members[i] backs
  // world rank i), so the body needs no split dance and fault plans key by
  // job-world rank — identical whichever pool split hosts the attempt.
  auto body = [this, &rec, layers, attempt_resume](vmpi::Comm& world) {
    run_body(rec, world, layers, attempt_resume);
  };
  vmpi::RunOptions ropts;
  if (e.chain.has_value()) {
    ropts = e.chain->attempt_options();
  } else {
    ropts = rec.spec.run_options();
    for (const std::string& kind : e.disarm)
      if (ropts.faults.has_value())
        ropts.faults = ropts.faults->disarmed(kind);
  }
  e.ticket = pool_.start_job_on(e.members, body, ropts);
  for (const int r : e.members) busy_[static_cast<std::size_t>(r)] = 1;
}

void Server::complete_attempt(Exec& e) {
  JobRecord& rec = *e.rec;
  const JobSpec& spec = rec.spec;
  TenantLedger& ledger = tenant(spec.tenant);
  vmpi::RunResult res = pool_.finish_job(e.ticket);
  e.ticket = nullptr;
  for (const int r : e.members) busy_[static_cast<std::size_t>(r)] = 0;

  if (e.chain.has_value()) {
    if (e.chain->retry(res)) {
      start_attempt(e);  // same members; the chain slept its backoff
      return;
    }
    // Chain over: fold its accounting into the job.
    vmpi::SupervisedResult sup = e.chain->finish(std::move(res));
    e.track_recovery = true;
    e.recovery.restarts += sup.restarts;
    e.recovery.max_restarts = sup.max_restarts;
    e.recovery.wasted_seconds += sup.wasted_seconds;
    for (const vmpi::FailureReport& f : sup.recovered_failures)
      e.recovery.failure_kinds.push_back(f.kind);
    for (const std::int64_t us : sup.backoff_us)
      e.recovery.backoff_us.push_back(us);
    for (const std::int64_t us : sup.backoff_plan_us)
      e.recovery.backoff_plan_us.push_back(us);
    obs::JobBilling abill = obs::bill_traffic(sup.result);
    abill.restarts = sup.restarts;
    for (const vmpi::FailureReport& f : sup.recovered_failures)
      abill.recovered_failure_kinds.push_back(f.kind);
    ledger.bill(abill, sup.result);
    fold_billing(e.bill, abill);
    rec.report.run = obs::build_report(sup);
    res = std::move(sup.result);
  } else {
    obs::JobBilling abill = obs::bill_traffic(res);
    ledger.bill(abill, res);
    fold_billing(e.bill, abill);
    rec.report.run = obs::build_report(res);
  }

  if (!res.failed()) {
    // A clean run vouches for every rank that took part: watchdog
    // suspicion (no-culprit deadlock verdicts) does not outlive it.
    pool_.clear_suspects();
    if (rec.attempt_paused) {
      // Parked at a batch boundary for a membership change: handshake the
      // probationers now, then take the regrow decision at the top of the
      // next round. The forced checkpoint carries the emitted prefix.
      const std::vector<int> admitted =
          pool_.admit_probationers(options_.membership);
      e.rejoined.insert(e.rejoined.end(), admitted.begin(), admitted.end());
      begin_round(e);
      return;
    }
    // A job boundary is a membership absorb point too: when the attempt ran
    // to completion without hitting a pause boundary (e.g. its resume cache
    // already covered every batch), waiting probationers still get their
    // handshake here, so a flapper keeps accruing strikes toward quarantine
    // and a healthy replacement is whole again for the next job.
    if (options_.auto_rejoin) pool_.admit_probationers(options_.membership);
    if (e.track_recovery) {
      if (!rec.report.run->recovery.has_value())
        rec.report.run->recovery = e.recovery;
      else {
        // Keep the final attempt's resumed_generation; everything else
        // aggregates over the whole chain (including prior grids).
        e.recovery.resumed_generation =
            rec.report.run->recovery->resumed_generation;
        rec.report.run->recovery = e.recovery;
      }
    }
    rec.report.billing = e.bill;
    rec.run_result = std::move(res);
    finish(rec, JobState::kDone, "");
    return;
  }

  const std::string kind = res.failure->kind;
  if (kind == "permanent_crash") {
    // The culprit rank is a JOB-world rank (fault plans arm on the job
    // world); map it through members to the pool rank that hosted it.
    const int jr = res.failure->rank;
    const int culprit =
        jr >= 0 && jr < static_cast<int>(e.members.size())
            ? e.members[static_cast<std::size_t>(jr)]
            : jr;
    pool_.mark_dead(culprit);
    e.recovery.dead_ranks.push_back(culprit);
    e.track_recovery = true;
    // Self-healing: the dead rank's replacement immediately asks back in
    // (kDead -> kProbation); it earns kAlive at a pause boundary.
    if (options_.auto_rejoin) pool_.request_rejoin(culprit);
  } else if (kind == "deadlock" && res.failure->rank < 0) {
    // A watchdog verdict without a culprit taints every participant.
    for (const int r : e.members) pool_.mark_suspect(r);
  }
  const bool retryable =
      spec.elastic && kind == "permanent_crash" && pool_.alive_count() >= 1;
  if (!retryable) {
    if (e.track_recovery) {
      if (rec.report.run->recovery.has_value())
        e.recovery.resumed_generation =
            rec.report.run->recovery->resumed_generation;
      rec.report.run->recovery = e.recovery;
    }
    rec.report.billing = e.bill;
    const std::string why = res.failure->describe();
    rec.run_result = std::move(res);
    finish(rec, JobState::kFailed, why);
    return;
  }
  e.recovery.failure_kinds.push_back(kind);
  e.disarm.push_back(kind);
  // Next round: if enough of this job's ranks remain, it re-runs at full
  // width (same-grid checkpoints resume natively — snapshot ranks are
  // job-world ranks). Only when the survivors cannot fill the requested
  // width does the round-top shrink path re-run admission and
  // redistribute the checkpoints.
  begin_round(e);
}

void Server::run(int width, const JobRecord* until) {
  // Up to `width` jobs in flight on disjoint splits. Dispatch order is the
  // queue's EDF-over-priority order; collection is oldest-dispatch-first.
  // Both depend only on launcher-visible state, so the loop schedules
  // identically on every run of the same submission sequence. At width 1
  // each dispatched job runs to a terminal state before the next pops.
  std::vector<std::unique_ptr<Exec>> active;  ///< ticket in flight
  std::vector<std::unique_ptr<Exec>> parked;  ///< waiting for a free split
  for (;;) {
    if (until != nullptr && until->terminal() && active.empty() &&
        parked.empty())
      return;
    bool progressed = false;
    // Refill: parked execs first (oldest first), then the queue.
    for (std::size_t i = 0;
         i < parked.size() && static_cast<int>(active.size()) < width;) {
      const RoundStart s = begin_round(*parked[i]);
      if (s == RoundStart::kNoCapacity) {
        ++i;
        continue;
      }
      if (s == RoundStart::kStarted) active.push_back(std::move(parked[i]));
      parked.erase(parked.begin() + static_cast<std::ptrdiff_t>(i));
      progressed = true;
    }
    std::vector<std::string> deferred;
    while (static_cast<int>(active.size()) < width && !queue_.empty()) {
      const std::string id = queue_.pop();
      JobRecord& rec = *jobs_.at(id);
      TenantLedger& ledger = tenant(rec.spec.tenant);
      if (ledger.traffic_exhausted()) {
        finish(rec, JobState::kThrottled, throttle_reason(ledger));
        progressed = true;
        continue;
      }
      if (!rec.holds_reservation) {
        if (ledger.reserve(rec.reserved_bytes)) {
          rec.holds_reservation = true;
        } else {
          deferred.push_back(id);
          continue;
        }
      }
      rec.state = JobState::kRunning;
      auto e = std::make_unique<Exec>();
      e->rec = &rec;
      e->run_ranks = rec.spec.ranks;
      e->run_layers = rec.spec.layers;
      const RoundStart s = begin_round(*e);
      if (s == RoundStart::kStarted) {
        active.push_back(std::move(e));
        progressed = true;
      } else if (s == RoundStart::kNoCapacity) {
        parked.push_back(std::move(e));
      } else {
        progressed = true;  // terminal at the round top
      }
    }
    for (const std::string& id : deferred)
      queue_.push(id, jobs_.at(id)->spec.priority,
                  jobs_.at(id)->spec.deadline_ms);

    if (!active.empty()) {
      // Collect the oldest dispatch. Its chain restarts / pause-regrow
      // rounds re-ticket inside complete_attempt; a kNoCapacity round
      // parks it until a neighbour's split frees.
      complete_attempt(*active.front());
      Exec& front = *active.front();
      if (front.rec->terminal()) {
        active.erase(active.begin());
      } else if (front.ticket == nullptr) {
        parked.push_back(std::move(active.front()));
        active.erase(active.begin());
      }
      continue;
    }

    if (!parked.empty()) {
      // Defensive: with every slot idle a parked job must either start or
      // reach a terminal state at begin_round, so this is unreachable —
      // fail loudly rather than spin.
      for (auto& pe : parked)
        finish(*pe->rec, JobState::kFailed,
               "svc: no pool ranks left alive to run the job on");
      parked.clear();
      progressed = true;
    }
    if (queue_.empty()) return;
    if (!progressed) {
      // Every queued job is reservation-blocked and nothing is running:
      // every reservation is held by a queued job, so these can never be
      // satisfied.
      while (!queue_.empty()) {
        const std::string id = queue_.pop();
        finish(*jobs_.at(id), JobState::kRejected,
               "svc: reservation cannot be satisfied under the tenant's "
               "memory quota");
      }
      return;
    }
  }
}

void Server::run_body(JobRecord& rec, vmpi::Comm& world, int layers,
                      const ckpt::ResumeCache* resume) {
  const JobSpec& spec = rec.spec;
  // Enforce each rank's share of the declared aggregate budget, exactly
  // like the standalone CLIs (Symbolic3D only estimates; adaptive
  // re-batching recovers when the estimate is wrong).
  MemoryTracker tracker(
      spec.memory_bytes == 0
          ? 0
          : std::max<Bytes>(1, spec.memory_bytes /
                                   static_cast<Bytes>(world.size())));
  vmpi::arm_alloc_faults(world, tracker);
  SummaOptions opts = spec.summa_options();
  if (spec.memory_bytes != 0) opts.memory = &tracker;
  ckpt::Checkpointer ck;
  if (!spec.ckpt_dir.empty()) {
    ck = ckpt::Checkpointer(spec.ckpt_dir, world.rank(), spec.ckpt_every,
                            &world.recorder());
    opts.ckpt = &ck;
  }
  Grid3D grid(world, layers);
  switch (spec.op) {
    case JobOp::kSpGemm: {
      opts.resume = resume;
      opts.pause_after_batches = rec.attempt_pause;
      const DistMat3D da = distribute_a_style(grid, rec.in_a);
      const DistMat3D db = distribute_b_style(grid, rec.in_b);
      BatchedResult r = batched_summa3d<PlusTimes>(
          grid, da, db, spec.memory_bytes, opts, BatchCallback{},
          /*keep_output=*/true);
      if (r.paused) {
        // Parked at a batch boundary (r.paused is SPMD-consistent, so
        // every rank skips the gather together); the forced checkpoint
        // carries the emitted prefix to the resumed attempt.
        if (world.rank() == 0) rec.attempt_paused = true;
        break;
      }
      CscMat full;
      {
        obs::PhaseSpan span(world.recorder(), steps::kResultGather);
        full = gather_dist_root(grid, std::move(r.c));
      }
      if (world.rank() == 0) {
        rec.c = std::move(full);
        rec.batches = r.batches;
        rec.final_batches = r.final_batches;
      }
      break;
    }
    case JobOp::kMcl: {
      MclResult r = mcl_cluster_distributed(grid, rec.in_a, spec.mcl,
                                            spec.memory_bytes, opts);
      if (world.rank() == 0) rec.mcl = std::move(r);
      break;
    }
    case JobOp::kTriangleCount: {
      const Index t = count_triangles_distributed(grid, rec.in_a,
                                                  spec.memory_bytes, opts);
      if (world.rank() == 0) rec.triangles = t;
      break;
    }
  }
}

void Server::finish(JobRecord& rec, JobState state, std::string reason) {
  release_reservation(rec);
  rec.state = state;
  rec.reason = reason;
  obs::JobReport& rep = rec.report;
  rep.job_id = rec.spec.job_id;
  rep.tenant = rec.spec.tenant;
  rep.op = to_string(rec.spec.op);
  rep.priority = rec.spec.priority;
  rep.state = to_string(state);
  rep.reason = std::move(reason);
  rep.admission = rec.admission;
  tenant(rec.spec.tenant).count_job(rep.state);
}

void Server::release_reservation(JobRecord& rec) {
  if (!rec.holds_reservation) return;
  tenant(rec.spec.tenant).release(rec.reserved_bytes);
  rec.holds_reservation = false;
}

}  // namespace casp::svc
