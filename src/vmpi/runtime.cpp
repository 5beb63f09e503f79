#include "vmpi/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "vmpi/job_exec.hpp"

namespace casp::vmpi {

TrafficSummary RunResult::traffic_summary() const {
  TrafficSummary summary;
  for (const TrafficStats& stats : traffic) {
    for (const auto& [phase, t] : stats.per_phase()) {
      summary.total_per_phase[phase] += t;
      PhaseTraffic& mx = summary.max_per_phase[phase];
      mx.messages = std::max(mx.messages, t.messages);
      mx.bytes = std::max(mx.bytes, t.bytes);
      mx.shipped = std::max(mx.shipped, t.shipped);
    }
  }
  return summary;
}

double RunResult::max_time(const std::string& name) const {
  double mx = 0.0;
  for (const TimeAccumulator& acc : times) mx = std::max(mx, acc.get(name));
  return mx;
}

std::vector<std::string> RunResult::time_names() const {
  std::set<std::string> names;
  for (const TimeAccumulator& acc : times)
    for (const auto& [name, seconds] : acc.all()) names.insert(name);
  return {names.begin(), names.end()};
}

std::string FailureReport::describe() const {
  std::ostringstream os;
  os << "job failed: " << kind;
  if (rank >= 0) os << " on rank " << rank;
  if (!phase.empty()) os << " during phase \"" << phase << "\"";
  os << " — " << what;
  return os.str();
}

namespace {

/// Map the first exception to the FailureReport taxonomy. Order matters:
/// the specific fault classes come before their std bases.
FailureReport classify_failure(const std::exception_ptr& error, int rank,
                               std::string phase) {
  FailureReport report;
  report.rank = rank;
  report.phase = std::move(phase);
  try {
    std::rethrow_exception(error);
  } catch (const InjectedRankCrash& e) {
    report.kind = "rank_crash";
    report.what = e.what();
  } catch (const PermanentRankCrash& e) {
    report.kind = "permanent_crash";
    report.what = e.what();
  } catch (const RetryExhausted& e) {
    report.kind = "retry_exhausted";
    report.what = e.what();
  } catch (const DeadlineExceeded& e) {
    report.kind = "deadline_exceeded";
    report.what = e.what();
  } catch (const DeadlockDetected& e) {
    report.kind = "deadlock";
    report.what = e.what();
  } catch (const CommunicatorOrderViolation& e) {
    report.kind = "communicator_order_violation";
    report.what = e.what();
  } catch (const CollectiveMismatch& e) {
    report.kind = "collective_mismatch";
    report.what = e.what();
  } catch (const MessageLeak& e) {
    report.kind = "message_leak";
    report.what = e.what();
#ifdef CASP_VMPI_SCHED
  } catch (const ScheduleViolation& e) {
    report.kind = "schedule_violation";
    report.what = e.what();
#endif
  } catch (const MemoryError& e) {
    report.kind = "memory_budget";
    report.what = e.what();
  } catch (const InputError& e) {
    report.kind = "input_error";
    report.what = e.what();
  } catch (const InvalidArgument& e) {
    report.kind = "invalid_argument";
    report.what = e.what();
  } catch (const std::exception& e) {
    report.kind = "exception";
    report.what = e.what();
  } catch (...) {
    report.kind = "exception";
    report.what = "unknown non-std exception";
  }
  return report;
}

/// The recoverable/non-recoverable verdict for every FailureReport kind the
/// runtime can emit — the supervisor's single source of truth. Recoverable
/// means a relaunch can plausibly survive: the fault was external to the
/// program logic and the disarmed plan removes it. Everything else recurs
/// identically on every attempt ("permanent_crash": the node stays dead on
/// this grid; "deadline_exceeded": the budget is already spent). The
/// failure-kind-classified lint rule checks that every kind string assigned
/// anywhere in src/ has an entry here.
struct KindClass {
  const char* kind;
  bool recoverable;
};
constexpr KindClass kKindTable[] = {
    {"rank_crash", true},
    {"retry_exhausted", true},
    {"deadlock", true},
    {"permanent_crash", false},
    {"deadline_exceeded", false},
    {"communicator_order_violation", false},
    {"collective_mismatch", false},
    {"message_leak", false},
    {"schedule_violation", false},
    {"memory_budget", false},
    {"input_error", false},
    {"invalid_argument", false},
    {"exception", false},
};

/// Watchdog sampling period. 0 disables the watchdog entirely; tests that
/// provoke deadlocks on purpose dial it down to fail fast.
int watchdog_interval_ms() {
  if (const char* s = std::getenv("CASP_VMPI_WATCHDOG_MS")) {
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    // Malformed or trailing-garbage values must not silently disable the
    // watchdog (atoi("abc") == 0 would): fall through to the default.
    if (end != s && *end == '\0' && v >= 0 && v <= 1000000) {
      return static_cast<int>(v);
    }
  }
  return 100;
}

/// Per-rank dump of who waits for whom (and, with the checker compiled in,
/// which collective each rank is inside plus its recent collective history).
std::string build_deadlock_report(detail::World& world, int size) {
  std::ostringstream os;
  os << "vmpi deadlock detected: every live rank is blocked and no queued "
        "message matches any pending receive\n";
  for (int r = 0; r < size; ++r) {
    detail::RankStatus& st = world.status[static_cast<std::size_t>(r)];
    std::lock_guard<std::mutex> lock(st.mutex);
    os << "  rank " << r << ": ";
    if (st.blocked) {
      os << "waiting for a message from rank " << st.wait_src_world
         << " (tag " << st.wait_tag << ", context 0x" << std::hex
         << st.wait_context << std::dec << ")";
#ifdef CASP_VMPI_CHECK
      if (st.current.op != CollectiveOp::kNone)
        os << " inside " << describe_stamp(st.current);
#endif
    } else {
      os << (st.finished ? "finished" : "running");
    }
#ifdef CASP_VMPI_CHECK
    if (st.history_count > 0) {
      os << "; recent collectives (newest first):";
      const std::uint64_t depth =
          std::min<std::uint64_t>(st.history_count, st.history.size());
      for (std::uint64_t i = 0; i < depth; ++i) {
        const std::uint64_t idx =
            (st.history_count - 1 - i) % st.history.size();
        os << (i == 0 ? " " : " <- ") << describe_stamp(st.history[idx]);
      }
    }
#endif
    os << "\n";
  }
  return os.str();
}

#ifdef CASP_VMPI_CHECK
/// True iff `ancestor` appears on `child`'s split-ancestry chain (the world
/// communicator is context 0 and the root of every chain).
bool context_is_ancestor(const std::map<std::uint64_t, std::uint64_t>& tree,
                         std::uint64_t ancestor, std::uint64_t child) {
  std::uint64_t cur = child;
  // The tree is at most as deep as the number of splits; bound the walk
  // anyway so a (theoretical) context-hash collision cannot loop.
  for (std::size_t hops = 0; hops <= tree.size(); ++hops) {
    const auto it = tree.find(cur);
    if (it == tree.end()) return false;
    cur = it->second;
    if (cur == ancestor) return true;
  }
  return false;
}

/// When a deadlock involves one rank blocked in a collective on a parent
/// communicator and another blocked in a collective on that communicator's
/// split descendant, the stall is a communicator-lifetime ordering bug —
/// name it precisely instead of handing back the generic deadlock dump.
/// Returns "" when the pattern does not apply.
std::string diagnose_comm_order(detail::World& world, int size) {
  struct Blocked {
    int rank;
    std::uint64_t context;
    CollectiveStamp stamp;
  };
  std::vector<Blocked> in_collective;
  for (int r = 0; r < size; ++r) {
    detail::RankStatus& st = world.status[static_cast<std::size_t>(r)];
    std::lock_guard<std::mutex> lock(st.mutex);
    if (!st.blocked || st.current.op == CollectiveOp::kNone) continue;
    in_collective.push_back({r, st.current_context, st.current});
  }
  std::lock_guard<std::mutex> lock(world.comm_tree_mutex);
  for (const Blocked& a : in_collective) {
    for (const Blocked& b : in_collective) {
      if (a.context == b.context) continue;
      if (!context_is_ancestor(world.comm_parent, a.context, b.context))
        continue;
      std::ostringstream os;
      os << "vmpi communicator-order violation: rank " << a.rank
         << " is blocked in " << describe_stamp(a.stamp)
         << " on communicator 0x" << std::hex << a.context << std::dec
         << " while rank " << b.rank << " is blocked in "
         << describe_stamp(b.stamp) << " on its split child 0x" << std::hex
         << b.context << std::dec
         << " — the ranks interleave parent and child collectives in "
            "divergent program orders";
      return os.str();
    }
  }
  return "";
}
#endif

}  // namespace

namespace detail {

JobExec::JobExec(int size, const RunOptions& options)
    : size_(size), deadline_ms_(options.deadline_ms) {
  CASP_CHECK_MSG(size >= 1, "virtual job needs at least one rank");
  world_ = std::make_shared<World>(size);
  const FaultPlan plan =
      options.faults.has_value() ? *options.faults : FaultPlan::from_env();
  if (plan.enabled())
    world_->faults = std::make_shared<FaultState>(plan, size);

#ifdef CASP_VMPI_SCHED
  const std::optional<SchedPlan> sched_plan =
      options.sched.has_value() ? options.sched : SchedPlan::from_env();
  if (sched_plan.has_value() && sched_plan->enabled()) {
    world_->sched = std::make_shared<SchedState>(*sched_plan, size);
    // Scheduler deadlock verdicts reuse the watchdog's per-rank formatter
    // (collective backtraces included) before appending their own
    // happens-before annotations and the replay line. The capture must be
    // weak: the builder lives inside the Scheduler, which lives inside the
    // World — a shared_ptr capture is a reference cycle and the World (rank
    // states, payload arenas) never frees.
    std::weak_ptr<World> world = world_;
    world_->sched->scheduler().set_report_builder([world, size]() {
      const std::shared_ptr<World> w = world.lock();
      return w ? build_deadlock_report(*w, size) : std::string();
    });
    // Under a schedule plan the wall-clock watchdog stays off (see
    // start_watchdog) and RunOptions::deadline_ms is enforced against the
    // scheduler's deterministic virtual clock instead, so deadline-expiry
    // interleavings are explorable and replay exactly.
    if (deadline_ms_ > 0)
      world_->sched->scheduler().arm_virtual_deadline(deadline_ms_ * 1000);
  }
#endif

  result_.size = size;
  result_.recorders.resize(static_cast<std::size_t>(size));
  result_.traffic.resize(static_cast<std::size_t>(size));
  result_.times.resize(static_cast<std::size_t>(size));
}

void JobExec::rank_main(int r, const std::function<void(Comm&)>& body) {
  Comm comm(world_, r, size_);
#ifdef CASP_VMPI_SCHED
  // Bind the thread-local rank id and wait for the scheduler token
  // before any hook can fire on this thread.
  if (world_->sched != nullptr) world_->sched->attach_thread(r);
#endif
  try {
    body(comm);
  } catch (const Aborted&) {
    // Secondary casualty of another rank's failure; the primary
    // exception is already recorded.
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!first_error_) {
        first_error_ = std::current_exception();
        // The failure report names the *first* casualty and the phase
        // its traffic ledger was in when it died.
        failed_rank_ = r;
        failed_phase_ = comm.traffic().phase();
      }
    }
    world_->abort_all();
  }
#ifdef CASP_VMPI_SCHED
  if (world_->sched != nullptr) world_->sched->detach_thread(r);
#endif
  world_->finished.fetch_add(1, std::memory_order_relaxed);
  {
    RankStatus& st = world_->status[static_cast<std::size_t>(r)];
    std::lock_guard<std::mutex> lock(st.mutex);
    st.finished = true;
  }
  result_.recorders[static_cast<std::size_t>(r)] = comm.recorder();
  result_.traffic[static_cast<std::size_t>(r)] = comm.traffic();
  result_.times[static_cast<std::size_t>(r)] = comm.times();
}

void JobExec::start_watchdog() {
  // Deadlock watchdog: a stalled virtual job has every live rank inside
  // Mailbox::pop with no deliverable message — once true it stays true, so
  // sampling is sound. Two consecutive quiet samples (no delivery between
  // them) plus an exact queue scan rule out the in-flight wakeup race.
  int interval_ms = watchdog_interval_ms();
  bool deadline_armed = deadline_ms_ > 0;
#ifdef CASP_VMPI_SCHED
  // A scheduled run detects deadlocks exactly (empty runnable set); the
  // sampling watchdog would misread token-parked threads as a stall, and
  // wall-clock deadlines are meaningless under a token-serialized schedule.
  if (world_->sched != nullptr) {
    interval_ms = 0;
    deadline_armed = false;
  }
#endif
  if (deadline_armed) {
    // Deadline enforcement rides the same sampler: keep at least ~4 samples
    // per deadline so overshoot stays a fraction of the budget, and arm the
    // thread even when the deadlock watchdog is disabled via env.
    const int cap = static_cast<int>(std::min<std::int64_t>(
        std::max<std::int64_t>(deadline_ms_ / 4, 1), 1000));
    interval_ms = interval_ms <= 0 ? cap : std::min(interval_ms, cap);
  }
  if (interval_ms <= 0) return;
  watchdog_ = std::thread([this, interval_ms, deadline_armed]() {
    std::uint64_t last_progress = ~std::uint64_t{0};
    int quiet_samples = 0;
    std::unique_lock<std::mutex> lk(wd_mutex_);
    while (!wd_stop_) {
      wd_cv_.wait_for(lk, std::chrono::milliseconds(interval_ms));
      if (wd_stop_) break;
      if (deadline_armed &&
          watch_.seconds() * 1000.0 > static_cast<double>(deadline_ms_)) {
        std::ostringstream os;
        os << "job deadline exceeded: ran " << watch_.seconds() * 1000.0
           << " ms against a " << deadline_ms_
           << " ms budget; cancelling all ranks";
        {
          std::lock_guard<std::mutex> lock(error_mutex_);
          if (!first_error_)
            first_error_ = std::make_exception_ptr(DeadlineExceeded(os.str()));
        }
        world_->abort_all();
        break;
      }
      const int blocked = world_->blocked.load(std::memory_order_relaxed);
      const int finished = world_->finished.load(std::memory_order_relaxed);
      const std::uint64_t progress =
          world_->progress.load(std::memory_order_relaxed);
      if (blocked == 0 || blocked + finished != size_ ||
          progress != last_progress) {
        last_progress = progress;
        quiet_samples = 0;
        continue;
      }
      bool live = false;  // a match exists or a rank moved under us
      for (int r = 0; r < size_ && !live; ++r) {
        RankStatus& st = world_->status[static_cast<std::size_t>(r)];
        std::lock_guard<std::mutex> slock(st.mutex);
        if (st.finished) continue;
        if (!st.blocked) {
          live = true;
          break;
        }
        live = world_->mailboxes[static_cast<std::size_t>(r)].has_match(
            st.wait_context, st.wait_src_world, st.wait_tag);
      }
      if (live) {
        quiet_samples = 0;
        continue;
      }
      if (++quiet_samples < 2) continue;
      const std::string report = build_deadlock_report(*world_, size_);
      std::exception_ptr diagnosis;
#ifdef CASP_VMPI_CHECK
      const std::string order = diagnose_comm_order(*world_, size_);
      if (!order.empty())
        diagnosis = std::make_exception_ptr(
            CommunicatorOrderViolation(order + "\n" + report));
#endif
      if (!diagnosis)
        diagnosis = std::make_exception_ptr(DeadlockDetected(report));
      {
        std::lock_guard<std::mutex> lock(error_mutex_);
        if (!first_error_) first_error_ = diagnosis;
      }
      world_->abort_all();
      break;
    }
  });
}

void JobExec::stop_watchdog() {
  if (!watchdog_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(wd_mutex_);
    wd_stop_ = true;
  }
  wd_cv_.notify_all();
  watchdog_.join();
}

RunResult JobExec::finalize(bool capture_failure) {
  result_.wall_seconds = watch_.seconds();

#ifdef CASP_VMPI_SCHED
  if (world_->sched != nullptr) {
    // All rank mains returned: stop reacting to stray hook events (e.g.
    // launcher-thread payload teardown) and collect the run's verdicts.
    world_->sched->deactivate();
    result_.sched = world_->sched->summary();
    // A virtual-deadline expiry is the primary verdict even when every rank
    // limped to a clean return after the abort (yield() goes free-running
    // instead of throwing — it sits on noexcept teardown paths). Synthesize
    // the failure before the findings check: findings from a truncated run
    // are secondary evidence.
    if (result_.sched->deadline_hit && !first_error_) {
      std::ostringstream os;
      os << "job deadline exceeded under the deterministic scheduler: "
         << result_.sched->virtual_us << " virtual us against a "
         << deadline_ms_ * 1000 << " us budget\n"
         << "  schedule: " << result_.sched->schedule << "\n"
         << "  replay: CASP_VMPI_SCHED=\"replay=" << result_.sched->schedule
         << "\"";
      first_error_ = std::make_exception_ptr(DeadlineExceeded(os.str()));
    }
    if (!result_.sched->findings.empty() && !first_error_) {
      std::ostringstream os;
      os << "casp-verify schedule violation: "
         << result_.sched->findings.size()
         << " happens-before finding(s):\n";
      for (const SchedFinding& f : result_.sched->findings)
        os << "  [" << f.kind << "] " << f.detail << "\n";
      os << "  schedule: " << result_.sched->schedule << "\n"
         << "  replay: CASP_VMPI_SCHED=\"replay=" << result_.sched->schedule
         << "\"";
      first_error_ = std::make_exception_ptr(ScheduleViolation(os.str()));
      failed_rank_ = result_.sched->findings.front().rank;
    }
  }
#endif

  if (first_error_) {
    if (capture_failure) {
      // The leftover-traffic sweeps below are skipped on purpose: an
      // aborted job legitimately strands queued messages.
      result_.failure =
          classify_failure(first_error_, failed_rank_, failed_phase_);
      return std::move(result_);
    }
    std::rethrow_exception(first_error_);
  }

#ifdef CASP_VMPI_CHECK
  // A clean job must leave no collective traffic behind: a stamped message
  // still queued means some rank sent inside a collective its peer never
  // entered (e.g. two ranks both believing they were the bcast root) —
  // silent divergence that produced no mismatch and no deadlock.
  std::ostringstream leak;
  bool leaked = false;
  for (int r = 0; r < size_; ++r) {
    for (const LeftoverCollective& l :
         world_->mailboxes[static_cast<std::size_t>(r)].stamped_leftovers()) {
      leak << "  rank " << r << " never received " << describe_stamp(l.stamp)
           << " sent by rank " << l.src_world << " (tag " << l.tag << ")\n";
      leaked = true;
    }
  }
  if (leaked)
    throw CollectiveMismatch(
        "vmpi collective traffic left unconsumed at job end — ranks "
        "disagree on a collective's shape:\n" +
        leak.str());

  // Same discipline for user-tag point-to-point traffic: a send whose
  // matching receive never ran is a latent protocol bug (wrong tag, wrong
  // destination, or a receive skipped on some branch). Senders that mean
  // it opt out per message with fire_and_forget.
  std::ostringstream tag_leak;
  bool tag_leaked = false;
  for (int r = 0; r < size_; ++r) {
    for (const LeftoverMessage& l :
         world_->mailboxes[static_cast<std::size_t>(r)].user_tag_leftovers()) {
      tag_leak << "  rank " << r << " never received tag " << l.tag << " ("
               << l.bytes << " bytes) sent by rank " << l.src_world << "\n";
      tag_leaked = true;
    }
  }
  if (tag_leaked)
    throw MessageLeak(
        "vmpi point-to-point messages left unconsumed at job end (send "
        "without a matching receive; mark intentional drops with "
        "fire_and_forget):\n" +
        tag_leak.str());
#endif
  return std::move(result_);
}

}  // namespace detail

RunResult run(int size, const std::function<void(Comm&)>& body,
              const RunOptions& options) {
  detail::JobExec job(size, options);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r)
    threads.emplace_back([&job, &body, r]() { job.rank_main(r, body); });
  job.start_watchdog();
  for (std::thread& t : threads) t.join();
  job.stop_watchdog();
  return job.finalize(options.capture_failure);
}

RunResult run(int size, const std::function<void(Comm&)>& body) {
  return run(size, body, RunOptions{});
}

bool recoverable_failure(const FailureReport& report) {
  for (const KindClass& k : kKindTable)
    if (report.kind == k.kind) return k.recoverable;
  return false;  // unknown kinds never auto-relaunch
}

SupervisionChain::SupervisionChain(SupervisorOptions options)
    : options_(std::move(options)),
      plan_(options_.faults.has_value() ? *options_.faults
                                        : FaultPlan::from_env()) {
  sup_.max_restarts = options_.max_restarts;
}

RunOptions SupervisionChain::attempt_options() const {
  RunOptions opts;
  opts.faults = plan_;
  opts.capture_failure = true;
  if (options_.deadline_ms > 0) {
    const auto elapsed =
        static_cast<std::int64_t>(clock_.seconds() * 1000.0);
    opts.deadline_ms =
        std::max<std::int64_t>(options_.deadline_ms - elapsed, 1);
  }
  return opts;
}

bool SupervisionChain::retry(RunResult& attempt) {
  if (!attempt.failed() || !recoverable_failure(*attempt.failure) ||
      sup_.restarts >= options_.max_restarts)
    return false;
  sup_.wasted_seconds += attempt.wall_seconds;
  // Disarm the fault that just fired so the deterministic plan does not
  // kill the relaunch at the same op, mirroring "replace the dead node,
  // keep the flaky network".
  plan_ = plan_.disarmed(attempt.failure->kind);
  sup_.recovered_failures.push_back(*std::move(attempt.failure));
  // Capped exponential backoff (mirrors the transport's retry ladder): a
  // crash-looping job must not hammer the pool back-to-back. The PLAN is
  // the ladder value this restart was asked to wait (reproducible schedule
  // evidence); the MEASURED sleep is timing evidence, never deterministic.
  std::int64_t plan_us = 0;
  if (options_.restart_backoff_base_us > 0) {
    plan_us = options_.restart_backoff_base_us;
    for (int i = 0;
         i < sup_.restarts && plan_us < options_.restart_backoff_cap_us; ++i)
      plan_us *= 2;
    plan_us = std::min(plan_us, options_.restart_backoff_cap_us);
  }
  std::int64_t measured_us = 0;
  if (plan_us > 0) {
    Stopwatch slept;
    std::this_thread::sleep_for(std::chrono::microseconds(plan_us));
    measured_us = static_cast<std::int64_t>(slept.seconds() * 1e6);
  }
  sup_.backoff_plan_us.push_back(plan_us);
  sup_.backoff_us.push_back(measured_us);
  ++sup_.restarts;
  return true;
}

SupervisedResult SupervisionChain::finish(RunResult final_attempt) {
  sup_.result = std::move(final_attempt);
  return std::move(sup_);
}

SupervisedResult run_supervised(int size,
                                const std::function<void(Comm&)>& body,
                                const SupervisorOptions& options) {
  SupervisionChain chain(options);
  RunResult attempt = run(size, body, chain.attempt_options());
  while (chain.retry(attempt))
    attempt = run(size, body, chain.attempt_options());
  return chain.finish(std::move(attempt));
}

SupervisedResult run_supervised(int size,
                                const std::function<void(Comm&)>& body) {
  return run_supervised(size, body, SupervisorOptions{});
}

}  // namespace casp::vmpi
