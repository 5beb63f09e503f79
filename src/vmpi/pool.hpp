// Resident rank pool: runs a sequence of virtual jobs on one long-lived
// gang of rank threads instead of paying thread setup/teardown per
// vmpi::run. The service layer (src/svc) keeps one pool alive across a
// whole multi-tenant job queue.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "vmpi/runtime.hpp"

namespace casp::vmpi {

namespace detail {
class JobExec;
}

/// Health of one pool rank, as believed by the service layer. The pool
/// itself keeps running every thread (a "dead" rank is a *modeled* dead
/// node); the map exists so schedulers can stop placing work on ranks whose
/// jobs reported a permanent crash and shrink the grid instead (DESIGN.md
/// §5j). `kSuspect` marks ranks implicated in watchdog verdicts (deadlock /
/// deadline) that have no proven culprit; a clean finished job clears them.
///
/// The membership lifecycle (DESIGN.md §5k) adds two states beyond the
/// schedulable pair: `kProbation` is a dead rank whose replacement asked to
/// re-join but has not yet passed the seeded handshake; `kQuarantined` is a
/// flapping rank that failed probation MembershipOptions::max_failures
/// times and is permanently barred from re-joining. Legal edges are
/// enforced by RankPool::transition — the single place a RankHealth state
/// is ever assigned (casp_lint: health-transition-classified):
///
///   kAlive    -> kSuspect (watchdog verdict)  | kDead (permanent crash)
///   kSuspect  -> kAlive   (clean job)         | kDead (permanent crash)
///   kDead     -> kProbation (request_rejoin)
///   kProbation-> kAlive (handshake passed)    | kProbation (failed, retry)
///              | kQuarantined (failed max_failures times) | kDead (crash)
///   kQuarantined -> (terminal)
enum class RankHealth { kAlive, kSuspect, kDead, kProbation, kQuarantined };

const char* to_string(RankHealth health);

/// Knobs for the probation handshake run by admit_probationers(). The
/// handshake is a deterministic 2-rank job between the lowest free alive
/// rank (verifier) and the candidate: the candidate regenerates a
/// splitmix64-seeded payload from (handshake_seed, rank, attempt) and
/// echoes it with its FNV-1a64 checksum; the verifier independently
/// regenerates the stream and compares both. Any mismatch fails probation.
struct MembershipOptions {
  /// Base seed mixed with (rank, attempt) into the payload stream.
  std::uint64_t handshake_seed = 0x9e3779b97f4a7c15ULL;
  /// Payload length in 64-bit words.
  int handshake_words = 64;
  /// Cumulative probation failures before a rank is quarantined for good.
  int max_failures = 3;
  /// Test/chaos hook: when set and returning true for (rank, attempt), the
  /// candidate's echoed payload is corrupted by one bit — the deterministic
  /// model of a flapping replacement node that fails its integrity check.
  std::function<bool(int rank, int attempt)> corrupt;
};

/// Handle to one in-flight asynchronous pool job (see start_job_on). The
/// launcher keeps the shared_ptr alive until finish_job returns.
struct JobTicket {
  /// Pool ranks hosting the job, in ascending order; members[i] backs the
  /// job-world rank i, so a sub-sized job sees a dense [0, members.size())
  /// world regardless of which pool ranks it landed on.
  std::vector<int> members;

  // -- internal (owned by RankPool) ---------------------------------------
  std::shared_ptr<detail::JobExec> job;
  std::function<void(Comm&)> body;
  bool capture_failure = false;
  int ranks_done = 0;  ///< guarded by the pool's dispatch mutex
};
using JobTicketPtr = std::shared_ptr<JobTicket>;

/// A gang of `size` resident worker threads, one per rank. Each job builds
/// a fresh detail::World (mailboxes, fault state, sched state are per job —
/// a crashed job legitimately strands messages, and nothing of it may leak
/// into the next tenant's job), dispatches the body to the resident
/// threads, and finalizes exactly like vmpi::run: same watchdog, same
/// failure classification, same CASP_VMPI_CHECK leak sweeps. Results are
/// bit-identical to a standalone vmpi::run of the same body.
///
/// Dispatch is per-rank slotted: start_job_on(members, ...) launches a job
/// on an explicit subset of pool ranks and returns immediately, so jobs on
/// DISJOINT member sets run concurrently (the svc scheduler's split
/// dispatch). A rank hosts at most one job at a time; start_job_on on a
/// busy rank throws. All launcher-side calls (start_job_on, finish_job,
/// run_job, admit_probationers) must come from one launcher thread.
class RankPool {
 public:
  explicit RankPool(int size);
  ~RankPool();

  RankPool(const RankPool&) = delete;
  RankPool& operator=(const RankPool&) = delete;

  int size() const { return size_; }
  /// Jobs dispatched so far (supervised restarts count per attempt).
  std::uint64_t jobs_run() const { return jobs_run_; }

  /// Run one virtual job on ALL resident ranks. Semantics match
  /// vmpi::run(size(), body, options) exactly, including capture_failure
  /// and rethrow behaviour.
  RunResult run_job(const std::function<void(Comm&)>& body,
                    const RunOptions& options = {});

  /// Launch a job asynchronously on the given pool ranks (ascending,
  /// currently idle). The job world has exactly members.size() ranks;
  /// members[i] backs world rank i. Returns after dispatch — the job runs
  /// while the launcher does other work (e.g. launches a second job on a
  /// disjoint member set). Pass the ticket to finish_job to collect it.
  JobTicketPtr start_job_on(const std::vector<int>& members,
                            std::function<void(Comm&)> body,
                            const RunOptions& options = {});

  /// Block until the ticket's job finished on every member rank, then
  /// finalize it (classification / rethrow / leak sweeps) exactly like
  /// run_job. Must be called exactly once per ticket.
  RunResult finish_job(const JobTicketPtr& ticket);

  /// Pool ranks whose slot is currently idle (no in-flight job), ascending.
  std::vector<int> idle_ranks() const;

  // -- Health map ----------------------------------------------------------
  // Maintained by the service layer from per-job FailureReports: a
  // "permanent_crash" marks its rank dead; watchdog verdicts without a
  // culprit mark every participating rank suspect until a clean job clears
  // them. All calls are thread-safe and rank-bounds-checked (out-of-range
  // ranks are ignored — failure reports use -1 for job-level verdicts).

  RankHealth health(int rank) const;
  void mark_dead(int rank);
  void mark_suspect(int rank);
  /// Demote every kSuspect rank back to kAlive (dead stays dead).
  void clear_suspects();
  /// World ranks currently kAlive or kSuspect (suspects are still
  /// schedulable — dead, probationary and quarantined ranks are excluded),
  /// ascending.
  std::vector<int> alive_ranks() const;
  int alive_count() const;

  // -- Membership lifecycle (DESIGN.md §5k) --------------------------------

  /// Ask to re-admit a dead rank's replacement: kDead -> kProbation. The
  /// rank stays unschedulable until admit_probationers passes it. Returns
  /// false (and does nothing) unless the rank is currently kDead — in
  /// particular a quarantined rank can never re-enter probation.
  bool request_rejoin(int rank);
  /// Ranks currently in probation, ascending.
  std::vector<int> probation_ranks() const;
  /// Ranks quarantined for good, ascending.
  std::vector<int> quarantined_ranks() const;
  /// Cumulative probation handshake failures for one rank.
  int probation_failures(int rank) const;

  /// Run the probation handshake for every kProbation rank (ascending) that
  /// can be paired with a free alive verifier. Passing candidates become
  /// kAlive; failing ones stay kProbation until their cumulative failure
  /// count reaches options.max_failures, which quarantines them. Returns
  /// the ranks admitted this call. Launcher thread only.
  std::vector<int> admit_probationers(const MembershipOptions& options = {});

 private:
  void worker_main(int rank);
  /// The ONLY RankHealth write site: validates the membership edge (see the
  /// RankHealth comment) and applies it. Caller holds health_mutex_.
  /// Returns false and leaves the state untouched on an illegal edge.
  bool transition(int rank, RankHealth next);

  /// One rank's dispatch slot: the in-flight ticket (null = idle) and the
  /// job-world rank this pool rank backs.
  struct Slot {
    JobTicketPtr ticket;
    int local_rank = -1;
  };

  int size_;
  std::uint64_t jobs_run_ = 0;

  mutable std::mutex health_mutex_;
  std::vector<RankHealth> health_;
  std::vector<int> probation_failures_;

  mutable std::mutex mutex_;
  std::condition_variable dispatch_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  std::vector<Slot> slots_;

  std::vector<std::thread> workers_;
};

}  // namespace casp::vmpi
