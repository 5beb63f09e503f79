// Deterministic fault injection for the virtual MPI runtime.
//
// The paper's algorithms are designed for machines where memory budgets,
// transport hiccups and node failures are facts of life; a reproduction
// that only ever runs on the happy path cannot claim to model them. This
// header defines a seeded FaultPlan that the runtime consults at every
// transport operation: per-rank delays, transient payload send/bcast
// failures (TransientCommError, retried by the transport with bounded
// exponential backoff), a rank crash at its Nth vmpi op, and allocation
// failures hooked through MemoryTracker. Every decision is a pure hash of
// (seed, rank, op index, attempt), so a failing run replays exactly from
// its seed regardless of thread scheduling — the property the fault-matrix
// tests and `tools/check.sh` stage (f) rely on.
//
// Plans come from the programmatic API (vmpi::RunOptions::faults) or the
// CASP_VMPI_FAULTS environment spec, a semicolon/comma-separated key=value
// list, e.g.
//   CASP_VMPI_FAULTS="seed=42;send_fail=0.01;crash_rank=3;crash_op=120"
// Keys: seed, send_fail, alloc_fail, corrupt_prob, delay_us, delay_every,
// delay_rank, crash_rank, crash_op, perm_crash_rank, perm_crash_op,
// retry_max, retry_base_us, retry_cap_us.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/memory_tracker.hpp"
#include "common/types.hpp"
#include "obs/recorder.hpp"

namespace casp::vmpi {

/// A send attempt failed in a way the transport is expected to retry
/// (lossy link, timed-out handshake). Injected by FaultPlan; handled inside
/// Comm::post_message, never silently swallowed (casp_lint: empty-catch).
class TransientCommError : public std::runtime_error {
 public:
  explicit TransientCommError(const std::string& what)
      : std::runtime_error(what) {}
};

/// A rank was killed by the fault plan at its Nth vmpi operation. Escapes
/// the rank body and tears the job down like any rank exception; vmpi::run
/// classifies it as "rank_crash" in the FailureReport.
class InjectedRankCrash : public std::runtime_error {
 public:
  explicit InjectedRankCrash(const std::string& what)
      : std::runtime_error(what) {}
};

/// The transport gave up on a send after RetryPolicy::max_attempts
/// consecutive transient failures. Unrecoverable; classified as
/// "retry_exhausted".
class RetryExhausted : public std::runtime_error {
 public:
  explicit RetryExhausted(const std::string& what)
      : std::runtime_error(what) {}
};

/// A rank died for good: unlike InjectedRankCrash, the failure persists
/// across supervisor relaunches — the node is gone, not rebooting. vmpi::run
/// classifies it as "permanent_crash" (non-recoverable on the same grid);
/// the service layer marks the rank dead in the RankPool health map and may
/// re-admit the job on a shrunk survivor grid (DESIGN.md §5j).
class PermanentRankCrash : public std::runtime_error {
 public:
  explicit PermanentRankCrash(const std::string& what)
      : std::runtime_error(what) {}
};

/// How the transport retries transient send failures: up to max_attempts
/// tries per message, sleeping min(base_delay_us << attempt, cap_delay_us)
/// between them. Every attempt retransmits, so every attempt is charged to
/// TrafficStats — Table II accounting stays honest under faults.
struct RetryPolicy {
  int max_attempts = 4;
  int base_delay_us = 50;
  int cap_delay_us = 2000;

  /// Backoff before attempt `attempt`+1 (exponential, capped).
  int backoff_us(int attempt) const;
};

/// Seeded, reproducible fault schedule for one virtual job. All decision
/// functions are pure hashes of (seed, rank, per-rank op/alloc index,
/// attempt): two runs with the same plan inject exactly the same faults at
/// the same logical operations, independent of thread interleaving.
struct FaultPlan {
  std::uint64_t seed = 0;
  /// Probability any single send attempt (point-to-point or a collective's
  /// tree hop) fails with TransientCommError.
  double send_fail = 0.0;
  /// Probability any single MemoryTracker allocation fails (requires
  /// arm_alloc_faults on the tracker).
  double alloc_fail = 0.0;
  /// Every delay_every-th vmpi op on delay_rank (-1 = every rank) sleeps
  /// delay_us microseconds. 0 for either disables delays.
  int delay_us = 0;
  int delay_every = 0;
  int delay_rank = -1;
  /// crash_rank throws InjectedRankCrash at its crash_op-th vmpi op
  /// (1-based). crash_rank == -1 disables crashes.
  int crash_rank = -1;
  std::uint64_t crash_op = 1;
  /// perm_crash_rank throws PermanentRankCrash at its perm_crash_op-th vmpi
  /// op: the rank is dead for good and a same-grid relaunch cannot help.
  /// perm_crash_rank == -1 disables permanent crashes.
  int perm_crash_rank = -1;
  std::uint64_t perm_crash_op = 1;
  /// Probability any single send attempt delivers a corrupted payload
  /// (seeded byte flip). With a fault state armed the transport checksums
  /// every message, detects the flip at the link, and retries it as a
  /// TransientCommError (counter vmpi.checksum_rejects) — silent corruption
  /// must never become wrong C.
  double corrupt_prob = 0.0;
  RetryPolicy retry;

  /// True iff any injection is configured (a disabled plan costs the
  /// transport one null check per op).
  bool enabled() const;

  /// Parse the CASP_VMPI_FAULTS environment spec; disabled plan when the
  /// variable is unset or empty. Throws InvalidArgument on a bad spec.
  static FaultPlan from_env();
  /// Parse a spec string (see header comment for the grammar). Strict:
  /// unknown, duplicate, or malformed keys and out-of-range values throw
  /// InvalidArgument naming the offending key — a typoed spec must never
  /// silently run fault-free.
  static FaultPlan parse(const std::string& spec);
  /// Copy of this plan with the fault behind an already-fired failure
  /// removed: "rank_crash"/"deadlock" clear crash_rank, "retry_exhausted"
  /// clears send_fail, "permanent_crash" clears perm_crash_rank (applied by
  /// the *service* when relaunching on a shrunk grid — the dead rank is no
  /// longer part of the job). vmpi::SupervisionChain::retry applies
  /// this between attempts so the same deterministic fault does not kill
  /// every relaunch.
  FaultPlan disarmed(const std::string& failure_kind) const;
  /// Canonical spec string (round-trips through parse); used in failure
  /// reports so a crash names the plan that produced it.
  std::string describe() const;

  // -- Pure per-(rank, op) decisions ---------------------------------------
  bool send_attempt_fails(int rank, std::uint64_t op, int attempt) const;
  bool send_attempt_corrupts(int rank, std::uint64_t op, int attempt) const;
  bool alloc_fails(int rank, std::uint64_t alloc_index) const;
  bool crashes_at(int rank, std::uint64_t op) const {
    return rank == crash_rank && op == crash_op;
  }
  bool perm_crashes_at(int rank, std::uint64_t op) const {
    return rank == perm_crash_rank && op == perm_crash_op;
  }
  bool delays_at(int rank, std::uint64_t op) const {
    return delay_us > 0 && delay_every > 0 &&
           (delay_rank < 0 || delay_rank == rank) && op % delay_every == 0;
  }
};

namespace detail {

/// Per-job mutable side of the plan: monotone per-rank op and allocation
/// counters (each slot touched only by its owning rank thread; atomics keep
/// the watchdog and TSan happy). Owned by detail::World.
class FaultState {
 public:
  FaultState(FaultPlan plan, int size);

  const FaultPlan& plan() const { return plan_; }

  /// Entry hook for every vmpi transport op (send post, blocking receive):
  /// bumps the rank's op counter, applies injected delays, and throws
  /// InjectedRankCrash when the plan says this op is the rank's last.
  /// Returns the 1-based op index for downstream per-attempt decisions.
  std::uint64_t enter_op(int rank, obs::Recorder& rec);

  /// Throws TransientCommError when the plan fails this send attempt.
  void check_send(int rank, std::uint64_t op, int attempt,
                  obs::Recorder& rec);

  /// Throws TransientCommError when the plan corrupts this send attempt and
  /// the transport's checksum catches it (counters vmpi.checksum_rejects and
  /// vmpi.faults_injected). Modeled at the link layer: the corrupted frame
  /// is rejected before delivery and the sender's retry loop retransmits.
  void check_corrupt(int rank, std::uint64_t op, int attempt,
                     obs::Recorder& rec);

  /// Next 1-based allocation index for `rank` (alloc-fault decisions).
  std::uint64_t next_alloc(int rank);

  /// Sleep the bounded-exponential backoff before retrying `attempt`.
  void backoff(int attempt) const;

 private:
  FaultPlan plan_;
  struct RankCounters {
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> allocs{0};
  };
  std::vector<RankCounters> per_rank_;
};

}  // namespace detail

class Comm;

/// Install the job's deterministic allocation-fault injection onto a
/// MemoryTracker (no-op when the job runs without alloc faults). The hook
/// draws from `comm`'s rank-specific fault stream and bumps the rank's
/// `vmpi.faults_injected` counter; an injected failure throws MemoryError
/// from MemoryTracker::allocate (or marks the probe window overrun inside
/// BatchedSUMMA3D's re-batch protocol). The tracker must not outlive the
/// job.
void arm_alloc_faults(Comm& comm, MemoryTracker& tracker);

}  // namespace casp::vmpi
