// Injected-bug tests for the vmpi correctness layer: programs that
// mis-order collectives, diverge on allreduce lengths, or plain deadlock
// must fail fast with a diagnostic naming the offending ranks — never hang
// (CTest enforces a timeout on every test here) and never silently corrupt.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp::vmpi {
namespace {

/// Sets an environment variable for the duration of one test. The deadlock
/// tests shrink the watchdog period so detection is near-instant.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

template <typename Exception, typename Body>
std::string capture_failure(int ranks, Body body) {
  try {
    run(ranks, body);
  } catch (const Exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "virtual job completed without the expected diagnostic";
  return {};
}

TEST(CollectiveChecker, SkippedCollectiveTripsSequenceMismatch) {
#ifndef CASP_VMPI_CHECK
  GTEST_SKIP() << "requires CASP_VMPI_CHECK";
#else
  // Rank 0 runs bcast-then-barrier, rank 1 barrier-then-bcast. The tag
  // matching happens to line up (no deadlock), which is exactly the silent
  // reordering the fingerprints exist to catch.
  const std::string what =
      capture_failure<CollectiveMismatch>(2, [](Comm& comm) {
        std::vector<int> payload = {42};
        if (comm.rank() == 0) {
          payload = testing::bcast_typed<int>(comm, 0, std::move(payload));
          comm.barrier();
        } else {
          comm.barrier();
          payload = testing::bcast_typed<int>(comm, 0, {});
        }
      });
  EXPECT_NE(what.find("collective mismatch"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  EXPECT_NE(what.find("barrier"), std::string::npos) << what;
#endif
}

TEST(CollectiveChecker, DivergentBcastRootsTripRootMismatch) {
#ifndef CASP_VMPI_CHECK
  GTEST_SKIP() << "requires CASP_VMPI_CHECK";
#else
  // Ranks 0-2 broadcast from root 0; rank 3 believes the root is 2. The
  // binomial trees overlap enough that rank 3 matches a root-0 message.
  const std::string what =
      capture_failure<CollectiveMismatch>(4, [](Comm& comm) {
        const int root = comm.rank() == 3 ? 2 : 0;
        std::vector<int> payload;
        if (comm.rank() == root) payload = {7};
        (void)testing::bcast_typed<int>(comm, root, std::move(payload));
      });
  EXPECT_NE(what.find("collective mismatch"), std::string::npos) << what;
  EXPECT_NE(what.find("root"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 3"), std::string::npos) << what;
#endif
}

TEST(CollectiveChecker, DivergentAllreduceLengthsAbortWithBothLengths) {
#ifndef CASP_VMPI_CHECK
  GTEST_SKIP() << "requires CASP_VMPI_CHECK";
#else
  const std::string what =
      capture_failure<CollectiveMismatch>(2, [](Comm& comm) {
        std::vector<std::int64_t> mine(comm.rank() == 0 ? 1 : 2, 5);
        (void)comm.allreduce<std::int64_t>(
            std::move(mine),
            [](std::int64_t a, std::int64_t b) { return a + b; });
      });
  EXPECT_NE(what.find("length divergence"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
#endif
}

TEST(CollectiveChecker, GatherAgainstAllgatherNamesTheGather) {
#ifndef CASP_VMPI_CHECK
  GTEST_SKIP() << "requires CASP_VMPI_CHECK";
#else
  // Rank 1 enters an allgather while the others enter a root gather. Both
  // start by shipping to rank 0, so the tags line up; only the stamps
  // differ, and rank 0 reads rank 1's message first.
  const std::string what =
      capture_failure<CollectiveMismatch>(3, [](Comm& comm) {
        Payload mine = Payload::wrap(std::vector<std::byte>(4, std::byte{1}));
        if (comm.rank() == 1)
          (void)comm.allgather_payload(std::move(mine));
        else
          (void)comm.gather_payload(std::move(mine));
      });
  EXPECT_NE(what.find("collective mismatch"), std::string::npos) << what;
  // " gather #", not "allgather #": the stamp names the root gather.
  EXPECT_NE(what.find(" gather #"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
#endif
}

TEST(CollectiveChecker, CompetingBcastRootsAreCaughtAsLeftoverTraffic) {
#ifndef CASP_VMPI_CHECK
  GTEST_SKIP() << "requires CASP_VMPI_CHECK";
#else
  // Both ranks think they are the bcast root: each sends, neither
  // receives, the job "succeeds" with diverged data. The end-of-job sweep
  // catches the unconsumed collective messages.
  const std::string what =
      capture_failure<CollectiveMismatch>(2, [](Comm& comm) {
        std::vector<int> payload = {comm.rank()};
        (void)testing::bcast_typed<int>(comm, comm.rank(),
                                        std::move(payload));
      });
  EXPECT_NE(what.find("unconsumed"), std::string::npos) << what;
  EXPECT_NE(what.find("bcast"), std::string::npos) << what;
#endif
}

TEST(MessageLeakSweep, UnconsumedSendTripsTheJobEndSweep) {
#ifndef CASP_VMPI_CHECK
  GTEST_SKIP() << "requires CASP_VMPI_CHECK";
#else
  // Rank 0 sends a user-tag message nobody ever receives; the job itself
  // "succeeds", but the end-of-job sweep must name the dropped message.
  const std::string what = capture_failure<MessageLeak>(2, [](Comm& comm) {
    if (comm.rank() == 0) comm.send_value<int>(1, /*tag=*/42, 7);
    comm.barrier();
  });
  EXPECT_NE(what.find("unconsumed"), std::string::npos) << what;
  EXPECT_NE(what.find("tag 42"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 1"), std::string::npos) << what;   // receiver
  EXPECT_NE(what.find("rank 0"), std::string::npos) << what;   // sender
#endif
}

TEST(MessageLeakSweep, FireAndForgetSendsAreExempt) {
  // The same dropped message, declared intentional: the job must complete
  // cleanly (with or without the checker compiled in).
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const int v = 7;
      static_assert(std::is_trivially_copyable_v<int>);
      comm.send_payload(
          1, /*tag=*/42,
          Payload::copy_of(reinterpret_cast<const std::byte*>(&v),
                           sizeof(v)),
          /*fire_and_forget=*/true);
    }
    comm.barrier();
  });
}

TEST(MessageLeakSweep, ConsumedTrafficDoesNotTrip) {
  // Heavy but fully-matched point-to-point traffic must never false-alarm.
  run(4, [](Comm& comm) {
    for (int round = 0; round < 8; ++round) {
      const int partner = comm.rank() ^ 1;
      if (comm.rank() < partner) {
        comm.send_value<int>(partner, round, comm.rank());
        EXPECT_EQ(comm.recv_value<int>(partner, round), partner);
      } else {
        EXPECT_EQ(comm.recv_value<int>(partner, round), partner);
        comm.send_value<int>(partner, round, comm.rank());
      }
    }
  });
}

TEST(DeadlockWatchdog, CrossedPointToPointTagsAreReportedNotHung) {
  ScopedEnv fast_watchdog("CASP_VMPI_WATCHDOG_MS", "20");
  const std::string what =
      capture_failure<DeadlockDetected>(2, [](Comm& comm) {
        // Each rank waits on a tag the other never sends.
        (void)comm.recv_value<int>(1 - comm.rank(),
                                   comm.rank() == 0 ? 7 : 8);
      });
  EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
}

TEST(DeadlockWatchdog, BarrierAgainstBcastIsReportedWithCollectiveNames) {
  ScopedEnv fast_watchdog("CASP_VMPI_WATCHDOG_MS", "20");
  // The satellite scenario: rank 0 enters barrier while rank 1 enters a
  // bcast expecting data from rank 0 — tags never match, both block.
  const std::string what =
      capture_failure<DeadlockDetected>(2, [](Comm& comm) {
        if (comm.rank() == 0) {
          comm.barrier();
        } else {
          (void)testing::bcast_typed<int>(comm, 0, {});
        }
      });
  EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
#ifdef CASP_VMPI_CHECK
  // With the checker compiled in, the report names which collective each
  // rank was stuck inside.
  EXPECT_NE(what.find("barrier"), std::string::npos) << what;
  EXPECT_NE(what.find("bcast"), std::string::npos) << what;
#endif
}

TEST(DeadlockWatchdog, ParentChildInterleavingIsDiagnosedByName) {
#ifndef CASP_VMPI_CHECK
  GTEST_SKIP() << "requires CASP_VMPI_CHECK";
#else
  ScopedEnv fast_watchdog("CASP_VMPI_WATCHDOG_MS", "20");
  // Communicator-lifetime bug: rank 0 runs child-barrier then
  // world-barrier, its child peer (rank 1) runs them in the opposite
  // order. Rank 0 waits inside the child collective for rank 1, who is
  // stuck in the world collective waiting for rank 0 — a deadlock, but one
  // the watchdog must diagnose as divergent parent/child collective
  // ordering rather than dump as a generic stall.
  const std::string what =
      capture_failure<CommunicatorOrderViolation>(4, [](Comm& comm) {
        Comm child = comm.split(comm.rank() / 2, comm.rank());
        if (comm.rank() == 0) {
          child.barrier();
          comm.barrier();
        } else {
          comm.barrier();
          child.barrier();
        }
      });
  EXPECT_NE(what.find("communicator-order violation"), std::string::npos)
      << what;
  EXPECT_NE(what.find("split child"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  EXPECT_NE(what.find("barrier"), std::string::npos) << what;
#endif
}

TEST(DeadlockWatchdog, PartialCompletionStillDetected) {
  ScopedEnv fast_watchdog("CASP_VMPI_WATCHDOG_MS", "20");
  // Rank 0 finishes immediately; ranks 1-2 wait for messages that can no
  // longer arrive. The watchdog must treat finished ranks as dead senders.
  const std::string what =
      capture_failure<DeadlockDetected>(3, [](Comm& comm) {
        if (comm.rank() == 0) return;
        (void)comm.recv_value<int>(0, 99);
      });
  EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
  EXPECT_NE(what.find("finished"), std::string::npos) << what;
}

TEST(DeadlockWatchdog, NoFalsePositiveOnCollectiveHeavyTraffic) {
  // An aggressive 5 ms watchdog must never misfire on a correct program
  // that blocks constantly (barriers, reductions, splits, big payloads).
  ScopedEnv fast_watchdog("CASP_VMPI_WATCHDOG_MS", "5");
  run(8, [](Comm& comm) {
    for (int round = 0; round < 20; ++round) {
      comm.barrier();
      EXPECT_EQ(comm.allreduce_sum<std::int64_t>(1), comm.size());
      Comm half = comm.split(comm.rank() % 2, comm.rank());
      (void)half.allgather_value<int>(comm.rank());
    }
  });
}

}  // namespace
}  // namespace casp::vmpi
