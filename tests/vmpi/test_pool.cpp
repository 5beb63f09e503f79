#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "vmpi/pool.hpp"
#include "vmpi/runtime.hpp"

namespace casp::vmpi {
namespace {

TEST(Pool, RunsEveryRankOnResidentThreads) {
  RankPool pool(4);
  EXPECT_EQ(pool.size(), 4);

  std::mutex mu;
  std::vector<std::vector<std::thread::id>> ids_per_job;
  for (int job = 0; job < 3; ++job) {
    std::vector<std::thread::id> ids(4);
    std::atomic<int> count{0};
    auto result = pool.run_job([&](Comm& comm) {
      count.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      ids[static_cast<std::size_t>(comm.rank())] = std::this_thread::get_id();
    });
    EXPECT_EQ(count.load(), 4);
    EXPECT_EQ(result.size, 4);
    ids_per_job.push_back(ids);
  }
  EXPECT_EQ(pool.jobs_run(), 3u);
  // Residency: every job ran rank r on the same pool thread.
  for (int job = 1; job < 3; ++job)
    for (int r = 0; r < 4; ++r)
      EXPECT_EQ(ids_per_job[static_cast<std::size_t>(job)]
                           [static_cast<std::size_t>(r)],
                ids_per_job[0][static_cast<std::size_t>(r)])
          << "job " << job << " rank " << r << " migrated threads";
}

TEST(Pool, ResultsMatchStandaloneRun) {
  const auto body = [](Comm& comm) {
    comm.set_phase("work");
    const std::vector<double> mine = {1.5 * comm.rank(), 2.5};
    const std::vector<double> all = comm.allgather_vec<double>(mine);
    double sum = 0;
    for (double v : all) sum += v;
    comm.recorder().set_counter("sum_x10",
                               static_cast<std::int64_t>(sum * 10));
  };
  RankPool pool(6);
  const RunResult pooled = pool.run_job(body);
  const RunResult standalone = run(6, body);

  ASSERT_EQ(pooled.recorders.size(), standalone.recorders.size());
  for (std::size_t r = 0; r < pooled.recorders.size(); ++r)
    EXPECT_EQ(pooled.recorders[r].counters().at("sum_x10"),
              standalone.recorders[r].counters().at("sum_x10"));
  const auto pt = pooled.traffic_summary();
  const auto st = standalone.traffic_summary();
  EXPECT_EQ(pt.total_per_phase.at("work").bytes,
            st.total_per_phase.at("work").bytes);
  EXPECT_EQ(pt.total_per_phase.at("work").messages,
            st.total_per_phase.at("work").messages);
}

TEST(Pool, FailedJobDoesNotPoisonPool) {
  RankPool pool(3);
  FaultPlan plan;
  plan.seed = 7;
  plan.crash_rank = 1;
  plan.crash_op = 2;

  RunOptions opts;
  opts.faults = plan;
  opts.capture_failure = true;
  const RunResult crashed = pool.run_job(
      [](Comm& comm) {
        comm.barrier();
        comm.barrier();
        comm.barrier();
      },
      opts);
  ASSERT_TRUE(crashed.failed());
  EXPECT_EQ(crashed.failure->kind, "rank_crash");
  EXPECT_EQ(crashed.failure->rank, 1);

  // The next tenant's job starts from a clean world on the same threads.
  const RunResult clean = pool.run_job([](Comm& comm) {
    const int total = comm.allreduce_sum<int>(comm.rank() + 1);
    EXPECT_EQ(total, 6);
  });
  EXPECT_FALSE(clean.failed());
  EXPECT_EQ(pool.jobs_run(), 2u);
}

TEST(Pool, RethrowsWithoutCaptureAndStaysUsable) {
  RankPool pool(2);
  try {
    pool.run_job([](Comm& comm) {
      if (comm.rank() == 1) throw std::runtime_error("tenant bug");
      comm.barrier();
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "tenant bug");
  }
  const RunResult ok = pool.run_job([](Comm& comm) { comm.barrier(); });
  EXPECT_FALSE(ok.failed());
}

TEST(Pool, SupervisedRecoversInjectedCrash) {
  RankPool pool(4);
  FaultPlan plan;
  plan.seed = 3;
  plan.crash_rank = 2;
  plan.crash_op = 4;

  SupervisorOptions opts;
  opts.faults = plan;
  opts.max_restarts = 2;
  std::atomic<int> attempts{0};
  const auto body = [&](Comm& comm) {
    if (comm.rank() == 0) attempts.fetch_add(1);
    for (int i = 0; i < 6; ++i) comm.barrier();
    const int total = comm.allreduce_sum<int>(1);
    EXPECT_EQ(total, 4);
  };
  // The supervision chain drives the resident gang one attempt at a time.
  SupervisionChain chain(opts);
  RunResult attempt = pool.run_job(body, chain.attempt_options());
  while (chain.retry(attempt))
    attempt = pool.run_job(body, chain.attempt_options());
  const SupervisedResult sup = chain.finish(std::move(attempt));
  EXPECT_TRUE(sup.recovered());
  EXPECT_EQ(sup.restarts, 1);
  ASSERT_EQ(sup.recovered_failures.size(), 1u);
  EXPECT_EQ(sup.recovered_failures[0].kind, "rank_crash");
  EXPECT_FALSE(sup.result.failed());
  EXPECT_EQ(attempts.load(), 2);
  // Both attempts ran on the one resident gang.
  EXPECT_EQ(pool.jobs_run(), 2u);
}

TEST(Pool, InvalidSizeThrows) {
  EXPECT_THROW(RankPool(0), std::logic_error);
}

// -- Membership lifecycle (DESIGN.md §5k) ------------------------------------

TEST(Pool, MembershipEdgesAndRejoinGuards) {
  RankPool pool(4);
  EXPECT_EQ(pool.health(2), RankHealth::kAlive);
  // Re-join is only legal from the dead state.
  EXPECT_FALSE(pool.request_rejoin(2));
  pool.mark_dead(2);
  EXPECT_EQ(pool.health(2), RankHealth::kDead);
  EXPECT_EQ(pool.alive_count(), 3);
  EXPECT_TRUE(pool.request_rejoin(2));
  EXPECT_EQ(pool.health(2), RankHealth::kProbation);
  // Probationary ranks are not yet schedulable.
  EXPECT_EQ(pool.alive_count(), 3);
  EXPECT_EQ(pool.probation_ranks(), (std::vector<int>{2}));
  // A second request while already in probation is refused, and
  // out-of-range ranks are ignored.
  EXPECT_FALSE(pool.request_rejoin(2));
  EXPECT_FALSE(pool.request_rejoin(17));
}

TEST(Pool, ProbationHandshakeAdmitsHealthyReplacement) {
  RankPool pool(4);
  pool.mark_dead(1);
  ASSERT_TRUE(pool.request_rejoin(1));
  const std::vector<int> admitted = pool.admit_probationers();
  EXPECT_EQ(admitted, (std::vector<int>{1}));
  EXPECT_EQ(pool.health(1), RankHealth::kAlive);
  EXPECT_EQ(pool.alive_count(), 4);
  EXPECT_EQ(pool.probation_failures(1), 0);
  // The readmitted rank does real work again on the full gang.
  const RunResult ok = pool.run_job(
      [](Comm& comm) { EXPECT_EQ(comm.allreduce_sum<int>(1), 4); });
  EXPECT_FALSE(ok.failed());
}

TEST(Pool, FlappingReplacementQuarantinedAfterMaxFailures) {
  RankPool pool(4);
  MembershipOptions membership;
  membership.max_failures = 3;
  membership.corrupt = [](int rank, int) { return rank == 3; };
  pool.mark_dead(3);
  ASSERT_TRUE(pool.request_rejoin(3));
  for (int strike = 1; strike <= 3; ++strike) {
    EXPECT_TRUE(pool.admit_probationers(membership).empty());
    EXPECT_EQ(pool.probation_failures(3), strike);
  }
  EXPECT_EQ(pool.health(3), RankHealth::kQuarantined);
  EXPECT_EQ(pool.quarantined_ranks(), (std::vector<int>{3}));
  // Quarantine is terminal: no way back through rejoin, and the admit
  // sweep no longer considers the rank.
  EXPECT_FALSE(pool.request_rejoin(3));
  EXPECT_TRUE(pool.admit_probationers(membership).empty());
  EXPECT_EQ(pool.health(3), RankHealth::kQuarantined);
  EXPECT_EQ(pool.alive_count(), 3);
}

TEST(Pool, FlakyReplacementAdmittedOnceCorruptionStops) {
  // Two strikes, then a clean handshake: the rank re-enters below the
  // quarantine threshold, with its strike history retained.
  RankPool pool(4);
  MembershipOptions membership;
  membership.max_failures = 3;
  int flaky_attempts = 2;
  membership.corrupt = [&flaky_attempts](int, int) {
    return flaky_attempts-- > 0;
  };
  pool.mark_dead(0);
  ASSERT_TRUE(pool.request_rejoin(0));
  EXPECT_TRUE(pool.admit_probationers(membership).empty());
  EXPECT_TRUE(pool.admit_probationers(membership).empty());
  EXPECT_EQ(pool.admit_probationers(membership), (std::vector<int>{0}));
  EXPECT_EQ(pool.health(0), RankHealth::kAlive);
  EXPECT_EQ(pool.probation_failures(0), 2);
}

// -- Disjoint split dispatch -------------------------------------------------

TEST(Pool, DisjointSplitsRunConcurrently) {
  RankPool pool(4);
  std::atomic<bool> a_ready{false};
  std::atomic<bool> b_ready{false};
  // Each split's job rendezvouses with the OTHER split's job before its
  // own barrier: only possible when both splits genuinely run at once.
  const JobTicketPtr ticket_a = pool.start_job_on({0, 1}, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 2);
    if (comm.rank() == 0) a_ready.store(true);
    while (!b_ready.load()) std::this_thread::yield();
    comm.barrier();
  });
  const JobTicketPtr ticket_b = pool.start_job_on({2, 3}, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 2);
    if (comm.rank() == 0) b_ready.store(true);
    while (!a_ready.load()) std::this_thread::yield();
    comm.barrier();
  });
  const RunResult ra = pool.finish_job(ticket_a);
  const RunResult rb = pool.finish_job(ticket_b);
  EXPECT_FALSE(ra.failed());
  EXPECT_FALSE(rb.failed());
  EXPECT_EQ(ra.size, 2);
  EXPECT_EQ(rb.size, 2);
}

TEST(Pool, SplitJobSeesDenseJobWorld) {
  // members[i] backs job-world rank i: a job on pool ranks {1, 3} runs a
  // 2-rank world, bit-identical to the same body on any other split.
  RankPool pool(4);
  const auto body = [](Comm& comm) {
    const std::vector<int> all = comm.allgather_vec<int>({comm.rank() * 10});
    EXPECT_EQ(all, (std::vector<int>{0, 10}));
  };
  const RunResult high = pool.finish_job(pool.start_job_on({1, 3}, body));
  const RunResult low = pool.finish_job(pool.start_job_on({0, 1}, body));
  EXPECT_FALSE(high.failed());
  EXPECT_FALSE(low.failed());
}

TEST(Pool, OverlappingSplitDispatchThrows) {
  RankPool pool(4);
  std::atomic<bool> release{false};
  const JobTicketPtr ticket = pool.start_job_on({1, 2}, [&](Comm&) {
    while (!release.load()) std::this_thread::yield();
  });
  // Rank 2 is mid-job on the first split: dispatching onto it must fail,
  // as must unsorted or duplicated member lists.
  EXPECT_THROW(pool.start_job_on({2, 3}, [](Comm&) {}), std::logic_error);
  EXPECT_THROW(pool.start_job_on({3, 0}, [](Comm&) {}), std::logic_error);
  EXPECT_THROW(pool.start_job_on({0, 0}, [](Comm&) {}), std::logic_error);
  release.store(true);
  EXPECT_FALSE(pool.finish_job(ticket).failed());
  EXPECT_EQ(pool.idle_ranks(), (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace casp::vmpi
