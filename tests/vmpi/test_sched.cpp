// casp-verify acceptance tests: deterministic replay, known-bug rediscovery,
// and schedule-string plumbing. Everything here runs the real runtime under
// the token-passing scheduler — no mocks — so these tests double as the
// proof that scheduled runs produce byte-identical reports and that a
// printed schedule string is a complete reproducer.
#ifdef CASP_VMPI_SCHED

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "sched_corpus.hpp"
#include "vmpi/sched.hpp"
#include "vmpi/sched_explore.hpp"

namespace casp::vmpi {
namespace {

corpus::Program prog(const std::string& name) { return corpus::find(name); }

RunResult run_scheduled(const corpus::Program& p, const SchedPlan& plan) {
  RunOptions options;
  options.capture_failure = true;
  options.faults = FaultPlan{};  // ignore any CASP_VMPI_FAULTS in the env
  options.sched = plan;
  return run(p.size, p.body, options);
}

// -- schedule-string plumbing -----------------------------------------------

TEST(SchedPlan, ParsesSeedReplayAndBareScheduleStrings) {
  const SchedPlan seeded = SchedPlan::parse("seed=42");
  EXPECT_EQ(seeded.mode, SchedPlan::Mode::kSeeded);
  EXPECT_EQ(seeded.seed, 42u);

  const SchedPlan replayed = SchedPlan::parse("replay=casp-sched.v1:p2:0110");
  EXPECT_EQ(replayed.mode, SchedPlan::Mode::kReplay);
  EXPECT_EQ(replayed.replay_size, 2);
  EXPECT_EQ(replayed.choices, (std::vector<int>{0, 1, 1, 0}));

  // A bare schedule string means replay too — so a pasted diagnostic line
  // works without editing.
  const SchedPlan bare = SchedPlan::parse("casp-sched.v1:p3:012");
  EXPECT_EQ(bare.mode, SchedPlan::Mode::kReplay);
  EXPECT_EQ(bare.replay_size, 3);

  EXPECT_THROW(SchedPlan::parse("casp-sched.v1:p0:01"), std::invalid_argument);
  EXPECT_THROW(SchedPlan::parse("casp-sched.v1:px:01"), std::invalid_argument);
  EXPECT_THROW(SchedPlan::parse("seed="), std::invalid_argument);
  EXPECT_THROW(SchedPlan::parse("casp-sched.v2:p2:01"),
               std::invalid_argument);
}

TEST(SchedPlan, RecordedScheduleRoundTripsThroughParse) {
  const RunResult r = run_scheduled(prog("bcast_tree"), SchedPlan::seeded(5));
  ASSERT_TRUE(r.sched.has_value());
  const std::string sched = r.sched->schedule;
  ASSERT_FALSE(sched.empty());
  const SchedPlan plan = SchedPlan::parse(sched);
  EXPECT_EQ(plan.mode, SchedPlan::Mode::kReplay);
  EXPECT_EQ(plan.replay_size, 4);
  EXPECT_EQ(static_cast<std::size_t>(plan.choices.size()),
            r.sched->trace.decisions.size() -
                [&] {
                  std::size_t forced = 0;
                  for (const SchedDecision& d : r.sched->trace.decisions)
                    if (d.runnable.size() < 2) ++forced;
                  return forced;
                }());
}

// -- replay determinism ------------------------------------------------------

TEST(SchedReplay, SameSeedIsByteIdenticalAcrossTenRuns) {
  const corpus::Program p = prog("bcast_tree");
  const RunResult first = run_scheduled(p, SchedPlan::seeded(7));
  ASSERT_FALSE(first.failure.has_value()) << first.failure->what;
  ASSERT_TRUE(first.sched.has_value());
  const std::string report =
      obs::build_report(first).deterministic_json().dump();
  for (int i = 1; i < 10; ++i) {
    const RunResult again = run_scheduled(p, SchedPlan::seeded(7));
    ASSERT_TRUE(again.sched.has_value());
    EXPECT_EQ(again.sched->schedule, first.sched->schedule) << "run " << i;
    EXPECT_EQ(obs::build_report(again).deterministic_json().dump(), report)
        << "run " << i;
  }
}

TEST(SchedReplay, ReplayingTheRecordedStringReproducesTheRun) {
  const corpus::Program p = prog("ckpt_consensus");
  const RunResult seeded = run_scheduled(p, SchedPlan::seeded(11));
  ASSERT_TRUE(seeded.sched.has_value());
  const std::string report =
      obs::build_report(seeded).deterministic_json().dump();
  const RunResult replayed =
      run_scheduled(p, SchedPlan::parse(seeded.sched->schedule));
  ASSERT_TRUE(replayed.sched.has_value());
  EXPECT_EQ(replayed.sched->schedule, seeded.sched->schedule);
  EXPECT_EQ(obs::build_report(replayed).deterministic_json().dump(), report);
}

TEST(SchedReplay, DifferentSeedsExploreDifferentSchedules) {
  std::set<std::string> schedules;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RunResult r =
        run_scheduled(prog("bcast_tree"), SchedPlan::seeded(seed));
    ASSERT_TRUE(r.sched.has_value());
    schedules.insert(r.sched->schedule);
  }
  // Not all 8 need be distinct, but a scheduler that ignores its seed
  // would produce exactly one.
  EXPECT_GT(schedules.size(), 1u);
}

// -- known-bug rediscovery ---------------------------------------------------

ExploreResult explore_program(const corpus::Program& p, bool systematic) {
  ExploreOptions opt;
  opt.size = p.size;
  opt.random_schedules = 32;
  opt.systematic = systematic;
  opt.max_schedules = 64;
  return explore(p.body, opt);
}

TEST(SchedExplore, MutationAfterSendCaughtWithin64Schedules) {
  const corpus::Program p = prog("mutation_after_send");
  const ExploreResult r = explore_program(p, /*systematic=*/true);
  EXPECT_LE(r.schedules_run, 64);
  const ScheduleOutcome* hit = r.first_with("mutation_after_send");
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(hit->schedule.empty());
}

TEST(SchedExplore, RediscoversTheSoleOwnerRaceAndReplayReproducesIt) {
  // The PR-2 bug, reintroduced as release_or_copy_relaxed: only some
  // interleavings (receiver drops first) are racy, so this needs actual
  // exploration — and the printed schedule string must reproduce the exact
  // diagnostic, finding for finding.
  const corpus::Program p = prog("sole_owner_race");
  const ExploreResult r = explore_program(p, /*systematic=*/false);
  const ScheduleOutcome* hit = r.first_with("sole_owner_race");
  ASSERT_NE(hit, nullptr);

  const ScheduleOutcome again = run_schedule(
      p.size, p.body, SchedPlan::parse(hit->schedule), std::nullopt, 0);
  EXPECT_EQ(again.schedule, hit->schedule);
  ASSERT_EQ(again.findings.size(), hit->findings.size());
  for (std::size_t i = 0; i < again.findings.size(); ++i) {
    EXPECT_EQ(again.findings[i].kind, hit->findings[i].kind);
    EXPECT_EQ(again.findings[i].rank, hit->findings[i].rank);
    EXPECT_EQ(again.findings[i].detail, hit->findings[i].detail);
  }
  EXPECT_EQ(again.failure_what, hit->failure_what);
}

TEST(SchedExplore, RediscoversTheCrossedTagDeadlockExactly) {
  // The PR-1 deadlock. Under the scheduler there is no watchdog sampling:
  // the empty-runnable-set check is exact, the report carries per-rank
  // schedule analysis, and replaying the schedule string reproduces the
  // report byte for byte.
  const corpus::Program p = prog("crossed_tags");
  const ExploreResult r = explore_program(p, /*systematic=*/false);
  const ScheduleOutcome* hit = r.first_with("deadlock");
  ASSERT_NE(hit, nullptr);
  EXPECT_NE(hit->failure_what.find("schedule analysis:"), std::string::npos);
  EXPECT_NE(hit->failure_what.find("replay: CASP_VMPI_SCHED="),
            std::string::npos);

  const ScheduleOutcome again = run_schedule(
      p.size, p.body, SchedPlan::parse(hit->schedule), std::nullopt, 0);
  EXPECT_EQ(again.failure_kind, "deadlock");
  EXPECT_EQ(again.failure_what, hit->failure_what);
}

TEST(SchedExplore, GoodTwinStaysCleanOnEverySchedule) {
  // sole_owner_handoff is the acquire-ordered twin of sole_owner_race:
  // the analyzer models the refcount synchronization, so no schedule —
  // including the ones that flag the relaxed variant — may produce a
  // finding here.
  const corpus::Program p = prog("sole_owner_handoff");
  const ExploreResult r = explore_program(p, /*systematic=*/true);
  EXPECT_TRUE(r.clean()) << r.flagged.front().failure_what;
}

// -- virtual-clock deadlines -------------------------------------------------

TEST(SchedDeadline, BudgetProgramFlagsOnExploredSchedules) {
  // The corpus program burns more virtual time than its 1 ms budget on any
  // interleaving, so exploration must surface deadline_exceeded — the
  // deterministic analogue of a tenant blowing JobSpec::deadline_ms.
  const corpus::Program p = prog("deadline_budget");
  ASSERT_EQ(p.expected, "deadline_exceeded");
  ASSERT_GT(p.deadline_ms, 0);
  ExploreOptions opt;
  opt.size = p.size;
  opt.random_schedules = 16;
  opt.max_schedules = 32;
  opt.deadline_ms = p.deadline_ms;
  const ExploreResult r = explore(p.body, opt);
  const ScheduleOutcome* hit = r.first_with("deadline_exceeded");
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(hit->schedule.empty());
}

TEST(SchedDeadline, VirtualExpiryReplaysExactly) {
  // The virtual clock advances per scheduling decision, not per wall-clock
  // tick: replaying the recorded schedule string expires the deadline at
  // the same decision and reproduces the diagnostic byte for byte.
  const corpus::Program p = prog("deadline_budget");
  const ScheduleOutcome first = run_schedule(
      p.size, p.body, SchedPlan::seeded(9), std::nullopt, 0, p.deadline_ms);
  EXPECT_EQ(first.failure_kind, "deadline_exceeded");
  const ScheduleOutcome again =
      run_schedule(p.size, p.body, SchedPlan::parse(first.schedule),
                   std::nullopt, 0, p.deadline_ms);
  EXPECT_EQ(again.schedule, first.schedule);
  EXPECT_EQ(again.failure_kind, first.failure_kind);
  EXPECT_EQ(again.failure_what, first.failure_what);
}

TEST(SchedDeadline, UnarmedClockNeverExpires) {
  const corpus::Program p = prog("deadline_budget");
  const ScheduleOutcome o =
      run_schedule(p.size, p.body, SchedPlan::seeded(9), std::nullopt, 0);
  EXPECT_NE(o.failure_kind, "deadline_exceeded") << o.failure_what;
}

TEST(SchedExplore, LostWakeupDeadlockNamesConsumedMessages) {
  // Receiving the same message twice: the second receive can never be
  // satisfied, and the analyzer should say WHY — the matching message was
  // already consumed — rather than just "deadlock".
  const auto body = [](Comm& c) {
    if (c.rank() == 0) {
      c.send_value<int>(1, 3, 99);
    } else {
      (void)c.recv_value<int>(0, 3);
      (void)c.recv_value<int>(0, 3);  // lost wakeup: nothing left to match
    }
  };
  const ScheduleOutcome o =
      run_schedule(2, body, SchedPlan::seeded(1), std::nullopt, 0);
  EXPECT_EQ(o.failure_kind, "deadlock");
  EXPECT_NE(o.failure_what.find("lost wakeup"), std::string::npos)
      << o.failure_what;
}

}  // namespace
}  // namespace casp::vmpi

#endif  // CASP_VMPI_SCHED
