// Service-level elastic degraded-grid recovery (DESIGN.md §5j): a
// permanent rank loss marks the pool's health map, elastic jobs re-run
// Eq. (2) admission for the survivor grid, redistribute their checkpoints
// onto it and finish bit-identically; non-elastic jobs fail classified.
// Plus the deadline path: an over-budget job is cancelled by the watchdog,
// fails with kind "deadline_exceeded", and releases its reservation so the
// tenant's next job runs immediately.
//
// The ElasticSvc suite reads CASP_FAULT_SEED (default 1) so check.sh's
// fault sweeps vary the victim rank and crash op. Inputs use unit values
// (ErParams::random_values = false): partial sums are integers, exact in
// double under any association, which is what makes the cross-grid
// tolerance-0.0 comparison legitimate (see tests/ckpt/test_redistribute).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/triple_mat.hpp"
#include "svc/admission.hpp"
#include "svc/server.hpp"
#include "test_util.hpp"

namespace casp::svc {
namespace {

namespace fs = std::filesystem;

std::uint64_t fault_seed() {
  const char* env = std::getenv("CASP_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/casp_degraded_" + name +
                          "_s" + std::to_string(fault_seed());
  fs::remove_all(dir);
  return dir;
}

/// Square ER source with all values exactly 1.0 (integer-valued products).
MatrixSource ones_er(Index n, double nnz_per_col, std::uint64_t seed) {
  MatrixSource src;
  src.kind = MatrixSource::Kind::kEr;
  src.er.nrows = n;
  src.er.ncols = n;
  src.er.nnz_per_col = nnz_per_col;
  src.er.random_values = false;
  src.er.seed = seed;
  return src;
}

JobSpec elastic_spgemm(const std::string& tenant, const std::string& ck_dir) {
  JobSpec s;
  s.tenant = tenant;
  s.op = JobOp::kSpGemm;
  s.a = ones_er(36, 3.0, 21);
  s.ranks = 9;
  s.layers = 1;
  s.force_batches = 4;
  s.ckpt_dir = ck_dir;
  s.ckpt_every = 1;
  s.elastic = true;
  return s;
}

std::string perm_crash_spec(int pool_ranks, std::uint64_t op_base) {
  return "seed=" + std::to_string(fault_seed()) + ";perm_crash_rank=" +
         std::to_string(fault_seed() %
                        static_cast<std::uint64_t>(pool_ranks)) +
         ";perm_crash_op=" + std::to_string(op_base + 3 * fault_seed());
}

// ---------------------------------------------------------------------------

TEST(ElasticSvc, PermanentCrashShrinksAndFinishesBitIdentically) {
  const int victim = static_cast<int>(fault_seed() % 9);

  // Fault-free reference on the full 9-rank grid: the output the job was
  // promised before the hardware died.
  CscMat reference;
  {
    ServerOptions opts;
    opts.pool_ranks = 9;
    Server ref_server(opts);
    JobSpec ref = elastic_spgemm("alice", "");
    ref.elastic = false;
    const JobRecord& job = ref_server.wait(ref_server.submit(std::move(ref)));
    ASSERT_EQ(job.state, JobState::kDone) << job.reason;
    reference = job.c;
  }

  ServerOptions opts;
  opts.pool_ranks = 9;
  Server server(opts);
  JobSpec chaos = elastic_spgemm("alice", fresh_dir("elastic"));
  chaos.fault_spec = perm_crash_spec(9, /*op_base=*/20);
  const std::string id = server.submit(std::move(chaos));
  const JobRecord& job = server.wait(id);

  ASSERT_EQ(job.state, JobState::kDone) << job.reason;
  // The victim is dead for good in the pool's health map.
  EXPECT_EQ(server.pool().health(victim), vmpi::RankHealth::kDead);
  EXPECT_EQ(server.pool().alive_count(), 8);

  // The recovery report records the shrink: 9 ranks could not be refilled
  // from an 8-rank pool, so the job finished on the largest valid survivor
  // grid (4 x 1).
  ASSERT_TRUE(job.report.run.has_value());
  ASSERT_TRUE(job.report.run->recovery.has_value());
  const obs::RecoveryReport& rec = *job.report.run->recovery;
  EXPECT_EQ(rec.degraded_from_ranks, 9);
  EXPECT_EQ(rec.degraded_from_layers, 1);
  EXPECT_EQ(rec.degraded_to_ranks, 4);
  EXPECT_EQ(rec.degraded_to_layers, 1);
  ASSERT_EQ(rec.dead_ranks.size(), 1u);
  EXPECT_EQ(rec.dead_ranks[0], victim);
  ASSERT_FALSE(rec.failure_kinds.empty());
  EXPECT_EQ(rec.failure_kinds.back(), "permanent_crash");
  // The degraded shape shows up in the rendered report too.
  const std::string json = job.report.run->to_json().dump();
  EXPECT_NE(json.find("\"degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"dead_ranks\""), std::string::npos);

  // The headline guarantee: the degraded output equals the full-grid
  // fault-free output exactly.
  casp::testing::expect_mat_near(job.c, reference, 0.0);
  EXPECT_EQ(server.tenant("alice").reserved(), 0u);

  // The pool keeps serving: another tenant's 4-rank job runs on the
  // survivors right after.
  JobSpec next;
  next.tenant = "bob";
  next.op = JobOp::kSpGemm;
  next.a = ones_er(36, 3.0, 22);
  next.ranks = 4;
  EXPECT_EQ(server.wait(server.submit(std::move(next))).state,
            JobState::kDone);
}

TEST(ElasticSvc, PermanentCrashOnMclShrinksNatively) {
  // MCL needs no redistribution: its snapshot carries the re-replicated
  // global iterate under a grid-independent id, so the survivor grid
  // resumes the trajectory directly.
  ServerOptions opts;
  opts.pool_ranks = 9;
  Server server(opts);
  JobSpec chaos;
  chaos.tenant = "alice";
  chaos.op = JobOp::kMcl;
  chaos.a = MatrixSource::protein_network(24, 23);
  chaos.ranks = 9;
  chaos.ckpt_dir = fresh_dir("elastic_mcl");
  chaos.elastic = true;
  chaos.fault_spec = perm_crash_spec(9, /*op_base=*/40);
  const JobRecord& job = server.wait(server.submit(std::move(chaos)));
  ASSERT_EQ(job.state, JobState::kDone) << job.reason;
  EXPECT_GE(job.mcl.num_clusters, 1);
  ASSERT_TRUE(job.report.run.has_value());
  ASSERT_TRUE(job.report.run->recovery.has_value());
  EXPECT_EQ(job.report.run->recovery->degraded_to_ranks, 4);
  EXPECT_EQ(server.pool().alive_count(), 8);
}

TEST(ElasticSvc, NonElasticPermanentCrashFailsClassified) {
  Server server(ServerOptions{});  // pool of 4
  const int victim = static_cast<int>(fault_seed() % 4);
  JobSpec chaos;
  chaos.tenant = "chaos";
  chaos.op = JobOp::kSpGemm;
  chaos.a = ones_er(36, 3.0, 24);
  chaos.ranks = 4;
  chaos.memory_bytes = Bytes{64} << 20;  // hold a real reservation
  chaos.fault_spec = perm_crash_spec(4, /*op_base=*/10);
  const JobRecord& job = server.wait(server.submit(std::move(chaos)));
  EXPECT_EQ(job.state, JobState::kFailed);
  EXPECT_NE(job.reason.find("permanent_crash"), std::string::npos)
      << job.reason;
  EXPECT_EQ(server.pool().health(victim), vmpi::RankHealth::kDead);
  EXPECT_EQ(server.tenant("chaos").reserved(), 0u);

  // A later full-width, non-elastic job cannot be placed on the degraded
  // pool: refused with a structured reason, not wedged.
  JobSpec next;
  next.tenant = "chaos";
  next.op = JobOp::kSpGemm;
  next.a = ones_er(36, 3.0, 25);
  next.ranks = 4;
  const JobRecord& refused = server.wait(server.submit(std::move(next)));
  EXPECT_EQ(refused.state, JobState::kFailed);
  EXPECT_NE(refused.reason.find("not elastic"), std::string::npos)
      << refused.reason;

  // An elastic job of the same width shrinks onto the survivors instead.
  JobSpec bend;
  bend.tenant = "chaos";
  bend.op = JobOp::kSpGemm;
  bend.a = ones_er(36, 3.0, 26);
  bend.ranks = 4;
  bend.elastic = true;
  const JobRecord& ok = server.wait(server.submit(std::move(bend)));
  EXPECT_EQ(ok.state, JobState::kDone) << ok.reason;
  ASSERT_TRUE(ok.report.run.has_value());
  ASSERT_TRUE(ok.report.run->recovery.has_value());
  EXPECT_EQ(ok.report.run->recovery->degraded_from_ranks, 4);
  EXPECT_GT(ok.report.run->recovery->degraded_to_ranks, 0);
  EXPECT_LT(ok.report.run->recovery->degraded_to_ranks, 4);
}

TEST(ElasticSvc, DegradedGridRefusedWhenBudgetCannotHoldIt) {
  // The Eq. (2) refusal frontier sits at M = p * r * (maxA + maxB): the
  // aggregate input storage, scaled by the grid's relative load imbalance
  // p * max / total. Balanced inputs keep that factor ~1 on every grid, so
  // shrinking never refuses them — the refusal needs an input whose
  // COARSER partition is relatively more imbalanced. This corner matrix is
  // built for that: all nnz live in the top-left quadrant (rows/cols
  // 0..35 of 72), spread evenly over the four 24-aligned blocks the 3x3
  // grid cuts it into. On 9 ranks each block holds 144 nnz (factor 2.25);
  // on 4 ranks one 36x36 block holds all 576 (factor 4) — so budgets in
  // (9*r*2*144, 4*r*2*576) fit the full grid but not the survivors.
  TripleMat corner(72, 72);
  const auto fill = [&corner](Index r0, Index r1, Index c0, Index c1) {
    int placed = 0;
    for (Index c = c0; c < c1 && placed < 144; ++c)
      for (Index r = r0; r < r1 && placed < 144; ++r, ++placed)
        corner.push_back(r, c, 1.0);
  };
  fill(0, 24, 0, 24);
  fill(0, 24, 24, 36);
  fill(24, 36, 0, 24);
  fill(24, 36, 24, 36);
  const std::string mtx = ::testing::TempDir() + "/casp_degraded_corner72.mtx";
  write_matrix_market_file(mtx, corner);

  // Sweep for a budget that Eq. (2) accepts on 9 ranks but refuses on 4;
  // keep the LARGEST such budget for headroom on the full-grid attempt.
  JobSpec probe;
  probe.op = JobOp::kSpGemm;
  probe.a = MatrixSource::file(mtx);
  const CscMat in = probe.a.materialize();
  Bytes chosen = 0;
  for (Bytes m = Bytes{1} << 13; m <= Bytes{1} << 27; m += m / 4 + 1) {
    JobSpec s9 = probe;
    s9.ranks = 9;
    s9.memory_bytes = m;
    JobSpec s4 = probe;
    s4.ranks = 4;
    s4.memory_bytes = m;
    if (estimate_admission(s9, in, in).fits() &&
        !estimate_admission(s4, in, in).fits())
      chosen = m;
  }
  ASSERT_GT(chosen, 0u) << "no budget separates the 9- and 4-rank frontiers";

  ServerOptions opts;
  opts.pool_ranks = 9;
  Server server(opts);
  JobSpec chaos = probe;
  chaos.tenant = "tight";
  chaos.ranks = 9;
  chaos.memory_bytes = chosen;
  chaos.elastic = true;
  chaos.fault_spec = perm_crash_spec(9, /*op_base=*/10);
  const JobRecord& job = server.wait(server.submit(std::move(chaos)));
  EXPECT_EQ(job.state, JobState::kFailed);
  EXPECT_NE(job.reason.find("degraded grid"), std::string::npos)
      << job.reason;
  EXPECT_EQ(server.tenant("tight").reserved(), 0u);
  EXPECT_EQ(server.pool().alive_count(), 8);
}

// ---------------------------------------------------------------------------
// Self-healing membership (DESIGN.md §5k): with auto_rejoin the crashed
// rank's replacement handshakes back in at a batch-boundary pause and the
// SAME job regrows onto the healed grid, with evidence.

TEST(ElasticSvc, AutoRejoinRegrowsGridWithEvidence) {
  const int victim = static_cast<int>(fault_seed() % 9);

  CscMat reference;
  {
    ServerOptions opts;
    opts.pool_ranks = 9;
    Server ref_server(opts);
    JobSpec ref = elastic_spgemm("alice", "");
    ref.elastic = false;
    const JobRecord& job = ref_server.wait(ref_server.submit(std::move(ref)));
    ASSERT_EQ(job.state, JobState::kDone) << job.reason;
    reference = job.c;
  }

  ServerOptions opts;
  opts.pool_ranks = 9;
  opts.auto_rejoin = true;
  Server server(opts);
  JobSpec chaos = elastic_spgemm("alice", fresh_dir("regrow"));
  chaos.fault_spec = perm_crash_spec(9, /*op_base=*/20);
  const JobRecord& job = server.wait(server.submit(std::move(chaos)));
  ASSERT_EQ(job.state, JobState::kDone) << job.reason;

  // The victim handshook back through probation: alive again, not merely
  // tolerated, and the pool is whole.
  EXPECT_EQ(server.pool().health(victim), vmpi::RankHealth::kAlive);
  EXPECT_EQ(server.pool().alive_count(), 9);
  EXPECT_TRUE(server.pool().quarantined_ranks().empty());

  // Evidence chain: shrank 9 -> 4, then regrew 4 -> 9 absorbing the
  // rejoined rank, and both transitions are in the recovery report.
  ASSERT_TRUE(job.report.run.has_value());
  ASSERT_TRUE(job.report.run->recovery.has_value());
  const obs::RecoveryReport& rec = *job.report.run->recovery;
  EXPECT_EQ(rec.degraded_from_ranks, 9);
  EXPECT_EQ(rec.degraded_to_ranks, 4);
  EXPECT_EQ(rec.regrown_from_ranks, 4);
  EXPECT_EQ(rec.regrown_to_ranks, 9);
  EXPECT_EQ(rec.rejoined_ranks, (std::vector<int>{victim}));
  const std::string json = job.report.run->to_json().dump();
  EXPECT_NE(json.find("\"regrown\""), std::string::npos);
  EXPECT_NE(json.find("\"rejoined_ranks\""), std::string::npos);

  // Output promise survives the shrink/regrow round trip exactly.
  casp::testing::expect_mat_near(job.c, reference, 0.0);
  EXPECT_EQ(server.tenant("alice").reserved(), 0u);

  // The healed pool serves the next full-width, non-elastic job.
  JobSpec next = elastic_spgemm("bob", "");
  next.elastic = false;
  EXPECT_EQ(server.wait(server.submit(std::move(next))).state,
            JobState::kDone);
}

// ---------------------------------------------------------------------------
// Split isolation: two elastic jobs on disjoint splits of one pool; a
// permanent crash in the second split is invisible to the first job.

TEST(ElasticSvc, CrashInOneSplitDegradesOnlyThatJob) {
  const int victim_jr = static_cast<int>(fault_seed() % 4);

  CscMat reference;
  {
    Server ref_server(ServerOptions{});  // pool of 4
    JobSpec ref;
    ref.tenant = "alice";
    ref.op = JobOp::kSpGemm;
    ref.a = ones_er(36, 3.0, 27);
    ref.ranks = 4;
    const JobRecord& job = ref_server.wait(ref_server.submit(std::move(ref)));
    ASSERT_EQ(job.state, JobState::kDone) << job.reason;
    reference = job.c;
  }

  ServerOptions opts;
  opts.pool_ranks = 8;
  opts.concurrency = 2;
  Server server(opts);

  // Same priority => FIFO: "calm" takes pool ranks {0..3}, "storm" takes
  // {4..7}, so the storm's job-world victim maps to pool rank 4 + jr.
  JobSpec calm;
  calm.tenant = "alice";
  calm.op = JobOp::kSpGemm;
  calm.a = ones_er(36, 3.0, 27);
  calm.ranks = 4;
  const std::string calm_id = server.submit(std::move(calm));

  JobSpec storm;
  storm.tenant = "bob";
  storm.op = JobOp::kSpGemm;
  storm.a = ones_er(36, 3.0, 27);
  storm.ranks = 4;
  storm.elastic = true;
  storm.fault_spec = perm_crash_spec(4, /*op_base=*/10);
  const std::string storm_id = server.submit(std::move(storm));

  server.drain();

  const JobRecord* calm_rec = server.find(calm_id);
  const JobRecord* storm_rec = server.find(storm_id);
  ASSERT_NE(calm_rec, nullptr);
  ASSERT_NE(storm_rec, nullptr);

  // The calm job never noticed: done, no recovery evidence, exact output.
  ASSERT_EQ(calm_rec->state, JobState::kDone) << calm_rec->reason;
  ASSERT_TRUE(calm_rec->report.run.has_value());
  EXPECT_FALSE(calm_rec->report.run->recovery.has_value());
  casp::testing::expect_mat_near(calm_rec->c, reference, 0.0);

  // The storm job survived its own crash elastically, with the same bits.
  ASSERT_EQ(storm_rec->state, JobState::kDone) << storm_rec->reason;
  casp::testing::expect_mat_near(storm_rec->c, reference, 0.0);

  // Exactly one pool rank died, and it is in the storm's split.
  EXPECT_EQ(server.pool().alive_count(), 7);
  EXPECT_EQ(server.pool().health(4 + victim_jr), vmpi::RankHealth::kDead);
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(server.pool().health(r), vmpi::RankHealth::kAlive) << r;
}

// ---------------------------------------------------------------------------
// Concurrent drain determinism: the K=2 drain is byte-identical run to run
// AND byte-identical to the serial drain (launcher-deterministic
// scheduling; reports keyed by submission order, not completion order).

void submit_mixed_fleet(Server& server) {
  for (int i = 0; i < 6; ++i) {
    JobSpec s;
    s.tenant = (i % 2 == 0) ? "alice" : "bob";
    s.op = JobOp::kSpGemm;
    s.a = ones_er(36, 3.0, 31 + static_cast<std::uint64_t>(i % 3));
    s.ranks = 4;
    s.priority = i % 3;
    if (i == 2) s.deadline_ms = 60000;  // urgent class, generous budget
    if (i == 4) {
      s.fault_spec = "seed=5;crash_rank=1;crash_op=15";
      s.max_restarts = 2;  // supervised: one transient crash, then done
    }
    server.submit(std::move(s));
  }
}

TEST(ConcurrentSvc, DoubleDrainByteIdenticalAndMatchesSerial) {
  const auto drain_to_json = [](int concurrency) {
    ServerOptions opts;
    opts.pool_ranks = 9;
    opts.concurrency = concurrency;
    Server server(opts);
    submit_mixed_fleet(server);
    server.drain();
    for (const std::string& id : server.job_ids())
      EXPECT_EQ(server.find(id)->state, JobState::kDone)
          << id << ": " << server.find(id)->reason;
    return server.job_reports_json(/*deterministic=*/true).dump();
  };
  const std::string k2_first = drain_to_json(2);
  const std::string k2_second = drain_to_json(2);
  const std::string serial = drain_to_json(1);
  EXPECT_EQ(k2_first, k2_second) << "K=2 drain must be deterministic";
  EXPECT_EQ(k2_first, serial) << "concurrency must not change the reports";
  // The supervised job's restart survived the concurrent path.
  EXPECT_NE(k2_first.find("\"restarts\":1"), std::string::npos);
}

// wait(id) is the one driver at width 1 whatever ServerOptions::concurrency
// says: waiting on each job in turn runs the queue in the same order as a
// one-at-a-time drain, and returns with nothing left in flight.
TEST(ConcurrentSvc, WaitOnEachJobMatchesTheSerialDrain) {
  ServerOptions serial_opts;
  serial_opts.pool_ranks = 9;
  Server serial(serial_opts);
  submit_mixed_fleet(serial);
  serial.drain();

  ServerOptions k2_opts = serial_opts;
  k2_opts.concurrency = 2;
  Server waited(k2_opts);
  submit_mixed_fleet(waited);
  for (const std::string& id : waited.job_ids()) {
    EXPECT_EQ(waited.wait(id).state, JobState::kDone)
        << id << ": " << waited.find(id)->reason;
    EXPECT_EQ(waited.pool().idle_ranks().size(), 9u) << id;
  }
  EXPECT_EQ(waited.job_reports_json(/*deterministic=*/true).dump(),
            serial.job_reports_json(/*deterministic=*/true).dump());
}

// ---------------------------------------------------------------------------

TEST(DeadlineSvc, ExpiredDeadlineFailsJobAndReleasesReservation) {
  Server server(ServerOptions{});
  JobSpec slow;
  slow.tenant = "alice";
  slow.op = JobOp::kSpGemm;
  slow.a = ones_er(48, 3.0, 28);
  slow.ranks = 4;
  slow.memory_bytes = Bytes{64} << 20;
  // Injected per-op delay makes the job reliably outlive its 50 ms budget
  // without depending on machine speed.
  slow.fault_spec =
      "seed=" + std::to_string(fault_seed()) + ";delay_us=3000;delay_every=1";
  slow.deadline_ms = 50;
  const JobRecord& job = server.wait(server.submit(std::move(slow)));
  EXPECT_EQ(job.state, JobState::kFailed);
  EXPECT_NE(job.reason.find("deadline_exceeded"), std::string::npos)
      << job.reason;
  // The reservation is gone and the pool is healthy: the tenant's next job
  // (no deadline) runs to completion immediately.
  EXPECT_EQ(server.tenant("alice").reserved(), 0u);
  EXPECT_EQ(server.pool().alive_count(), 4);
  JobSpec next;
  next.tenant = "alice";
  next.op = JobOp::kSpGemm;
  next.a = ones_er(48, 3.0, 28);
  next.ranks = 4;
  next.memory_bytes = Bytes{64} << 20;
  EXPECT_EQ(server.wait(server.submit(std::move(next))).state,
            JobState::kDone);
}

TEST(DeadlineSvc, GenerousDeadlineDoesNotFire) {
  Server server(ServerOptions{});
  JobSpec spec;
  spec.tenant = "alice";
  spec.op = JobOp::kSpGemm;
  spec.a = ones_er(36, 3.0, 29);
  spec.ranks = 4;
  spec.deadline_ms = 60000;
  const JobRecord& job = server.wait(server.submit(std::move(spec)));
  EXPECT_EQ(job.state, JobState::kDone) << job.reason;
}

TEST(DeadlineSvc, NegativeDeadlineIsAValidationError) {
  Server server(ServerOptions{});
  JobSpec spec;
  spec.op = JobOp::kSpGemm;
  spec.a = ones_er(36, 3.0, 30);
  spec.deadline_ms = -1;
  EXPECT_THROW(server.submit(std::move(spec)), InvalidArgument);
}

TEST(DeadlineSvc, QueueOrderIsEdfOverPriority) {
  // The full order: urgent class (deadline > 0) first, EDF within it,
  // priority breaking deadline ties; then the legacy strict-priority /
  // FIFO order for deadline-free jobs.
  JobQueue q;
  q.push("a", /*priority=*/0);
  q.push("b", /*priority=*/2);
  q.push("c", /*priority=*/0, /*deadline_ms=*/500);
  q.push("d", /*priority=*/1, /*deadline_ms=*/100);
  q.push("e", /*priority=*/5, /*deadline_ms=*/500);
  q.push("f", /*priority=*/0);
  std::vector<std::string> popped;
  while (!q.empty()) popped.push_back(q.pop());
  EXPECT_EQ(popped, (std::vector<std::string>{"d", "e", "c", "b", "a", "f"}));
}

}  // namespace
}  // namespace casp::svc
