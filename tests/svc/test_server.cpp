// svc::Server: admission control (Eq. (2)), per-tenant quotas, priority
// scheduling with cancellation, and crash containment on the resident pool.
//
// The FaultSvc suite reads CASP_FAULT_SEED (default 1) so check.sh stage
// (f) sweeps the injected-crash scenarios over several seeds.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "grid/dist.hpp"
#include "kernels/reference.hpp"
#include "summa/steps.hpp"
#include "summa/symbolic3d.hpp"
#include "svc/admission.hpp"
#include "svc/server.hpp"
#include "test_util.hpp"
#include "vmpi/runtime.hpp"

namespace casp::svc {
namespace {

std::uint64_t fault_seed() {
  const char* env = std::getenv("CASP_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

JobSpec small_spgemm(std::string tenant, std::uint64_t seed = 7) {
  JobSpec s;
  s.tenant = std::move(tenant);
  s.op = JobOp::kSpGemm;
  s.a = MatrixSource::er_square(48, 3.0, seed);
  s.ranks = 4;
  s.layers = 1;
  return s;
}

TEST(Server, OverBudgetJobRejectedAtSubmitNamingEq2) {
  Server server(ServerOptions{});
  JobSpec spec = small_spgemm("alice");
  // 4 KiB aggregate = 1 KiB per process: far below the r*(maxA+maxB) input
  // footprint, so Eq. (2)'s denominator is non-positive and no batch count
  // can make the job fit. Must be refused before it ever reaches the pool.
  spec.memory_bytes = 4096;
  const std::string id = server.submit(std::move(spec));
  const JobRecord* job = server.find(id);
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->state, JobState::kRejected);
  EXPECT_FALSE(job->admission.fits);
  // The structured reason names the Eq. (2) estimate that refused the job.
  EXPECT_NE(job->reason.find("Eq. (2)"), std::string::npos) << job->reason;
  EXPECT_NE(job->reason.find("r=24"), std::string::npos) << job->reason;
  EXPECT_FALSE(job->holds_reservation);
  // A rejected job never reserves tenant memory.
  EXPECT_EQ(server.tenant("alice").reserved(), 0u);
}

TEST(Server, AdmissionEstimatesBatchesForFittingJobs) {
  Server server(ServerOptions{});
  JobSpec spec = small_spgemm("alice");
  spec.memory_bytes = Bytes{64} << 20;
  const std::string id = server.submit(std::move(spec));
  const JobRecord& job = server.wait(id);
  EXPECT_EQ(job.state, JobState::kDone) << job.reason;
  EXPECT_TRUE(job.admission.fits);
  EXPECT_GE(job.admission.batches, 1);
  EXPECT_GT(job.admission.max_nnz_c, 0);
  EXPECT_EQ(job.admission.reserved_bytes, Bytes{64} << 20);
  // Terminal states release the reservation.
  EXPECT_EQ(server.tenant("alice").reserved(), 0u);
  EXPECT_GT(server.tenant("alice").peak_reserved(), 0u);
}

// Admission and Symbolic3D evaluate Eq. (2) through the same function, so
// the admitted b is the b the run starts at even when p does not divide M.
TEST(Server, AdmittedBatchCountIsTheOneTheRunStartsAt) {
  JobSpec spec = small_spgemm("alice");
  const CscMat a = spec.a.materialize();
  const obs::JobAdmission probe = estimate_admission(spec, a, a).admission;
  const Bytes r = kBytesPerNonzero;
  const Bytes output_bytes = r * static_cast<Bytes>(probe.max_nnz_c);
  // Pick a budget p = 4 does not divide whose Eq. (2) answer changes when
  // M/p is kept fractional instead of floored.
  for (Bytes spare = 1; spare < output_bytes && spec.memory_bytes == 0;
       ++spare) {
    const Bytes m = 4 * (probe.input_bytes + spare) + 3;
    const double fractional_denom =
        static_cast<double>(m) / 4.0 - static_cast<double>(probe.input_bytes);
    const auto fractional_b = static_cast<Index>(
        std::ceil(static_cast<double>(output_bytes) / fractional_denom));
    if (eq2_batches(m, 4, probe.max_nnz_a, probe.max_nnz_b,
                    probe.max_nnz_c) != fractional_b)
      spec.memory_bytes = m;
  }
  ASSERT_GT(spec.memory_bytes, 0u) << "no budget where the roundings differ";

  const AdmissionEstimate est = estimate_admission(spec, a, a);
  ASSERT_TRUE(est.fits()) << est.reason;
  Index run_batches = 0;
  vmpi::run(spec.ranks, [&](vmpi::Comm& world) {
    Grid3D grid(world, spec.layers);
    const DistMat3D da = distribute_a_style(grid, a);
    const DistMat3D db = distribute_b_style(grid, a);
    const SymbolicResult sym =
        symbolic3d(grid, da.local, db.local, spec.memory_bytes,
                   spec.summa_options());
    if (world.rank() == 0) run_batches = sym.batches;
  });
  EXPECT_EQ(run_batches, est.admission.batches)
      << "M=" << spec.memory_bytes;
}

TEST(Server, MemoryQuotaRejectsOversizedReservationOutright) {
  ServerOptions opts;
  opts.quotas["alice"].memory_bytes = 1 << 20;
  Server server(opts);
  JobSpec spec = small_spgemm("alice");
  spec.memory_bytes = Bytes{8} << 20;  // declared budget > tenant quota
  const std::string id = server.submit(std::move(spec));
  const JobRecord* job = server.find(id);
  EXPECT_EQ(job->state, JobState::kRejected);
  EXPECT_NE(job->reason.find("memory quota"), std::string::npos)
      << job->reason;
}

TEST(Server, TrafficQuotaThrottlesOneTenantWhileAnotherProceeds) {
  ServerOptions opts;
  opts.quotas["noisy"].traffic_bytes = 1;  // exhausted by any real job
  Server server(opts);

  // Both noisy jobs queue before anything runs: billing happens at
  // execution, so the second must be throttled by the scheduler's re-check,
  // not at submit.
  const std::string n1 = server.submit(small_spgemm("noisy", 7));
  const std::string n2 = server.submit(small_spgemm("noisy", 8));
  const std::string q1 = server.submit(small_spgemm("quiet", 9));
  server.drain();

  EXPECT_EQ(server.find(n1)->state, JobState::kDone)
      << server.find(n1)->reason;
  EXPECT_EQ(server.find(n2)->state, JobState::kThrottled);
  EXPECT_NE(server.find(n2)->reason.find("traffic quota"), std::string::npos);
  EXPECT_EQ(server.find(q1)->state, JobState::kDone)
      << server.find(q1)->reason;

  // Now that the ledger shows the overdraft, later submits refuse upfront.
  const std::string n3 = server.submit(small_spgemm("noisy", 10));
  EXPECT_EQ(server.find(n3)->state, JobState::kThrottled);
  EXPECT_TRUE(server.tenant("noisy").traffic_exhausted());
  EXPECT_FALSE(server.tenant("quiet").traffic_exhausted());
}

TEST(Server, CancelledJobReleasesItsReservation) {
  Server server(ServerOptions{});
  JobSpec first = small_spgemm("alice", 7);
  first.memory_bytes = Bytes{32} << 20;
  JobSpec second = small_spgemm("alice", 8);
  second.memory_bytes = Bytes{16} << 20;
  const std::string id1 = server.submit(std::move(first));
  const std::string id2 = server.submit(std::move(second));
  EXPECT_EQ(server.tenant("alice").reserved(), Bytes{48} << 20);

  EXPECT_TRUE(server.cancel(id2));
  EXPECT_EQ(server.find(id2)->state, JobState::kCancelled);
  EXPECT_EQ(server.tenant("alice").reserved(), Bytes{32} << 20);
  EXPECT_FALSE(server.cancel(id2));  // already terminal

  const JobRecord& job1 = server.wait(id1);
  EXPECT_EQ(job1.state, JobState::kDone) << job1.reason;
  EXPECT_EQ(server.tenant("alice").reserved(), 0u);
  EXPECT_FALSE(server.cancel(id1));  // ran to completion, nothing to cancel
}

TEST(Server, PrioritySchedulingRunsHigherFirstFifoWithin) {
  Server server(ServerOptions{});
  const std::string low = server.submit(small_spgemm("t", 1));
  JobSpec hi = small_spgemm("t", 2);
  hi.priority = 5;
  const std::string high = server.submit(std::move(hi));
  JobSpec hi2 = small_spgemm("t", 3);
  hi2.priority = 5;
  const std::string high2 = server.submit(std::move(hi2));

  // Waiting on the low-priority job must drain both higher ones first —
  // observable through every record being terminal afterwards.
  const JobRecord& job = server.wait(high2);
  EXPECT_EQ(job.state, JobState::kDone);
  EXPECT_EQ(server.find(high)->state, JobState::kDone);
  EXPECT_EQ(server.find(low)->state, JobState::kQueued);
  server.drain();
  EXPECT_EQ(server.find(low)->state, JobState::kDone);
}

TEST(Server, SubSizedJobRunsOnASplitOfThePool) {
  ServerOptions opts;
  opts.pool_ranks = 8;
  Server server(opts);
  JobSpec spec = small_spgemm("alice");
  spec.ranks = 4;  // half the pool idles through the split
  const std::string id = server.submit(std::move(spec));
  const JobRecord& job = server.wait(id);
  EXPECT_EQ(job.state, JobState::kDone) << job.reason;
  EXPECT_GT(job.c.nnz(), 0);
}

// The product is delivered to rank 0 only: rec.c is the serial reference
// bit for bit, and the job's Result-Gather traffic is exactly the packed
// blocks of ranks 1..p-1 — a broadcast back to every rank would add to it.
TEST(Server, SpGemmResultIsGatheredToRankZeroOnly) {
  for (const int layers : {1, 4}) {
    for (const bool sort_final : {true, false}) {
      SCOPED_TRACE("l=" + std::to_string(layers) +
                   " sort_final=" + std::to_string(sort_final));
      Server server(ServerOptions{});
      JobSpec spec = small_spgemm("alice", 11);
      // Unit values keep every partial sum an exact integer, so any
      // summation order gives the reference's bits.
      spec.a.er.random_values = false;
      spec.layers = layers;
      spec.sort_final = sort_final;
      const JobRecord& job = server.wait(server.submit(std::move(spec)));
      ASSERT_EQ(job.state, JobState::kDone) << job.reason;
      const CscMat expected =
          reference_multiply<PlusTimes>(job.in_a, job.in_b);
      testing::expect_mat_identical(job.c, expected);

      std::atomic<Bytes> non_root_blocks{0};
      vmpi::run(4, [&](vmpi::Comm& world) {
        Grid3D grid(world, layers);
        const DistMat3D block = distribute_a_style(grid, expected);
        if (world.rank() != 0) non_root_blocks += packed_block_size(block);
      });
      ASSERT_TRUE(job.report.run.has_value());
      const auto& phases = job.report.run->phases;
      const auto it = phases.find(steps::kResultGather);
      ASSERT_NE(it, phases.end());
      EXPECT_EQ(it->second.total.bytes, non_root_blocks.load());
      EXPECT_EQ(it->second.total.messages, 3u);
      EXPECT_GT(it->second.seconds_max, 0.0);
    }
  }
}

/// R-MAT A² at p=4, l=4: one layer per rank, so the layer split of the
/// inner index is the whole per-rank work split.
JobSpec layered_rmat(std::string tenant, int scale, std::uint64_t seed) {
  JobSpec s;
  s.tenant = std::move(tenant);
  s.op = JobOp::kSpGemm;
  s.a = MatrixSource::rmat_graph(scale, 8.0, seed);
  s.ranks = 4;
  s.layers = 4;
  return s;
}

// The inner index is relabeled at submit, so the four layers share the
// multiply: the most loaded rank's unmerged output sits near the mean
// (the raw order gives it about 2.4x the mean), and rec.c is still the
// user's A² bit for bit.
TEST(Server, LayeredJobBalancesItsLayersAndKeepsTheProduct) {
  Server server(ServerOptions{});
  JobSpec spec = layered_rmat("alice", 10, 9001);
  // Unit values keep every partial sum an exact integer.
  spec.a.rmat.random_values = false;
  const CscMat a = spec.a.materialize();
  const JobRecord& job = server.wait(server.submit(spec));
  ASSERT_EQ(job.state, JobState::kDone) << job.reason;
  const obs::JobAdmission& adm = job.admission;
  ASSERT_GT(adm.total_unmerged_nnz, 0);
  EXPECT_LE(4.0 * static_cast<double>(adm.max_nnz_c),
            1.25 * static_cast<double>(adm.total_unmerged_nnz));
  const obs::JobAdmission raw = estimate_admission(spec, a, a).admission;
  EXPECT_GT(4.0 * static_cast<double>(raw.max_nnz_c),
            2.0 * static_cast<double>(raw.total_unmerged_nnz));
  testing::expect_mat_identical(job.c, reference_multiply<PlusTimes>(a, a));
}

TEST(Server, LayeredJobMatchesTheReferenceForEveryKernel) {
  for (const std::string kernel : {"hash", "hybrid"}) {
    for (const bool sort_final : {true, false}) {
      for (const bool aat : {false, true}) {
        SCOPED_TRACE(kernel + " sort_final=" + std::to_string(sort_final) +
                     " aat=" + std::to_string(aat));
        Server server(ServerOptions{});
        JobSpec spec = layered_rmat("alice", 8, 5);
        spec.a.rmat.random_values = false;
        spec.kernel = kernel;
        spec.sort_final = sort_final;
        spec.aat = aat;
        spec.force_batches = 2;
        const CscMat a = spec.a.materialize();
        const JobRecord& job = server.wait(server.submit(spec));
        ASSERT_EQ(job.state, JobState::kDone) << job.reason;
        testing::expect_mat_identical(
            job.c,
            reference_multiply<PlusTimes>(a, aat ? a.transpose() : a));
      }
    }
  }
}

TEST(Server, StructuralErrorsThrowInsteadOfRecording) {
  Server server(ServerOptions{});
  JobSpec too_wide = small_spgemm("alice");
  too_wide.ranks = 16;  // pool has 4
  EXPECT_THROW(server.submit(std::move(too_wide)), InvalidArgument);

  JobSpec invalid;  // no input operand
  EXPECT_THROW(server.submit(std::move(invalid)), InvalidArgument);

  JobSpec dup = small_spgemm("alice");
  dup.job_id = "same";
  server.submit(std::move(dup));
  JobSpec dup2 = small_spgemm("alice");
  dup2.job_id = "same";
  EXPECT_THROW(server.submit(std::move(dup2)), InvalidArgument);
}

// One tenant's injected crash is recovered by per-job supervision: the pool
// survives, the job restarts (disarming the fired fault) and completes.
TEST(FaultSvc, SupervisedCrashRecoversOnTheResidentPool) {
  Server server(ServerOptions{});
  JobSpec chaos = small_spgemm("chaos");
  chaos.fault_spec =
      "seed=" + std::to_string(fault_seed()) + ";crash_rank=2;crash_op=10";
  chaos.max_restarts = 3;
  const std::string id = server.submit(std::move(chaos));
  const JobRecord& job = server.wait(id);
  EXPECT_EQ(job.state, JobState::kDone) << job.reason;
  EXPECT_EQ(job.report.billing.restarts, 1u);
  ASSERT_EQ(job.report.billing.recovered_failure_kinds.size(), 1u);
  EXPECT_EQ(job.report.billing.recovered_failure_kinds[0], "rank_crash");

  // The pool is not poisoned: a clean tenant's job runs right after.
  const std::string clean = server.submit(small_spgemm("clean"));
  EXPECT_EQ(server.wait(clean).state, JobState::kDone);
}

// The server drives its restarts through the same vmpi::SupervisionChain as
// vmpi::run_supervised: under one FaultPlan and SupervisorOptions both
// record the same failure kinds and the same backoff ladder.
TEST(FaultSvc, SupervisedJobRestartsLikeRunSupervised) {
  JobSpec chaos = small_spgemm("chaos");
  chaos.fault_spec =
      "seed=" + std::to_string(fault_seed()) + ";crash_rank=2;crash_op=10";
  chaos.max_restarts = 3;
  const vmpi::SupervisedResult direct = vmpi::run_supervised(
      chaos.ranks,
      [](vmpi::Comm& comm) {
        for (int i = 0; i < 32; ++i) comm.barrier();
      },
      chaos.supervisor_options());
  ASSERT_TRUE(direct.recovered());

  Server server(ServerOptions{});
  const JobRecord& job = server.wait(server.submit(std::move(chaos)));
  ASSERT_EQ(job.state, JobState::kDone) << job.reason;
  ASSERT_TRUE(job.report.run.has_value());
  ASSERT_TRUE(job.report.run->recovery.has_value());
  const obs::RecoveryReport& rec = *job.report.run->recovery;
  EXPECT_EQ(rec.restarts, direct.restarts);
  EXPECT_EQ(rec.max_restarts, direct.max_restarts);
  EXPECT_EQ(rec.failure_kinds, (std::vector<std::string>{"rank_crash"}));
  ASSERT_EQ(direct.recovered_failures.size(), 1u);
  EXPECT_EQ(direct.recovered_failures[0].kind, "rank_crash");
  EXPECT_EQ(rec.backoff_plan_us, direct.backoff_plan_us);
  EXPECT_EQ(rec.backoff_plan_us.size(), 1u);
  EXPECT_EQ(rec.backoff_us.size(), rec.backoff_plan_us.size());
}

// At l = 4 a crashed attempt resumes from its checkpoints and computes the
// remaining batches on the same relabeled operands: with random values
// (where summation order shows in the bits) the product equals a
// fault-free run of the same job.
//
// The crash lands on the crashing rank's first vmpi op of batch 2 (of 4).
// A crash is not a barrier, so peers may stand a batch apart; at that op
// every peer has sent its batch-1 pieces to the crashing rank (so has
// saved batch 0), and none can finish batch 2 (the crashing rank sent it
// nothing). The resume is therefore certain whatever the thread timing:
// a crash inside batch 1 resumes only when every peer happens to have
// saved batch 0 already. Ranks 1 and 3 run 6 ops before the batch loop,
// rank 2 runs 10, and each batch costs 6 (three sends, three receives).
TEST(FaultSvc, LayeredCrashResumesOnTheSameRelabeledOperands) {
  JobSpec spec = layered_rmat("chaos", 9, 2);
  spec.force_batches = 4;
  Server reference(ServerOptions{});
  const JobRecord& clean = reference.wait(reference.submit(spec));
  ASSERT_EQ(clean.state, JobState::kDone) << clean.reason;

  const std::string dir = ::testing::TempDir() + "/casp_server_layered_s" +
                          std::to_string(fault_seed());
  std::filesystem::remove_all(dir);
  spec.ckpt_dir = dir;
  spec.max_restarts = 2;
  const std::uint64_t crash_rank = 1 + fault_seed() % 3;
  const std::uint64_t crash_op = (crash_rank == 2 ? 10 : 6) + 2 * 6 + 1;
  spec.fault_spec = "seed=" + std::to_string(fault_seed()) +
                    ";crash_rank=" + std::to_string(crash_rank) +
                    ";crash_op=" + std::to_string(crash_op);
  Server server(ServerOptions{});
  const JobRecord& job = server.wait(server.submit(spec));
  ASSERT_EQ(job.state, JobState::kDone) << job.reason;
  EXPECT_EQ(job.report.billing.restarts, 1u);
  ASSERT_TRUE(job.report.run.has_value());
  ASSERT_TRUE(job.report.run->recovery.has_value());
  // Some batches came from the checkpoints, the rest were computed fresh.
  EXPECT_GE(job.report.run->recovery->resumed_generation, 0);
  EXPECT_LT(job.report.run->recovery->resumed_generation, 3);
  testing::expect_mat_identical(job.c, clean.c);
  std::filesystem::remove_all(dir);
}

// A crash-loop tenant: two independent fault kinds, restart budget of one.
// Attempt 1 dies (say retry_exhausted), the supervisor disarms that fault
// and spends the only restart, attempt 2 dies on the other fault
// (rank_crash) with the budget exhausted — the job fails, the pool and the
// other tenants don't.
TEST(FaultSvc, CrashLoopExhaustsRestartsWithoutPoisoningThePool) {
  Server server(ServerOptions{});
  JobSpec loop = small_spgemm("chaos");
  loop.fault_spec = "seed=" + std::to_string(fault_seed()) +
                    ";send_fail=1.0;crash_rank=1;crash_op=15";
  loop.max_restarts = 1;
  const std::string id = server.submit(std::move(loop));
  const JobRecord& job = server.wait(id);
  EXPECT_EQ(job.state, JobState::kFailed);
  EXPECT_EQ(job.report.billing.restarts, 1u);
  EXPECT_FALSE(job.reason.empty());
  EXPECT_EQ(server.tenant("chaos").reserved(), 0u);

  const std::string clean = server.submit(small_spgemm("clean"));
  EXPECT_EQ(server.wait(clean).state, JobState::kDone);
}

// Unsupervised fault: the failure is captured as a structured kFailed
// record (never an exception, never a poisoned pool).
TEST(FaultSvc, UnsupervisedCrashBecomesAFailedRecord) {
  Server server(ServerOptions{});
  JobSpec chaos = small_spgemm("chaos");
  chaos.fault_spec =
      "seed=" + std::to_string(fault_seed()) + ";crash_rank=1;crash_op=10";
  const std::string id = server.submit(std::move(chaos));
  const JobRecord& job = server.wait(id);
  EXPECT_EQ(job.state, JobState::kFailed);
  EXPECT_NE(job.reason.find("rank_crash"), std::string::npos) << job.reason;

  const std::string clean = server.submit(small_spgemm("clean"));
  EXPECT_EQ(server.wait(clean).state, JobState::kDone);
}

}  // namespace
}  // namespace casp::svc
