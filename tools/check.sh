#!/usr/bin/env bash
# Repo verification gate — run before merging. Exits nonzero on the first
# failure. Stages:
#   (a) static lint        tools/casp_lint.py (+ clang-tidy when installed)
#   (b) release            configure + build + full ctest
#   (c) thread sanitizer   configure + build + ctest -L tsan-safe
#   (d) address/UB san     configure + build + full ctest
#   (e) perf diff          rerun perf benches, tools/perf_diff.py vs the
#                          committed BENCH_*.json snapshots
#   (f) fault matrix       the Fault* suites under several CASP_FAULT_SEED
#                          values (deterministic fault-injection sweep)
#   (g) crash recovery     the Recovery* suites under several
#                          CASP_FAULT_SEED values (checkpoint/restart:
#                          crashed jobs must recover bit-identically)
#   (h) schedule sweep     casp-verify: the SPMD corpus across 32 seeded
#                          schedules plus fault seeds 1-3 — known bugs must
#                          be rediscovered with a replayable schedule, good
#                          programs must stay clean on every schedule
#   (i) service soak       spgemm_serve drains a mixed SpGEMM/MCL multi-
#                          tenant queue (one crashing tenant) twice on a
#                          resident pool; the per-job deterministic reports
#                          must be byte-identical across the two runs.
#                          Then a mixed-deadline queue drains at
#                          --concurrency 2 (EDF over disjoint 9-rank pool
#                          splits) twice plus once serially — all three
#                          report files must be byte-identical
#   (j) chaos soak         casp_chaos: >= 20 jobs from 3 tenants under
#                          sustained seeded faults (delays, transient sends,
#                          corruption, transient + permanent crashes, alloc
#                          faults, a deadline storm) — zero wedges,
#                          degraded-grid bit-identity, reconciled billing,
#                          double-drain determinism byte-compare; then the
#                          --churn membership storm (auto-rejoin, regrow,
#                          flapper quarantine) swept over seeds 1-3
#   (k) bench self-test    bench_e2e/selftest.py: builds the end-to-end
#                          service benchmark and runs every workload tiny
#                          on the development and held-out seeds — metric
#                          names/units and output verification must hold
#   (l) figure smoke       every paper-figure binary (bench_fig*,
#                          bench_table*, bench_ablations) runs once and
#                          must exit 0
#
# Usage: tools/check.sh [--skip-tsan] [--skip-asan] [--skip-perf]
#                       [--skip-faults] [--skip-recovery] [--skip-sched]
#                       [--skip-serve] [--skip-chaos] [--skip-bench-selftest]
#                       [--skip-figures]
# CASP_PERF_THRESHOLD tunes stage (e)'s allowed slowdown (default 0.25).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 2)
SKIP_TSAN=0
SKIP_ASAN=0
SKIP_PERF=0
SKIP_FAULTS=0
SKIP_RECOVERY=0
SKIP_SCHED=0
SKIP_SERVE=0
SKIP_CHAOS=0
SKIP_BENCH_SELFTEST=0
SKIP_FIGURES=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-asan) SKIP_ASAN=1 ;;
    --skip-perf) SKIP_PERF=1 ;;
    --skip-faults) SKIP_FAULTS=1 ;;
    --skip-recovery) SKIP_RECOVERY=1 ;;
    --skip-sched) SKIP_SCHED=1 ;;
    --skip-serve) SKIP_SERVE=1 ;;
    --skip-chaos) SKIP_CHAOS=1 ;;
    --skip-bench-selftest) SKIP_BENCH_SELFTEST=1 ;;
    --skip-figures) SKIP_FIGURES=1 ;;
    *) echo "usage: tools/check.sh [--skip-tsan] [--skip-asan] [--skip-perf] [--skip-faults] [--skip-recovery] [--skip-sched] [--skip-serve] [--skip-chaos] [--skip-bench-selftest] [--skip-figures]" >&2; exit 2 ;;
  esac
done

step() { printf '\n== %s ==\n' "$*"; }

step "(a) lint: tools/casp_lint.py"
python3 tools/casp_lint.py --root .

if command -v clang-tidy > /dev/null 2>&1; then
  step "(a) lint: clang-tidy (src/, config in .clang-tidy)"
  cmake --preset release -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  { find src -name '*.cpp' -print0; printf '%s\0' tools/sched_corpus.cpp; } |
    xargs -0 clang-tidy -p build/release --quiet
else
  echo "clang-tidy not installed — skipping (casp_lint covers the repo rules)"
fi

step "(b) release build + full test suite"
cmake --preset release
cmake --build --preset release -j "$JOBS"
ctest --test-dir build/release --output-on-failure -j "$JOBS"

if [ "$SKIP_TSAN" = 1 ]; then
  echo "skipping ThreadSanitizer stage (--skip-tsan)"
else
  step "(c) ThreadSanitizer build + ctest -L tsan-safe"
  cmake --preset tsan
  cmake --build --preset tsan -j "$JOBS"
  ctest --test-dir build/tsan -L tsan-safe --output-on-failure -j "$JOBS"
fi

if [ "$SKIP_ASAN" = 1 ]; then
  echo "skipping Address/UBSanitizer stage (--skip-asan)"
else
  step "(d) Address+UBSanitizer build + full test suite"
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "$JOBS"
  ctest --test-dir build/asan-ubsan --output-on-failure -j "$JOBS"
fi

if [ "$SKIP_PERF" = 1 ]; then
  echo "skipping perf-diff stage (--skip-perf)"
else
  step "(e) perf diff vs committed BENCH_*.json snapshots"
  # The benches write their JSON into the cwd; run them in a scratch dir so
  # a passing check never touches the committed snapshots.
  PERF_DIR=$(mktemp -d)
  trap 'rm -rf "$PERF_DIR"' EXIT
  # perf_bench <bench-binary> <json-name> [extra perf_diff args...]
  # A regression must be *reproducible* to fail the gate: on a diff
  # failure the bench reruns (up to 3 attempts total) and only a
  # persistent slowdown fails. A real regression fails every attempt; a
  # scheduling-noise spike on this oversubscribed single core does not.
  perf_bench() {
    local bench="$1" json="$2"
    shift 2
    local attempt
    for attempt in 1 2 3; do
      (cd "$PERF_DIR" && "$OLDPWD/build/release/bench/$bench" > "$bench.log")
      if python3 tools/perf_diff.py --base "$json" \
           --fresh "$PERF_DIR/$json" "$@"; then
        return 0
      fi
      echo "-- $bench: diff failed (attempt $attempt/3), retrying"
    done
    echo "-- $bench: regression reproduced on all attempts" >&2
    return 1
  }
  perf_bench bench_micro_kernels BENCH_kernels.json
  # The abcast time band is wider: its μs-scale broadcast timings swing up
  # to ~1.8x against the run median on an oversubscribed single core
  # (measured over 12 runs), so 0.25 would flag pure scheduling noise.
  # The payload deep-copy comparison — the actual zero-copy guarantee —
  # stays exact regardless of the threshold.
  perf_bench bench_fig5_abcast_scaling BENCH_abcast.json \
    --threshold "${CASP_ABCAST_THRESHOLD:-1.0}"
  # Hook-site overhead: release builds must carry zero CASP_SCHED_EVENT
  # code. The bench's anchor-* ops have no hook sites and pin the
  # median-normalized ratio, so hook code leaking back into release
  # codegen fails the hook-laden ops here; deep-copy counts (the steal
  # and transport ops must stay copy-free) are compared exactly.
  perf_bench bench_sched_overhead BENCH_sched_overhead.json
  # Sparse A-exchange gate: the binary itself asserts >= 30% A-Bcast byte
  # savings and zero added deep copies (exit nonzero otherwise); perf_diff
  # then compares the snapshot. End-to-end SUMMA walls swing hard on an
  # oversubscribed core, so the time band is wide — the byte and copy
  # comparisons don't depend on it.
  perf_bench bench_sparse_exchange BENCH_sparse_exchange.json \
    --threshold "${CASP_SPARSE_THRESHOLD:-1.0}"
fi

if [ "$SKIP_FAULTS" = 1 ]; then
  echo "skipping fault-matrix stage (--skip-faults)"
else
  step "(f) fault matrix: Fault*/ElasticSvc suites across seeds"
  # Same binaries, different deterministic fault schedules. Every seed must
  # classify each injected fault (never hang — CTest timeouts bound it).
  # ElasticSvc moves the crashed rank / crash op with the seed too: each
  # seed kills a different rank and the elastic job must still finish
  # bit-identically on the survivor grid.
  for seed in 1 2 3; do
    echo "-- CASP_FAULT_SEED=$seed"
    CASP_FAULT_SEED=$seed ctest --test-dir build/release \
      -R '^Fault|^ElasticSvc' --output-on-failure -j "$JOBS"
  done
fi

if [ "$SKIP_RECOVERY" = 1 ]; then
  echo "skipping crash-recovery stage (--skip-recovery)"
else
  step "(g) crash recovery: Recovery* suites across seeds"
  # Checkpoint/restart sweep: each seed crashes a different rank schedule;
  # the supervised rerun must fast-forward from the newest valid snapshot
  # and reproduce the fault-free results bit-identically.
  for seed in 1 2 3; do
    echo "-- CASP_FAULT_SEED=$seed"
    CASP_FAULT_SEED=$seed ctest --test-dir build/release -R '^Recovery' \
      --output-on-failure -j "$JOBS"
  done
fi

if [ "$SKIP_SCHED" = 1 ]; then
  echo "skipping schedule-exploration stage (--skip-sched)"
else
  step "(h) schedule sweep: casp-verify corpus, 32 schedules x fault seeds 1-3"
  cmake --preset sched
  cmake --build --preset sched -j "$JOBS" --target casp_verify test_sched
  # Acceptance tests first (replay determinism, known-bug rediscovery with
  # exact replay), then the full sweep: 32 seeded schedules per program,
  # fault-free, plus a transient-send-failure plan swept over seeds 1-3 so
  # retry-loop interleavings get explored too.
  ctest --test-dir build/sched -R '^Sched' --output-on-failure -j "$JOBS"
  ./build/sched/tools/casp_verify --schedules=32 --systematic
  # The good programs additionally sweep a transient-send-failure plan:
  # retry-loop interleavings must stay clean too. (The buggy programs'
  # expectations are proven fault-free above — injected faults would only
  # add noise to what they're expected to find.)
  ./build/sched/tools/casp_verify --schedules=8 \
    --faults="send_fail=0.05" --fault-seeds=1,2,3 \
    bcast_tree pipeline_ibcast ckpt_consensus rebatch_consensus \
    sole_owner_handoff
fi

if [ "$SKIP_SERVE" = 1 ]; then
  echo "skipping service-soak stage (--skip-serve)"
else
  step "(i) service soak: deterministic multi-job queue, double-run byte-compare"
  # A mixed SpGEMM/MCL queue from three tenants on one resident pool: one
  # tenant injects a crash (supervised, must recover without taking the
  # pool down), one runs under a tight traffic quota (its second job must
  # be throttled while the others proceed). Drained twice; the per-job
  # deterministic reports must be byte-identical across the two runs.
  SERVE_DIR=$(mktemp -d)
  trap 'rm -rf "${PERF_DIR:-}" "$SERVE_DIR"' EXIT
  cat > "$SERVE_DIR/jobs.json" <<'EOF'
[
  {"tenant": "alice", "op": "spgemm",
   "a": {"kind": "er", "er": {"nrows": 56, "ncols": 56, "nnz_per_col": 3.0, "seed": 100}},
   "ranks": 4, "memory_bytes": 16777216},
  {"tenant": "alice", "op": "spgemm", "aat": true,
   "a": {"kind": "er", "er": {"nrows": 56, "ncols": 56, "nnz_per_col": 3.0, "seed": 101}},
   "ranks": 4},
  {"tenant": "bob", "op": "mcl", "priority": 2,
   "a": {"kind": "protein", "protein": {"n": 40, "seed": 200}},
   "ranks": 4, "mcl": {"max_iterations": 5}},
  {"tenant": "bob", "op": "mcl",
   "a": {"kind": "protein", "protein": {"n": 40, "seed": 201}},
   "ranks": 4, "mcl": {"max_iterations": 5}},
  {"tenant": "alice", "op": "triangle",
   "a": {"kind": "rmat", "rmat": {"scale": 6, "edge_factor": 4.0, "seed": 300}},
   "ranks": 4},
  {"tenant": "chaos", "op": "spgemm",
   "a": {"kind": "er", "er": {"nrows": 48, "ncols": 48, "nnz_per_col": 3.0, "seed": 400}},
   "ranks": 4, "fault_spec": "seed=1;crash_rank=2;crash_op=15", "max_restarts": 2}
]
EOF
  for pass in 1 2; do
    ./build/release/tools/spgemm_serve "$SERVE_DIR/jobs.json" \
      --quota 'bob:0:100000' \
      --reports "$SERVE_DIR/reports.$pass.json" \
      --tenant-reports "$SERVE_DIR/tenants.$pass.json" \
      --deterministic
  done
  cmp "$SERVE_DIR/reports.1.json" "$SERVE_DIR/reports.2.json"
  # The crashing tenant recovered (restarts billed) and bob's quota bit.
  grep -q '"restarts": 1' "$SERVE_DIR/reports.1.json"
  grep -q '"state": "throttled"' "$SERVE_DIR/reports.1.json"
  echo "service soak: reports byte-identical across runs"

  # Deadline-aware concurrent drain: a mixed-deadline 3-tenant queue on a
  # 9-rank pool with up to 2 jobs in flight on disjoint splits. EDF
  # ordering is exercised by the deadline_ms jobs (budgets generous enough
  # that the watchdog never fires); the supervised crash job recovers on
  # its own split. Drained twice at K=2 (byte-identical deterministic
  # reports) and once serially — the concurrent drain must reproduce the
  # serial drain's reports byte-for-byte, billing included.
  cat > "$SERVE_DIR/jobs_edf.json" <<'EOF'
[
  {"tenant": "alice", "op": "spgemm",
   "a": {"kind": "er", "er": {"nrows": 56, "ncols": 56, "nnz_per_col": 3.0, "seed": 100}},
   "ranks": 4, "memory_bytes": 16777216},
  {"tenant": "bob", "op": "mcl", "priority": 2,
   "a": {"kind": "protein", "protein": {"n": 40, "seed": 200}},
   "ranks": 4, "mcl": {"max_iterations": 5}},
  {"tenant": "chaos", "op": "spgemm", "deadline_ms": 60000,
   "a": {"kind": "er", "er": {"nrows": 48, "ncols": 48, "nnz_per_col": 3.0, "seed": 400}},
   "ranks": 4},
  {"tenant": "alice", "op": "spgemm", "deadline_ms": 120000, "priority": 2,
   "a": {"kind": "er", "er": {"nrows": 56, "ncols": 56, "nnz_per_col": 3.0, "seed": 101}},
   "ranks": 4},
  {"tenant": "bob", "op": "triangle",
   "a": {"kind": "rmat", "rmat": {"scale": 6, "edge_factor": 4.0, "seed": 300}},
   "ranks": 4},
  {"tenant": "chaos", "op": "spgemm",
   "a": {"kind": "er", "er": {"nrows": 48, "ncols": 48, "nnz_per_col": 3.0, "seed": 401}},
   "ranks": 4, "fault_spec": "seed=1;crash_rank=2;crash_op=15", "max_restarts": 2}
]
EOF
  for pass in 1 2; do
    ./build/release/tools/spgemm_serve "$SERVE_DIR/jobs_edf.json" \
      --pool-ranks 9 --concurrency 2 \
      --reports "$SERVE_DIR/edf.k2.$pass.json" --deterministic
  done
  cmp "$SERVE_DIR/edf.k2.1.json" "$SERVE_DIR/edf.k2.2.json"
  ./build/release/tools/spgemm_serve "$SERVE_DIR/jobs_edf.json" \
    --pool-ranks 9 --concurrency 1 \
    --reports "$SERVE_DIR/edf.serial.json" --deterministic
  cmp "$SERVE_DIR/edf.k2.1.json" "$SERVE_DIR/edf.serial.json"
  grep -q '"restarts": 1' "$SERVE_DIR/edf.k2.1.json"
  echo "concurrent drain: K=2 reports byte-identical to the serial drain"
fi

if [ "$SKIP_CHAOS" = 1 ]; then
  echo "skipping chaos-soak stage (--skip-chaos)"
else
  step "(j) chaos soak: casp_chaos, 24 jobs / 3 tenants under sustained faults"
  # The tool drains the chaos queue twice internally (double-drain
  # determinism) plus once fault-free (the bit-identity reference), and
  # exits nonzero on any violated gate: a wedged job, an unclassified
  # failure, a degraded elastic job whose product diverged, a tenant whose
  # billing does not reconcile, or reports that differ across drains.
  CHAOS_DIR=$(mktemp -d)
  trap 'rm -rf "${PERF_DIR:-}" "${SERVE_DIR:-}" "$CHAOS_DIR"' EXIT
  ./build/release/tools/casp_chaos --jobs 24 --tenants 3 \
    --seed "${CASP_FAULT_SEED:-1}" --ckpt-root "$CHAOS_DIR/ckpt" \
    --reports "$CHAOS_DIR/reports.json"
  # Membership-churn storm (DESIGN.md §5k): the same queue with
  # auto-rejoin — every permanent crash's replacement enters probation,
  # one seeded flapper corrupts its handshake on every attempt. Swept over
  # seeds 1-3 so the crash victim / flapping rank rotate: every seed must
  # show a regrown job, a quarantined flapper, zero wedges, and keep the
  # bit-identity + double-drain gates.
  for seed in 1 2 3; do
    echo "-- churn seed $seed"
    ./build/release/tools/casp_chaos --jobs 24 --tenants 3 --churn \
      --seed "$seed" --ckpt-root "$CHAOS_DIR/churn$seed"
  done
fi

if [ "$SKIP_BENCH_SELFTEST" = 1 ]; then
  echo "skipping bench self-test stage (--skip-bench-selftest)"
else
  step "(k) bench self-test: bench_e2e/selftest.py"
  # The gated end-to-end benchmark builds its own copy of src/ (into
  # $CARGO_TARGET_DIR/bench_e2e or .bench_build/bench_e2e); no other stage
  # compiles it or checks that it still verifies every job's output.
  python3 bench_e2e/selftest.py
fi

if [ "$SKIP_FIGURES" = 1 ]; then
  echo "skipping figure smoke stage (--skip-figures)"
else
  step "(l) figure smoke: every bench_fig*/bench_table*/bench_ablations runs"
  # The paper-figure binaries are not perf-gated, so nothing else runs
  # them; an abort in one (e.g. reading a step a run no longer records)
  # would otherwise pass every gate. They write files into the cwd, so run
  # them in a scratch dir.
  FIG_DIR=$(mktemp -d)
  trap 'rm -rf "${PERF_DIR:-}" "${SERVE_DIR:-}" "${CHAOS_DIR:-}" "$FIG_DIR"' EXIT
  for bin in build/release/bench/bench_fig* build/release/bench/bench_table* \
             build/release/bench/bench_ablations; do
    name=$(basename "$bin")
    if ! (cd "$FIG_DIR" && "$OLDPWD/$bin" > "$name.log" 2>&1); then
      echo "-- $name failed; last lines of its output:" >&2
      tail -n 20 "$FIG_DIR/$name.log" >&2
      exit 1
    fi
    echo "-- $name ok"
  done
fi

step "all gates passed"
