#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Runs every workload named in BENCHMARK.json, and the ungated service-mix
workload (see README.md), at a tiny size, with tracing off and on, for the
development seed and the held-out seed, and checks that:

- the last stdout line is the result object with exactly the keys
  correct / attempted / failed / metrics;
- every end_to_end metric (--trace 0) or per_layer metric (--trace 1) of
  BENCHMARK.json is emitted, with its unit, as a finite number, and nothing
  else is;
- output verification ran: the run reports verified jobs and no wrong output;
- the traced run wrote a Chrome trace holding both benchmark spans and the
  jobs' step spans.

Run from the repository root:  python3 bench_e2e/selftest.py
Exits 0 when every check passes.
"""

import json
import math
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (1, 9001)  # development seed, held-out seed (see README.md)
UNGATED = ("service-mix",)  # runnable, but not in BENCHMARK.json (README.md)


def run(workload: str, seed: int, trace: int) -> str:
    cmd = [sys.executable, str(ROOT / "bench_e2e" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr[-3000:]}")
    return p.stdout


def check(spec: dict, workload: str, seed: int, trace: int) -> None:
    out = run(workload, seed, trace)
    where = f"{workload} seed {seed} trace {trace}"
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: outputs not correct"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"], where
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(wanted), f"{where}: metric names differ: {set(got) ^ set(wanted)}"
    for name, unit in wanted.items():
        assert set(got[name]) == {"value", "unit"}, f"{where}: {name}"
        assert got[name]["unit"] == unit, f"{where}: {name} unit {got[name]['unit']} != {unit}"
        value = got[name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {name}"
    m = re.search(r"^# outputs correct: attempted (\d+), verified (\d+), failed (\d+) "
                  r"\(wrong output 0, unclassified 0\)$", out, re.M)
    assert m and int(m.group(2)) >= 1, f"{where}: output verification did not run"
    if trace:
        m = re.search(r"^# chrome trace (\S+) \((\d+) spans\); tracing overhead", out, re.M)
        assert m, f"{where}: no trace line"
        doc = json.loads((ROOT / m.group(1)).read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"bench", "step"} <= cats, f"{where}: trace lacks bench or step spans"
    print(f"ok  {where}: {len(got)} metrics, {result['attempted']} jobs")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in [w["name"] for w in spec["workloads"]] + list(UNGATED):
        for seed in SEEDS:
            for trace in (0, 1):
                check(spec, name, seed, trace)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
