#!/usr/bin/env python3
"""Build and run the end-to-end service benchmark.

Run from the repository root:

    python3 bench_e2e/run.py --workload square-gather --seed 1 --seconds 20 --trace 0

The first run configures and builds bench_e2e/ (which compiles the library
from src/) into $CARGO_TARGET_DIR/bench_e2e, or .bench_build/bench_e2e when
that variable is unset; later runs only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
Inputs, checkpoints and Chrome traces are written under .bench_e2e/.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> pathlib.Path:
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "bench_e2e"


def cached_source(cache: pathlib.Path) -> str:
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return line.split("=", 1)[1]
    return ""


def build() -> pathlib.Path:
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.exists() and cached_source(cache) != str(HERE):
        shutil.rmtree(out)  # configured for another checkout
    if not cache.exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"],
                   check=True, stdout=sys.stderr)
    return out / "bench_e2e"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs (self-test only; metrics are not comparable)")
    args = ap.parse_args()
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"bench_e2e: build failed: {e}", file=sys.stderr)
        return 1
    work = ROOT / ".bench_e2e"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(work / "work"), "--trace-dir", str(work / "traces")]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
