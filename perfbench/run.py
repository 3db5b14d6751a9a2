#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark harness from the checkout's sources (CMake, Release,
into .bench_build/perfbench), runs one workload and re-prints the harness's
result so that one JSON object is the last line of standard output.

    python3 perfbench/run.py --workload train-numeric --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Workloads: train-numeric, paper-timing, serve-open, fleet-train (see
perfbench/README.md). --trace 1 runs the separate traced pass: it prints the
per-layer metrics and writes its spans to .bench_build/spans/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("train-numeric", "paper-timing", "serve-open", "fleet-train")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root: Path) -> Path:
    bench_dir = root / "perfbench"
    build_dir = root / ".bench_build" / "perfbench"
    if not (root / "src" / "core" / "glp4nn.hpp").is_file():
        fail(f"no library sources under {root / 'src'}; run from a full checkout")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench_harness"])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries only results.
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out", 1)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 1)
    harness = build_dir / "perfbench_harness"
    if not harness.is_file():
        fail("build produced no harness binary", 1)
    return harness


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own self-tests instead")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    root = Path(__file__).resolve().parent.parent
    harness = build(root)

    if args.selftest:
        return subprocess.run([str(harness), "--selftest"], check=False).returncode

    cmd = [str(harness), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = root / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"harness exited with code {proc.returncode}", proc.returncode or 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("harness did not end with a JSON result", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("harness result has unexpected keys", 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
