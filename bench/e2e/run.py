#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 bench/e2e/run.py --workload zipf --seed 42 --seconds 15 --trace 0

Configures and builds bench/e2e (which builds the library at the
repository root) into build-bench/, runs snaple_bench once, relays its
report to stderr and prints its result as the last line of stdout:

    {"correct": true, "attempted": 66221, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced pass
instead, reports the per-layer metrics and leaves a Chrome/Perfetto trace
under build-bench/e2e-runs/. The run's full artifact (manifest, gates,
digests, sample counts) is written there too. Exits non-zero
without a result when the build or the run fails, and non-zero with the
result when a gate failed, an operation failed or a metric is missing.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build-bench"
RUNS = BUILD / "e2e-runs"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs cmd with its output sent to stderr; True on exit status 0."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"run.py: {' '.join(map(str, cmd))}: {err}")
        return False
    return done.returncode == 0


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"run.py: no library sources at {ROOT}; cannot build")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        if not run_quiet(["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B",
                          str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                         BUILD_TIMEOUT_S):
            return None
    if not run_quiet(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                      "snaple_bench"], BUILD_TIMEOUT_S):
        return None
    binary = BUILD / "snaple_bench"
    return binary if binary.is_file() else None


def commit():
    """The commit under test, for the run manifest."""
    if os.environ.get("SNAPLE_BENCH_COMMIT"):
        return os.environ["SNAPLE_BENCH_COMMIT"]
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("run.py: build failed")
        return 1

    RUNS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    artifact = RUNS / f"{stem}.json"
    workdir = RUNS / f"work-{stem}"
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--json={artifact}",
           f"--workdir={workdir}"]
    if args.trace:
        cmd.append(f"--trace={RUNS / (stem + '.trace.json')}")
    env = dict(os.environ, SNAPLE_BENCH_COMMIT=commit())
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, env=env,
                              check=False)
    except subprocess.TimeoutExpired:
        log(f"run.py: snaple_bench exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        log(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        if lines:
            log(lines[-1])
        log(f"run.py: snaple_bench exited {done.returncode} without a result")
        return 1
    print(json.dumps(result), flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
