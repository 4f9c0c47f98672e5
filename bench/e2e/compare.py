#!/usr/bin/env python3
"""Compare end-to-end benchmark runs under the noise rules of the benchmark.

Paired comparison of two source trees (this tree's benchmark is built
against each tree's library, so both sides run identical benchmark code):

    compare.py --parent ../parent --change . [--seed 1337] [--out DIR]

runs 10 alternating parent/change pairs (the side that goes first
alternates; pair i runs seed + i on both sides) of every workload, each run
as long as BENCHMARK.json's run_seconds, then reports, one row per workload
and metric, each side's median and quartiles and a verdict:

  gain        the change wins >= 90% of the pairs (ties count for neither)
              and the medians differ by more than the parent's IQR
  REGRESSION  the change's median is worse than the parent's by more than
              the metric's BENCHMARK.json bound
  unresolved  either side's IQR exceeds the bound (unless every change run
              beats every parent run)
  within      none of the above

The wall times and latencies every run reports but BENCHMARK.json does not
gate (LATENCIES below) get rows too, judged by the pair rule alone: "gain",
"LOSS" (the parent wins >= 90% and the gap exceeds its IQR) or "-". A LOSS
fails the comparison like a REGRESSION: the pair rule already demands a
gap wider than the noise.

A digest that differs between the sides (saved model bytes, served answers)
is a correctness failure: bit-identity is the spec. Artifacts whose
manifests differ in anything but the commit are refused.

    compare.py --repeat A B

checks that two sets of runs of ONE commit (directories of run artifacts)
agree: for every workload and end-to-end metric, the medians may differ by
no more than the bound, and neither set's IQR may exceed it (setup_s's IQR
excepted: a few short repetitions per run).

    compare.py --record OUT.json [--seed 42]

runs this tree's benchmark, 5 untraced runs and 1 traced run of every
workload, and writes every artifact plus a per-workload summary into one
results file (bench/e2e/results/<commit>.json).

Every mode covers every workload of BENCHMARK.json.

Exit status: 0 when nothing regressed or disagreed, 1 otherwise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEV_SEED = 42
CLAIM_SEED = 1337
PAIRS = 10
RECORD_RUNS = 5
RECORD_TRACED_RUNS = 1
# Reported wall times and latencies (artifact counts, lower is better): too
# noisy on a shared host to carry a bound, so only the pair rule judges them.
LATENCIES = ["setup.wall_s", "query.p50_us", "query.p90_us", "query.p99_us",
             "churn.staleness_p50_us", "churn.staleness_p90_us",
             "churn.query_p50_us"]


def load_benchmark(root=ROOT):
    with open(root / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3), the quartiles of statistics.quantiles(n=4)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(metric, parent, change):
    """How much worse change is than parent, as a share of parent."""
    if parent == 0:
        return 0.0
    gap = (change - parent) / abs(parent)
    return gap if metric["better"] == "lower" else -gap


def git_commit(tree):
    done = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def build(tree, build_dir):
    """Builds THIS tree's benchmark against the library of `tree`, so both
    sides of a comparison run identical benchmark code."""
    for cmd in (["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release", f"-DSNAPLE_ROOT={tree}"],
                ["cmake", "--build", str(build_dir), "-j", "4", "--target",
                 "snaple_bench"]):
        if subprocess.run(cmd, stdout=subprocess.DEVNULL, check=False).returncode:
            raise SystemExit(f"compare.py: build failed: {' '.join(cmd)}")
    return Path(build_dir) / "snaple_bench"


def run_once(binary, commit, workload, seed, seconds, trace, artifact):
    artifact = Path(artifact)
    workdir = artifact.with_suffix(".work")
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--json={artifact}", f"--workdir={workdir}"]
    if trace:
        cmd.append(f"--trace={artifact.with_suffix('.trace.json')}")
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL, check=False,
                          env={**os.environ, "SNAPLE_BENCH_COMMIT": commit})
    if not artifact.is_file():
        raise SystemExit(f"compare.py: no artifact from {' '.join(cmd)} "
                         f"(exit {done.returncode})")
    with open(artifact, encoding="utf-8") as f:
        return json.load(f)


def comparable(a, b, ignore=("commit",)):
    ma = {k: v for k, v in a["manifest"].items() if k not in ignore}
    mb = {k: v for k, v in b["manifest"].items() if k not in ignore}
    return ma == mb, ma, mb


def load_artifacts(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            data = json.load(fh)
        # A recorded results file holds many artifacts.
        out.extend(data["runs"] if "runs" in data else [data])
    return [a for a in out if not a["manifest"].get("traced")]


def by_workload(artifacts):
    groups = {}
    for a in artifacts:
        groups.setdefault(a["manifest"]["workload"], []).append(a)
    return groups


def values(runs, name, section="metrics"):
    """Every run's value of a metric, or with section="counts" of a count."""
    out = []
    for r in runs:
        v = r[section].get(name)
        if isinstance(v, dict):
            v = v.get("value")
        if v is not None:
            out.append(v)
    return out


# ---- --parent/--change ----------------------------------------------------

def cmd_pairs(args, bench):
    workloads = [w["name"] for w in bench["workloads"]]
    out_dir = Path(args.out or tempfile.mkdtemp(prefix="e2e-compare-"))
    out_dir.mkdir(parents=True, exist_ok=True)
    sides = {}
    for side, tree in (("parent", args.parent), ("change", args.change)):
        tree = Path(tree).resolve()
        sides[side] = (build(tree, out_dir / f"build-{side}"), git_commit(tree))
    runs = {(w, s): [] for w in workloads for s in sides}
    status = 0
    for i in range(PAIRS):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                art = out_dir / f"{side}-{w}-{i}.json"
                runs[(w, side)].append(run_once(*sides[side], w, args.seed + i,
                                                bench["run_seconds"], 0, art))
    for w in workloads:
        parent, change = runs[(w, "parent")], runs[(w, "change")]
        ok, mp, mc = comparable(parent[0], change[0])
        if not ok:
            print(f"{w}: manifests differ, refusing to compare:\n  {mp}\n  {mc}")
            return 1
        for p, c in zip(parent, change):
            if not (p["correct"] and c["correct"]):
                print(f"{w}: a run failed its correctness gates")
                status = 1
            if p["digests"] != c["digests"]:
                print(f"{w}: CORRECTNESS FAILURE — digests differ "
                      f"{p['digests']} vs {c['digests']}")
                status = 1
            if p["failed"] or c["failed"]:
                print(f"{w}: failed operations (parent {p['failed']}, "
                      f"change {c['failed']})")
                status = 1
    print(f"{'workload':10s} {'metric':24s} {'parent med [q1, q3]':>34s} "
          f"{'change med [q1, q3]':>34s} {'wins':>6s}  verdict")

    def row(w, name, pv, cv, lower, verdict):
        wins = sum(1 for p, c in zip(pv, cv) if (c < p if lower else c > p))
        pq, cq = quartiles(pv), quartiles(cv)
        print(f"{w:10s} {name:24s} "
              f"{pq[1]:12.4g} [{pq[0]:9.4g}, {pq[2]:9.4g}] "
              f"{cq[1]:12.4g} [{cq[0]:9.4g}, {cq[2]:9.4g}] "
              f"{wins:3d}/{len(pv):<2d}  {verdict}")

    for w in workloads:
        parent, change = runs[(w, "parent")], runs[(w, "change")]
        for m in bench["end_to_end"]:
            pv, cv = values(parent, m["name"]), values(change, m["name"])
            if not pv or not cv:
                continue
            verdict = judge(m, pv, cv)
            if verdict == "REGRESSION":
                status = 1
            row(w, m["name"], pv, cv, m["better"] == "lower", verdict)
        for name in LATENCIES:
            pv = values(parent, name, "counts")
            cv = values(change, name, "counts")
            if pv and cv and len(pv) == len(cv):
                verdict = {1: "gain", -1: "LOSS", 0: "-"}[pair_rule(pv, cv, True)]
                if verdict == "LOSS":
                    status = 1
                row(w, name, pv, cv, True, verdict)
    print(f"artifacts: {out_dir}")
    return status


def pair_rule(pv, cv, lower):
    """1 if the change wins >= 90% of the pairs and the medians differ by
    more than the parent's IQR; -1 if the parent does; 0 otherwise."""
    pq, cq = quartiles(pv), quartiles(cv)
    gap = cq[1] - pq[1]
    if abs(gap) <= pq[2] - pq[0]:
        return 0
    improved = gap < 0 if lower else gap > 0
    beats = sum(1 for p, c in zip(pv, cv)
                if (c < p if lower == improved else c > p))
    if beats < 0.9 * len(pv):
        return 0
    return 1 if improved else -1


def judge(metric, pv, cv):
    bound = metric["bound"]
    pq, cq = quartiles(pv), quartiles(cv)
    lower = metric["better"] == "lower"
    if pair_rule(pv, cv, lower) == 1:
        return "gain"
    if worse_by(metric, pq[1], cq[1]) > bound:
        return "REGRESSION"
    all_better = (max(cv) < min(pv)) if lower else (min(cv) > max(pv))
    if (spread(pv) > bound or spread(cv) > bound) and not all_better:
        return "unresolved"
    return "within"


# ---- --repeat --------------------------------------------------------------

def cmd_repeat(args, bench):
    a_runs, b_runs = by_workload(load_artifacts(args.repeat[0])), \
        by_workload(load_artifacts(args.repeat[1]))
    status = 0
    print(f"{'workload':10s} {'metric':24s} {'A median':>12s} {'B median':>12s} "
          f"{'gap':>7s} {'A iqr':>7s} {'B iqr':>7s} {'bound':>6s}")
    for w in sorted(set(a_runs) | set(b_runs)):
        if w not in a_runs or w not in b_runs:
            print(f"{w}: missing from one set")
            status = 1
            continue
        ok, ma, mb = comparable(a_runs[w][0], b_runs[w][0], ignore=("seed",))
        if not ok:
            print(f"{w}: manifests differ:\n  {ma}\n  {mb}")
            status = 1
            continue
        for m in bench["end_to_end"]:
            av, bv = values(a_runs[w], m["name"]), values(b_runs[w], m["name"])
            if not av or not bv:
                continue
            gap = abs(worse_by(m, statistics.median(av), statistics.median(bv)))
            flag = ""
            if gap > m["bound"]:
                flag = "  DISAGREE"
                status = 1
            elif m["name"] != "setup_s" and max(spread(av), spread(bv)) > m["bound"]:
                flag = "  SPREAD"
                status = 1
            print(f"{w:10s} {m['name']:24s} {statistics.median(av):12.4g} "
                  f"{statistics.median(bv):12.4g} {100 * gap:6.1f}% "
                  f"{100 * spread(av):6.1f}% {100 * spread(bv):6.1f}% "
                  f"{100 * m['bound']:5.0f}%{flag}")
    return status


# ---- --record ----------------------------------------------------------------

def cmd_record(args, bench):
    runs = []
    with tempfile.TemporaryDirectory(prefix="e2e-record-") as tmp:
        binary = build(ROOT, Path(tmp) / "build")
        for w in [x["name"] for x in bench["workloads"]]:
            for trace, count in ((0, RECORD_RUNS), (1, RECORD_TRACED_RUNS)):
                for i in range(count):
                    art = Path(tmp) / f"{w}-{trace}-{i}.json"
                    runs.append(run_once(binary, git_commit(ROOT), w,
                                         args.seed + i, bench["run_seconds"],
                                         trace, art))
    summary = {}
    for w, group in by_workload(runs).items():
        summary[w] = {}
        for m in bench["end_to_end"]:
            v = values(group, m["name"])
            if v:
                q1, med, q3 = quartiles(v)
                summary[w][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                         "unit": m["unit"], "runs": len(v)}
    result = {"commit": runs[0]["manifest"]["commit"], "seed": args.seed,
              "untraced_runs_per_workload": RECORD_RUNS,
              "traced_runs_per_workload": RECORD_TRACED_RUNS,
              "summary": summary, "runs": runs}
    with open(args.record, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"wrote {args.record}")
    return 0 if all(r["correct"] and not r["failed"] for r in runs) else 1


def main():
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent")
    p.add_argument("--change")
    p.add_argument("--repeat", nargs=2, metavar=("A", "B"))
    p.add_argument("--record", metavar="OUT")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="where --parent/--change keeps builds and "
                   "artifacts (default: a new temporary directory)")
    args = p.parse_args()
    bench = load_benchmark()
    if args.repeat:
        return cmd_repeat(args, bench)
    if args.record:
        args.seed = DEV_SEED if args.seed is None else args.seed
        return cmd_record(args, bench)
    if args.parent and args.change:
        args.seed = CLAIM_SEED if args.seed is None else args.seed
        return cmd_pairs(args, bench)
    p.error("give --parent and --change, --repeat A B or --record OUT")
    return 2


if __name__ == "__main__":
    sys.exit(main())
