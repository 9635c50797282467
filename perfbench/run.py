#!/usr/bin/env python3
"""Build and run one benchmark workload, and check what it reports.

Run from the repository root:

    python3 perfbench/run.py --workload steady_region --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The suite itself is perfbench/suite.ml, built with dune.  This wrapper
builds it, runs one workload in a fresh process, checks that the last
line of its output is the result object BENCHMARK.json promises (every
end-to-end metric with --trace 0, every per-layer metric with --trace 1,
each with its declared unit), and prints that line last.  --smoke runs
every workload at 1/50 scale in both modes and checks the same schema
and that no request failed.
"""

import argparse
import json
import math
import os
import subprocess
import sys

SUITE = os.path.join("_build", "default", "perfbench", "suite.exe")
WORKLOADS = ["steady_region", "steady_interp", "cold_start", "churn_rw2"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the suite with dune; dune's own output goes to stderr."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "perfbench/suite.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env)
    except OSError as e:
        log(f"cannot run dune: {e}")
        return False
    return done.returncode == 0 and os.path.exists(SUITE)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Raise ValueError saying what is wrong with a result line, if anything."""
    res = json.loads(line)
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are not correct/attempted/failed/metrics")
    if not isinstance(res["correct"], bool):
        raise ValueError("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or isinstance(res[k], bool) or res[k] < 0:
            raise ValueError(f"{k} is not a whole number")
    if res["attempted"] < 1:
        raise ValueError("attempted < 1")
    want = expected_metrics(trace)
    got = res["metrics"]
    if set(got) != set(want):
        missing, extra = set(want) - set(got), set(got) - set(want)
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, extra {sorted(extra)}")
    for name, m in got.items():
        v = m.get("value")
        if set(m) != {"value", "unit"} or m["unit"] != want[name]:
            raise ValueError(f"metric {name}: wrong keys or unit")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise ValueError(f"metric {name}: value is not a finite number")


def run(workload, seed, seconds, trace, smoke=False):
    """Run one workload; return (exit code, result line or None)."""
    cmd = [SUITE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        check_result(lines[-1], trace)
    except (ValueError, json.JSONDecodeError) as e:
        log(f"{workload}: bad result line: {e}")
        return 1, None
    return done.returncode, lines[-1]


def smoke(run_seconds):
    failures = []
    for trace in (False, True):
        for w in WORKLOADS:
            code, line = run(w, 1, run_seconds, trace, smoke=True)
            res = json.loads(line) if line else None
            if code != 0 or res is None or not res["correct"] or res["failed"] != 0:
                failures.append(f"{w} trace={int(trace)}")
    for f in failures:
        log(f"smoke FAILED: {f}")
    print(f"smoke: {8 - len(failures)} of 8 runs passed")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not os.path.exists("BENCHMARK.json"):
        log("run from the repository root: BENCHMARK.json not found")
        return 1
    with open("BENCHMARK.json") as f:
        run_seconds = json.load(f)["run_seconds"]
    if not build():
        log("build failed")
        return 1
    if args.smoke:
        return smoke(run_seconds)
    if args.workload is None:
        ap.error("--workload is required")
    code, line = run(args.workload, args.seed, args.seconds or run_seconds,
                     args.trace == 1)
    if line is None:
        return code or 1
    print(line, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
