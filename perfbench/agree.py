#!/usr/bin/env python3
"""Run the benchmark repeatedly and check that its runs agree.

Run from the repository root:

    python3 perfbench/agree.py                        # 2 runs of seed 1
    python3 perfbench/agree.py --runs 1 --seeds 1-10 --sets 2

Every run is `python3 perfbench/run.py --trace 0` in its own process.  The
runs go seed by seed, set by set, with the workloads interleaved so that
host noise falls on all of them alike.  Then, per workload:

* determinism: on the single-worker workloads every sim_* metric must be
  bit-identical across the runs of one seed;
* spread: for every end-to-end metric, the median and quartiles of each
  set (Python's statistics.quantiles, n=4) and spread = (q3 - q1) / median.
  A metric is "within" its bound when the spread is at most the bound in
  BENCHMARK.json, and "unresolved" otherwise;
* drift (two or more sets): each later set's median against the first
  set's, in the metric's worse direction, must stay within the bound.

Exits 1 if any check fails.  Raw values go to perfbench/out/agree.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SINGLE_WORKER = {"steady_region", "steady_interp", "cold_start"}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    last = done.stdout.rstrip("\n").split("\n")[-1]
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {done.returncode})")
    res = json.loads(last)
    return {k: m["value"] for k, m in res["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=2, help="runs per seed and set (default 2)")
    ap.add_argument("--seeds", default="1", help="e.g. 1 or 1-10 or 1,7 (default 1)")
    ap.add_argument("--sets", type=int, default=1, help="independent sets of runs (default 1)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: run_seconds)")
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seeds = parse_seeds(args.seeds)

    # values[workload][set] = list of (seed, {metric: value})
    values = {w: [[] for _ in range(args.sets)] for w in workloads}
    total = args.sets * len(seeds) * args.runs * len(workloads)
    started, done = time.time(), 0
    for s in range(args.sets):
        for seed in seeds:
            for _ in range(args.runs):
                for w in workloads:
                    values[w][s].append((seed, run_once(w, seed, seconds)))
                    done += 1
                    print(f"[{done}/{total}] set {s + 1} seed {seed} {w} "
                          f"({time.time() - started:.0f} s)", file=sys.stderr, flush=True)

    ok = True
    for w in workloads:
        print(f"\n{w}: {args.sets} set(s) x {len(seeds)} seed(s) x {args.runs} run(s)")
        if w in SINGLE_WORKER and args.runs * args.sets > 1:
            identical = True
            for seed in seeds:
                runs = [m for s in range(args.sets) for sd, m in values[w][s] if sd == seed]
                for name in runs[0]:
                    if name.startswith("sim_") and len({r[name] for r in runs}) != 1:
                        identical = False
                        print(f"  NOT DETERMINISTIC: {name} seed {seed}: {[r[name] for r in runs]}")
            ok = ok and identical
            print("  sim_* metrics bit-identical across runs of each seed: "
                  + ("yes" if identical else "NO"))
        print(f"  {'metric':<22}{'set':>4}{'median':>16}{'q1':>16}{'q3':>16}"
              f"{'spread':>9}{'bound':>7}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(args.sets):
                vals = [r[name] for _, r in values[w][s]]
                med, q1, q3, sp = spread(vals)
                medians.append(med)
                within = sp <= bound
                # set-up time is reported but its spread is not gated
                if not within and name != "setup_s":
                    ok = False
                verdict = "within" if within else "unresolved"
                print(f"  {name:<22}{s + 1:>4}{med:>16.6g}{q1:>16.6g}{q3:>16.6g}"
                      f"{100 * sp:>8.2f}%{100 * bound:>6.1f}%  {verdict}"
                      f" ({sp / bound if bound else 0:.2f} of bound)")
            for s in range(1, args.sets):
                sign = 1 if m["better"] == "lower" else -1
                worse = sign * (medians[s] - medians[0]) / medians[0] if medians[0] else 0.0
                if worse > bound:
                    ok = False
                print(f"  {'':<22}drift set {s + 1} vs 1: {100 * worse:+.2f}% worse "
                      f"({'ok' if worse <= bound else 'OVER BOUND'})")

    os.makedirs("perfbench/out", exist_ok=True)
    with open("perfbench/out/agree.json", "w") as f:
        json.dump(values, f, indent=1)
    print("\nall checks passed" if ok else "\nSOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
