#!/usr/bin/env python3
"""Repeat benchmark runs over several seeds and report steadiness.

    python3 benchmark/repeat.py [--runs 10] [--workload NAME ...]
                                [--trace 0|1]

For every workload, runs run.py once per seed (1, 2, ...) for
BENCHMARK.json's run_seconds, then prints each metric's
median, quartiles and spread, the distance between the first and the
third quartile (statistics.quantiles(values, n=4)) as a share of the
median, against the metric's bound. A spread at or above a third of
its bound is flagged; setup_s's spread is shown but not flagged. Also
prints the failed/attempted share of every run, which must be the
same in all of them. Exits non-zero when a run fails, reports an
incorrect result, or the failed share differs between runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited with %d"
                           % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    ok = True
    for w in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for i in range(args.runs):
            r = run_once(w, 1 + i, spec["run_seconds"], args.trace)
            results.append(r)
            print("  %s seed %d: correct=%s attempted=%d failed=%d"
                  % (w, 1 + i, r["correct"], r["attempted"],
                     r["failed"]), file=sys.stderr)
        shares = sorted({(r["failed"] / r["attempted"]) for r in results})
        correct = all(r["correct"] for r in results)
        ok = ok and correct and len(shares) == 1
        print("%s: %d runs, correct=%s, failed shares=%s"
              % (w, len(results), correct,
                 ", ".join("%.6f" % s for s in shares)))
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and \
                    spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
            print("  %-24s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %6.3f%s%s"
                  % (m["name"], med, q1, q3, spread,
                     "" if bound is None else "  bound %.3f" % bound, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
