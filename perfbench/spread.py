#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1]
                                [--workloads bw_eager,nas_lu] [--out FILE]

Runs the benchmark once per seed on each workload (sequentially, at the
run length BENCHMARK.json sets) and prints, per end-to-end metric, the
median and the distance between the first and third quartile as a share of
the median, beside the metric's bound. A spread under a third of the bound
is marked "ok". --out saves every run's JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()

    results = {}
    bad = False
    for wl in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True)
            if r.returncode != 0:
                print(f"{wl} seed {seed}: exit {r.returncode}")
                bad = True
                continue
            res = json.loads(r.stdout.strip().split("\n")[-1])
            bad |= not res["correct"]
            runs.append(res)
        results[wl] = runs
        print(f"== {wl}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            mark = "ok" if spread < m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "TOO WIDE")
            if spread > m["bound"]:
                bad = True
            print(f"  {m['name']:<18} median {med:<14.6g} spread "
                  f"{spread:8.4f}  bound {m['bound']:<5} {mark}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
