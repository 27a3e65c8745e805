"""Run-to-run spread of the end-to-end metrics, to set and re-check bounds.

Runs `run.py` once per seed on each workload and prints, for every
end-to-end metric, the median over runs and the interquartile range as a
share of the median (quartiles from statistics.quantiles(values, n=4)),
next to the metric's bound in BENCHMARK.json.  A spread at or above a
third of its bound is flagged; setup_s is only reported, because its
bound limits a change of median, not the spread.  Also prints the share
of failed problems per run, which must be the same in every run.

    python3 benchmarks/spread.py --runs 10 --first-seed 1
    python3 benchmarks/spread.py --workload sweeps --runs 5
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds):
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, check=True, text=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    res["wall_s"] = time.perf_counter() - t0
    return res


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    worst = 0
    for name in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run(name, seed, args.seconds))
            res = results[-1]
            print(f"{name} seed {seed} ({res['wall_s']:.0f} s): correct {res['correct']}, "
                  f"failed {res['failed']}/{res['attempted']}, " + ", ".join(
                      f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        print(f"{name}: failed share {' '.join(str(s) for s in sorted(shares))}"
              f"{'' if len(shares) == 1 else '  <- differs between runs'}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if metric != "setup_s" and spread >= bound / 3:
                flag = "  <- at or above bound/3"
                worst += 1
            print(f"  {metric:<12} median {med:<12.6g} IQR/median {spread:7.4f}"
                  f"  bound {bound}{flag}")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
