"""Benchmark of nhur, end to end and per module.

Run from the root of a checkout (nhur is imported from ./src):

    python3 benchmarks/run.py --workload sweeps --seed 1 --seconds 55 --trace 0
    python3 benchmarks/run.py --workload all --trace 1

Workloads: sweeps, random-problems, check-large (see README.md), or all.
With --trace 0 a run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of the traced run (tracing.py).  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"};
with --workload all it maps each workload to such an object.  Exit code 2
when the checkout holds no nhur sources.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time

# Single-threaded BLAS in this process and its children.  nhur's matrices
# are at most 256 x 256 and its time is Python-bound; on a small shared
# machine, BLAS threads spinning against the other core's load made some
# warm rounds 20x slower.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402

UNITS = {"setup_s": "s", "evals_per_s": "1/s", "peak_rss_mb": "MB"}


class Context:
    """Per-run state shared by a workload: seed, scratch directory, the
    environment of child processes and the nhur modules of this process."""

    def __init__(self, root, seed, work):
        self.root = root
        self.seed = seed
        self.work = work
        self.src = os.path.join(root, "src")
        self.env = workloads.child_env(self.src)
        sys.path.insert(0, self.src)
        import nhur
        import nhur.cli
        if not os.path.abspath(nhur.__file__).startswith(self.src + os.sep):
            raise SystemExit(f"error: imported nhur from {nhur.__file__}, "
                             f"not from {self.src}")
        self.nhur = nhur
        self.nhur_cli = nhur.cli

    def path(self, name):
        return os.path.join(self.work, name)


def _by_label(samples):
    """{label: [(value, ...), ...]} from (label, value, ...) tuples."""
    out = {}
    for label, *rest in samples:
        out.setdefault(label, []).append(rest)
    return out


def measure(workload, ctx, seconds, tally):
    """Whole rounds until `seconds` have passed; end-to-end metrics.

    evals_per_s is the problems of a warm round over the sum of the
    operations' fastest warm times, so it describes one round on an
    otherwise idle machine.  Contention from other tenants only ever adds
    time, and on a shared machine it drifts by tens of percent over
    minutes; the minimum follows the program, a median the drift.
    setup_s is the median of the cold starts, one at the head of each
    round so that they span the run.  The cold rounds run the operations
    as users do and give peak_rss_mb, the largest of the operations'
    median peak RSS; their times are not gated (tracing.py reports them
    as cold.run_s).
    """
    workload.warm_round(tally)  # fills caches and finishes lazy imports
    setup, cold, warm = [], [], []
    rounds = 0
    start = time.perf_counter()
    while True:
        setup += workloads.setup_times(ctx, reps=1)
        cold += workload.cold_round(tally)
        for _ in range(workload.warm_repeats):
            warm += workload.warm_round(tally)
        rounds += 1
        elapsed = time.perf_counter() - start
        # stop when another round would end further past the deadline than
        # stopping now ends before it
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    if len(setup) < workloads.SETUP_REPS:
        setup += workloads.setup_times(ctx, reps=workloads.SETUP_REPS - len(setup))
    cold_ops = _by_label(cold).values()
    warm_ops = _by_label(warm).values()
    return {
        "setup_s": statistics.median(setup),
        "evals_per_s": sum(op[0][1] for op in warm_ops) / sum(
            min(t for t, _ in op) for op in warm_ops),
        "peak_rss_mb": max(
            statistics.median(mb for _, mb in op) for op in cold_ops),
    }


def run_one(name, seed, seconds, trace, root):
    work = os.path.join(root, "benchmarks", "_work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        ctx = Context(root, seed, work)
        workload = workloads.WORKLOADS[name](ctx)
        tally = workloads.Tally()
        if trace:
            import tracing
            values, units = tracing.run(workload, ctx, seconds, tally)
        else:
            values, units = measure(workload, ctx, seconds, tally), UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in tally.notes:
        print(f"unexpected failure: {note}", file=sys.stderr)
    return {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nhur", "cli.py")):
        print("error: run from the root of an nhur checkout (no src/nhur/cli.py)",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_one(name, args.seed, args.seconds, args.trace, root)
        results[name] = res
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {str(res['correct']).lower()}")
        for metric, entry in res["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
