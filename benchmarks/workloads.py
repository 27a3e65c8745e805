"""The benchmark's three workloads: their inputs, operations and checks.

Each workload runs whole rounds of the same operations, cold (a fresh
interpreter per operation, as a user runs the CLI or a library script)
and warm (the same operations in the benchmark's own process, after
`import nhur`).  Every output is checked against `oracle`, and each round
returns how many problems it attempted, how many failed and how many of
those failures lie outside the workload's known-fault slice.

A problem is one sweep grid point, one `check` problem file, or one
`evaluate_all` call.  It fails when it raises, is missing from the output,
or disagrees with the oracle.
"""

import contextlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import gen
import libround
import oracle

RELATIONS = ("ur1", "ur2", "ur3", "ur4")

# Check tolerance, relative to lhs.  RTOL covers the rounding of the
# near-exceptional-point sweep, where cond(G) is about 2e7; ATOL, relative
# to the second moments, covers points whose lhs cancels to zero.
RTOL = 1e-7
ATOL = 1e-12

HERE = os.path.dirname(os.path.abspath(__file__))


def verify(got, exp):
    """Per-problem pass flags.

    got holds lhs, rhs and gap as (n, 4) floats (NaN where a problem raised
    or is missing) and holds as (n, 4) bools; exp is `oracle.expected`.
    lhs and rhs must match the oracle, gap must be lhs - rhs, and every
    relation must hold, since each one is a theorem.
    """
    tol = (RTOL * exp["lhs"] + ATOL * exp["scale"])[:, None]
    want_rhs = np.stack([exp[r] for r in RELATIONS], -1)
    ok = np.abs(got["lhs"] - exp["lhs"][:, None]) <= tol
    ok &= np.abs(got["rhs"] - want_rhs) <= tol
    ok &= np.abs(got["gap"] - (got["lhs"] - got["rhs"])) <= tol
    ok &= got["holds"]
    return ok.all(axis=1)


def _concat(parts):
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


class Tally:
    """Problems attempted and failed, and failures outside a known fault."""

    def __init__(self):
        self.attempted = self.failed = self.unexpected = 0
        self.notes = []

    def add(self, attempted, failed, unexpected, note=None):
        self.attempted += attempted
        self.failed += failed
        self.unexpected += unexpected
        if unexpected and note and len(self.notes) < 10:
            self.notes.append(note)


def spawn(argv, env, log_path):
    """Run argv to completion; returns (wall seconds, peak RSS MB, exit code)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


# Fewest cold starts per run for setup_s; the median is reported.
SETUP_REPS = 11


def setup_times(ctx, code="import nhur", reps=SETUP_REPS):
    """Wall times of fresh interpreters running `code`."""
    return [spawn([sys.executable, "-c", code], ctx.env, ctx.path("setup.err"))[0]
            for _ in range(reps)]


def child_env(src):
    """Environment of the cold processes: nhur from `src`, and bytecode
    caching on whatever the caller's environment says, so that cold starts
    load cached bytecode as an installed or once-run package does (the
    first cold start in a checkout writes the cache)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class CliOp:
    """One CLI command line, its output path and its output check."""

    def __init__(self, label, argv, check, known_fault=False):
        self.label = label
        self.argv = argv
        self.check = check
        self.known_fault = known_fault


class CliWorkload:
    """A workload of `nhur` command lines (sweeps, check-large)."""

    warm_repeats = 1

    def __init__(self, ctx):
        self.ctx = ctx
        self.ops = []

    def cold_round(self, tally):
        """Each command as `python -m nhur.cli` in a fresh interpreter;
        returns (label, wall seconds, peak RSS MB) per command."""
        out = []
        for op in self.ops:
            wall, mb, code = spawn(
                [sys.executable, "-m", "nhur.cli"] + op.argv, self.ctx.env,
                self.ctx.path("cold.err"))
            out.append((op.label, wall, mb))
            self._tally(op, code, tally, "cold")
        return out

    def warm_round(self, tally):
        """Each command through `nhur.cli.main(argv)` in this process;
        returns (label, seconds, problems) per command."""
        main = self.ctx.nhur_cli.main
        out = []
        with open(os.devnull, "w") as sink:
            for op in self.ops:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    t0 = time.perf_counter()
                    code = main(op.argv)
                    elapsed = time.perf_counter() - t0
                out.append((op.label, elapsed, self._tally(op, code, tally, "warm")))
        return out

    def _tally(self, op, code, tally, how):
        attempted, passed, code_ok = op.check(code)
        failed = attempted - passed
        unexpected = (0 if op.known_fault else failed) + (0 if code_ok else 1)
        tally.add(attempted, failed, unexpected,
                  f"{how} {op.label}: {failed} of {attempted} failed, exit {code}")
        return attempted


# ---- sweeps ----------------------------------------------------------

# Grid points per sweep: every fourth point of the CLI's default 721-point
# grid, passed as --points.  A 721-point sweep takes 0.4-0.7 s, and this
# shared machine's speed changes within that time, so a run held too few
# samples of each sweep for a steady minimum (see README.md).
SWEEP_POINTS = 181


def _csv_columns(param):
    cols = [param]
    for rel in RELATIONS:
        cols += [f"{rel}_lhs", f"{rel}_rhs", f"{rel}_gap", f"{rel}_holds"]
        if rel in ("ur3", "ur4"):
            cols.append(f"{rel}_branch")
    cols.append("ur4_degenerate")
    return cols


def read_sweep_csv(path, param, grid):
    """Rows of a sweep CSV placed on their grid index (NaN rows where a
    point is missing); ur3_branch is not read, being rounding noise."""
    got = libround.empty_results(len(grid))
    index = {float(x): i for i, x in enumerate(grid)}
    cols = _csv_columns(param)
    with open(path, encoding="ascii") as fh:
        if fh.readline().rstrip("\n").split(",") != cols:
            return got, 0
        rows = 0
        for line in fh:
            cells = dict(zip(cols, line.rstrip("\n").split(",")))
            i = index.get(float(cells[param]))
            if i is None:
                return got, 0
            rows += 1
            for j, rel in enumerate(RELATIONS):
                got["lhs"][i, j] = float(cells[f"{rel}_lhs"])
                got["rhs"][i, j] = float(cells[f"{rel}_rhs"])
                got["gap"][i, j] = float(cells[f"{rel}_gap"])
                got["holds"][i, j] = cells[f"{rel}_holds"] == "true"
    return got, rows


class Sweeps(CliWorkload):
    """The paper's two scenarios, on 181 points of the CLI's default grid.

    The grids are fixed, so this workload's inputs do not depend
    on the seed.  The near-exceptional-point sweep is the known fault:
    most of its points raise InternalInconsistencyError.
    """

    name = "sweeps"
    # A warm round (5 sweeps) takes about 0.7 s and a cold one about 1.4 s;
    # six warm rounds to one cold give each warm sweep some 60 samples in a
    # run, which its minimum needs to be steady here (see README.md).
    warm_repeats = 6
    # (label, argv, (gamma, p) for example2 or None for example1, known fault)
    COMMANDS = (
        ("example1", ["example1"], None, False),
        ("example2-symmetric-good", ["example2", "--phase", "symmetric"],
         (0.9, 0.5), False),
        ("example2-broken-good", ["example2", "--phase", "broken"],
         (1.2, 1.5), False),
        ("example2-symmetric-gmetric",
         ["example2", "--phase", "symmetric", "--formalism", "gmetric"],
         (0.9, 0.5), False),
        ("example2-near-ep",
         ["example2", "--phase", "symmetric", "--gamma", "0.9999999"],
         (0.9999999, 0.5), True),
    )

    def __init__(self, ctx):
        super().__init__(ctx)
        self.expected = {}
        for label, argv, pt_params, known_fault in self.COMMANDS:
            if pt_params is None:
                param = "theta0"
                grid = np.linspace(0.0, math.pi, SWEEP_POINTS)
                exp = oracle.expected(*oracle.example1(grid))
            else:
                param = "alpha"
                grid = np.linspace(0.0, 2.0 * math.pi, SWEEP_POINTS)
                exp = oracle.expected(*oracle.example2(grid, *pt_params))
            self.expected[label] = exp
            out = ctx.path(label + ".csv")
            self.ops.append(CliOp(
                label, argv + ["--points", str(SWEEP_POINTS), "--out", out],
                self._checker(out, param, grid, exp), known_fault))

    @staticmethod
    def _checker(out, param, grid, exp):
        def check(code):
            try:
                got, rows = read_sweep_csv(out, param, grid)
                os.remove(out)
            except (OSError, ValueError, KeyError):
                got, rows = libround.empty_results(len(grid)), 0
            passed = verify(got, exp)
            # exit 2 when points failed to evaluate, 1 on a violation
            want = 2 if rows < len(grid) else (0 if got["holds"].all() else 1)
            return len(grid), int(passed.sum()), code == want
        return check


# ---- check-large -----------------------------------------------------

def read_report(path):
    got = libround.empty_results(1)
    with open(path, encoding="ascii") as fh:
        report = json.load(fh)
    for j, ev in enumerate(report["evaluations"]):
        if ev["relation"] != RELATIONS[j]:
            return got
        got["lhs"][0, j] = ev["lhs"]
        got["rhs"][0, j] = ev["rhs"]
        got["gap"][0, j] = ev["gap"]
        got["holds"][0, j] = ev["holds"]
    return got


class CheckLarge(CliWorkload):
    """`nhur check` on generated dim-64 and dim-256 problem files."""

    name = "check-large"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.problems = gen.write_inputs(ctx.seed, ctx.work, ("check-large",))[
            "check-large"]
        self.expected = {}
        for prob in self.problems:
            exp = oracle.expected(prob["a"][None], prob["b"][None],
                                  prob["psi"][None], prob["g"][None])
            self.expected[prob["name"]] = exp
            out = ctx.path(prob["name"] + ".report.json")
            self.ops.append(CliOp(
                prob["name"], ["check", "--input", prob["path"], "--out", out],
                self._checker(out, exp)))

    @staticmethod
    def _checker(out, exp):
        def check(code):
            try:
                got = read_report(out)
                os.remove(out)
            except (OSError, ValueError, KeyError):
                got = libround.empty_results(1)
            passed = bool(verify(got, exp)[0])
            return 1, int(passed), code == (0 if got["holds"].all() else 1)
        return check


# ---- random-problems -------------------------------------------------

class RandomProblems:
    """`evaluate_all` on seeded random problems through the library API.

    A round is one cold library run in a fresh interpreter, then
    `warm_repeats` passes over the same problems in this process.  The
    scaled slice is the known fault.
    """

    name = "random-problems"
    warm_repeats = 5

    def __init__(self, ctx):
        self.ctx = ctx
        self.groups = gen.write_inputs(ctx.seed, ctx.work, ("random-problems",))[
            "random-problems"]
        self.problems_path = ctx.path("problems.npz")
        self.results_path = ctx.path("results.npz")
        parts = []
        known = []
        for grp in self.groups:
            default = oracle.expected(grp["a"], grp["b"], grp["psi"], grp["g"])
            explicit = oracle.expected(grp["a"], grp["b"], grp["psi"], grp["g"],
                                       grp["perp"])
            mask = grp["has_perp"]
            parts.append({k: np.where(mask, explicit[k], default[k])
                          for k in default})
            known.append(np.full(len(mask), grp["scaled"]))
        self.expected = _concat(parts)
        self.known_fault = np.concatenate(known)
        self.prepared = None

    def tally_results(self, got, tally, how):
        """Check one pass's result arrays and count them; returns how many
        problems the pass attempted."""
        passed = verify(got, self.expected)
        n = len(passed)
        failed = int(n - passed.sum())
        unexpected = int((~passed & ~self.known_fault).sum())
        tally.add(n, failed, unexpected,
                  f"{how}: {unexpected} problems outside the scaled slice failed")
        return n

    def cold_round(self, tally):
        """One library run as a fresh interpreter; returns
        [("library", wall seconds, peak RSS MB)]."""
        wall, mb, code = spawn(
            [sys.executable, os.path.join(HERE, "libround.py"),
             self.problems_path, self.results_path],
            self.ctx.env, self.ctx.path("cold.err"))
        try:
            with np.load(self.results_path) as data:
                got = {key: data[key] for key in ("lhs", "rhs", "gap", "holds")}
            os.remove(self.results_path)
        except OSError:
            got = libround.empty_results(len(self.known_fault))
        self.tally_results(got, tally, f"cold (exit {code})")
        if code != 0:
            tally.add(0, 0, 1, f"cold library run exited {code}")
        return [("library", wall, mb)]

    def warm_round(self, tally):
        """One pass in this process; returns [("library", seconds, problems)]."""
        nhur = self.ctx.nhur
        if self.prepared is None:
            self.prepared = libround.prepare(nhur, self.groups)
        t0 = time.perf_counter()
        results = libround.evaluate_round(nhur, self.prepared)
        elapsed = time.perf_counter() - t0
        return [("library", elapsed,
                 self.tally_results(libround.to_arrays(results), tally, "warm"))]


WORKLOADS = {w.name: w for w in (Sweeps, RandomProblems, CheckLarge)}
