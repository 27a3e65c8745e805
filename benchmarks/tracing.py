"""Traced run: the per-layer metrics of one workload.

Nothing inside nhur is instrumented; spans are recorded here, around calls
into the package's public functions.

Part 1 replays the workload through the top-level public calls and records
a span for each: for a sweep point `build_example*`, `evaluate_all` and
`csv_row`; for a library problem `metric_from_matrix` once per group and
`evaluate_all`; for a problem file `json.load`, `parse_problem`,
`validate_metric`, `metric_from_matrix`, `is_good_observable` (A and B),
`evaluate_all` and the report write.  The replay's outputs are checked
like those of the untraced run.  The same replay runs without spans, and
the difference is reported as the tracing overhead; the spans' total over
the warm user-path time (`cli.main` or `evaluate_round`) is reported as
their coverage.  Spans stay in memory and are written, one JSON object a
line, to benchmarks/_traces/<workload>-<seed>.jsonl when the run ends.

Part 2 times lower-layer functions as separate calls on the same inputs.
Where a workload's inputs never reach a layer (the scenarios from
random-problems, for instance) that layer is timed on fixed reference
inputs instead: the `sweeps` workload's sweeps, and seed-0 random problems of
the missing dimension.  README.md lists which metrics those are.
"""

import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

import numpy as np

import gen
import libround
import workloads

# Part 1 alternates this many passes each of the user path (cli.main or
# evaluate_round), the plain replay and the traced replay.
REPLAY_PASSES = 3
# Part 2 samples at most this many problems of a workload, evenly spaced.
MAX_PROBLEMS = 160
# Part 2 repeats its passes over the inputs of a metric until this share of
# --seconds is spent on that metric (at least one pass, at most MAX_PASSES).
METRIC_SHARE = 0.02
MAX_PASSES = 7
# Cold rounds timed for cold.run_s.
COLD_PASSES = 3


class Tracer:
    """Spans (request, name, start_ns, end_ns) kept in memory.  A request is
    one sweep point, library problem or problem file; its spans are the
    top-level calls made for it, in order."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []

    def call(self, request, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((request, name, t0, time.perf_counter_ns()))

    def total_ns(self, names):
        return sum(end - start for _, name, start, end in self.spans
                   if name in names)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for request, name, start, end in self.spans:
                fh.write(json.dumps({"request": request, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")


class Problem:
    """One evaluate_all input, with the metric the statistics use."""

    def __init__(self, nhur, a, b, psi, metric, formalism, perp=None, g=None):
        self.a, self.b, self.psi, self.perp = a, b, psi, perp
        self.metric = metric
        self.formalism = formalism
        self.g = g
        self.stats_metric = (nhur.identity_metric(a.shape[0])
                             if metric is None or formalism is nhur.Formalism.PLAIN
                             else metric)

    def payload(self):
        return {"dim": self.a.shape[0], "a": self.a, "b": self.b, "psi": self.psi,
                "formalism": self.formalism.value,
                "g": self.stats_metric.g}


def _spread(items, limit=MAX_PROBLEMS):
    if len(items) <= limit:
        return list(items)
    step = len(items) / limit
    return [items[int(k * step)] for k in range(limit)]


# ---- part 1: replay with spans -----------------------------------------

def _formalism(nhur, argv, pt_params):
    """The formalism of a sweep command line, as the CLI resolves it."""
    if pt_params is None:
        return nhur.Formalism.PLAIN
    if "--formalism" in argv:
        return nhur.Formalism.parse(argv[argv.index("--formalism") + 1])
    return nhur.Formalism.GOOD


def _phase(gamma):
    return "symmetric" if gamma < 1.0 else "broken"


def replay_sweeps(wl, ctx, tracer, tally):
    nhur = ctx.nhur
    from nhur.cli import csv_row
    from nhur.scenarios import ScenarioPoint
    inputs = {"problems": [], "ex1": [], "ex2": [], "eigen": [], "g_raw": []}
    for label, argv, pt_params, known_fault in wl.COMMANDS:
        formalism = _formalism(nhur, argv, pt_params)
        if pt_params is None:
            grid = np.linspace(0.0, math.pi, workloads.SWEEP_POINTS)
            configs = [nhur.Example1Config(theta0=float(x)) for x in grid]
            build, build_name = nhur.build_example1, "scenarios.build_example1"
            inputs["ex1"] += configs
        else:
            gamma, p = pt_params
            grid = np.linspace(0.0, 2.0 * math.pi, workloads.SWEEP_POINTS)
            configs = [nhur.Example2Config(gamma=gamma, p=p, alpha=float(x),
                                           phase=_phase(gamma)) for x in grid]
            build, build_name = nhur.build_example2, "scenarios.build_example2"
            inputs["ex2"] += configs
            eig = (nhur.symmetric_eigensystem(gamma) if gamma < 1.0
                   else nhur.broken_eigensystem(gamma))
            inputs["eigen"].append((eig, nhur.pt_hamiltonian(gamma)))
        results = []
        for i, cfg in enumerate(configs):
            req = f"{label}/{i}"
            try:
                a, b, psi, g = tracer.call(req, build_name, build, cfg)
                evs = tracer.call(req, "relations.evaluate_all", nhur.evaluate_all,
                                  a, b, psi, g, formalism)
            except nhur.NhurError as exc:
                results.append(str(exc))
                continue
            tracer.call(req, "cli.csv_row", csv_row,
                        ScenarioPoint(param=cfg.theta0 if pt_params is None
                                      else cfg.alpha, evaluations=evs))
            results.append(evs)
            if i % 45 == 0:
                inputs["problems"].append(Problem(nhur, a, b, psi, g, formalism))
                if not g.is_identity:
                    inputs["g_raw"].append(np.array(g.g))
        passed = workloads.verify(libround.to_arrays(results), wl.expected[label])
        failed = int(len(passed) - passed.sum())
        tally.add(len(passed), failed, 0 if known_fault else failed,
                  f"traced {label}: {failed} failed")
    inputs["sweeps"] = _sweep_calls(nhur, wl.COMMANDS)
    return inputs


def replay_random(wl, ctx, tracer, tally):
    nhur = ctx.nhur
    results = []
    problems = []
    g_raw = []
    for k, (g, formalism, calls) in enumerate(libround.prepare(nhur, wl.groups)):
        metric = None
        if g is not None:
            metric = tracer.call(f"group{k}", "metric.from_matrix",
                                 nhur.metric_from_matrix, g)
            g_raw.append(g)
        for i, (a, b, psi, perp) in enumerate(calls):
            try:
                results.append(tracer.call(
                    f"group{k}/{i}", "relations.evaluate_all", nhur.evaluate_all,
                    a, b, psi, metric, formalism, psi_perp=perp))
            except nhur.NhurError as exc:
                results.append(str(exc))
            problems.append(Problem(nhur, a, b, psi, metric, formalism, perp))
    wl.tally_results(libround.to_arrays(results), tally, "traced")
    return {"problems": problems, "g_raw": g_raw}


def replay_check(wl, ctx, tracer, tally):
    nhur = ctx.nhur
    from nhur.cli import parse_problem
    problems = []
    for prob in wl.problems:
        req = prob["name"]
        with open(prob["path"], encoding="utf-8") as fh:
            payload = tracer.call(req, "cli.json_load", json.load, fh)
        parsed = tracer.call(req, "cli.parse_problem", parse_problem, payload)
        tracer.call(req, "metric.validate_metric", nhur.validate_metric, parsed["g"])
        metric = tracer.call(req, "metric.from_matrix", nhur.metric_from_matrix,
                             parsed["g"])
        checks = [tracer.call(req, "metric.is_good_observable",
                              nhur.is_good_observable, x, metric)
                  for x in (parsed["a"], parsed["b"])]
        try:
            evs = tracer.call(req, "relations.evaluate_all", nhur.evaluate_all,
                              parsed["a"], parsed["b"], parsed["psi"], metric,
                              parsed["formalism"])
        except nhur.NhurError as exc:
            evs = str(exc)
        report = {"good_observable": [c.residual for c in checks],
                  "evaluations": [] if isinstance(evs, str) else [
                      [ev.relation, ev.lhs, ev.rhs, ev.gap, ev.holds] for ev in evs]}
        with open(ctx.path("traced.report.json"), "w", encoding="ascii") as fh:
            tracer.call(req, "cli.write_report", json.dump, report, fh)
        passed = bool(workloads.verify(libround.to_arrays([evs]),
                                       wl.expected[prob["name"]])[0])
        tally.add(1, int(not passed), int(not passed), f"traced {req} failed")
        problems.append(Problem(nhur, parsed["a"], parsed["b"], parsed["psi"],
                                metric, parsed["formalism"], g=parsed["g"]))
    return {"problems": problems, "g_raw": [p.g for p in problems],
            "files": [prob["path"] for prob in wl.problems]}


REPLAY = {"sweeps": replay_sweeps, "random-problems": replay_random,
          "check-large": replay_check}
TOP_LEVEL = {
    "sweeps": ("scenarios.build_example1", "scenarios.build_example2",
               "relations.evaluate_all", "cli.csv_row"),
    "random-problems": ("metric.from_matrix", "relations.evaluate_all"),
    "check-large": ("cli.json_load", "cli.parse_problem", "metric.validate_metric",
                    "metric.from_matrix", "metric.is_good_observable",
                    "relations.evaluate_all", "cli.write_report"),
}


# ---- part 2: lower layers as separate calls ----------------------------

def _sweep_calls(nhur, commands):
    """(param name, zero-argument sweep call) per sweep command line."""
    out = []
    for _, argv, pt_params, _ in commands:
        if pt_params is None:
            out.append(("theta0", lambda: nhur.example1_sweep(
                points=workloads.SWEEP_POINTS)))
            continue
        gamma, p = pt_params
        cfg = nhur.Example2Config(gamma=gamma, p=p, phase=_phase(gamma))
        out.append(("alpha", lambda cfg=cfg, f=_formalism(nhur, argv, pt_params):
                    nhur.example2_sweep(cfg, points=workloads.SWEEP_POINTS,
                                        formalism=f)))
    return out


class Reference:
    """Fixed inputs for layers a workload's own inputs do not reach: the
    `sweeps` workload's sweeps and the seed-0 random problems, each replayed
    only when first needed."""

    def __init__(self, ctx):
        self.ctx = ctx
        self._sweeps = self._random = None

    def __getitem__(self, key):
        if key != "problems":
            return self.sweeps()[key]
        return self.sweeps()["problems"] + self.random()["problems"]

    def sweeps(self):
        if self._sweeps is None:
            self._sweeps = replay_sweeps(workloads.Sweeps(self.ctx), self.ctx,
                                         Tracer(False), workloads.Tally())
        return self._sweeps

    def random(self):
        if self._random is None:
            self._random = replay_random(self, self.ctx, Tracer(False),
                                         workloads.Tally())
        return self._random

    @property
    def groups(self):
        return [g for g in gen.random_problems(0) if not g["scaled"]]

    def tally_results(self, *args):
        """Reference replays are not counted."""


def _files_from(problems, ctx):
    """Problem files holding one problem of each (dim, formalism) present."""
    seen = {}
    for prob in problems:
        seen.setdefault((prob.a.shape[0], prob.formalism.value), prob)
    paths = []
    for k, prob in enumerate(seen.values()):
        path = ctx.path(f"layer-problem-{k}.json")
        gen.write_problem_file(prob.payload(), path)
        paths.append(path)
    return paths


def time_calls(calls, budget_s, nhur_error):
    """Mean over calls of each call's median time over repeated passes, in
    seconds.  A call that raises nhur_error is timed as it is."""
    samples = [[] for _ in calls]
    deadline = time.perf_counter() + budget_s
    for _ in range(MAX_PASSES):
        for k, fn in enumerate(calls):
            t0 = time.perf_counter()
            try:
                fn()
            except nhur_error:
                pass
            samples[k].append(time.perf_counter() - t0)
        if time.perf_counter() >= deadline:
            break
    return statistics.fmean(statistics.median(s) for s in samples)


def layer_metrics(own, ref, ctx, budget_s):
    """Part 2: each lower-layer metric, timed on the workload's own inputs
    (`own`) or, where it has none for that layer, on `ref`."""
    nhur = ctx.nhur
    from nhur.cli import parse_problem, write_sweep_csv
    from nhur.states import av_orthogonal_state, ur3_default_perp

    def pick(key):
        return own.get(key) or ref[key]

    problems = pick("problems")
    problems = _spread(problems)
    good = [p for p in problems if p.formalism is nhur.Formalism.GOOD]
    good = good or [p for p in ref["problems"] if p.formalism is nhur.Formalism.GOOD]

    out = {}

    def put(name, scale, calls):
        out[name] = scale * time_calls(calls, budget_s, nhur.NhurError)

    put("linalg.as_operator_us", 1e6, [lambda p=p: nhur.as_operator(p.a) for p in problems])
    put("metric.require_normalized_us", 1e6,
        [lambda p=p: nhur.require_normalized(p.psi, p.stats_metric) for p in problems])
    put("metric.stats_us", 1e6, [
        lambda p=p: (nhur.g_variance(p.a, p.psi, p.stats_metric),
                     nhur.g_variance(p.b, p.psi, p.stats_metric),
                     nhur.g_covariance(p.a, p.b, p.psi, p.stats_metric))
        for p in problems])
    put("metric.is_good_observable_us", 1e6,
        [lambda p=p: nhur.is_good_observable(p.a, p.stats_metric) for p in good])
    put("metric.from_matrix_us", 1e6,
        [lambda g=g: nhur.metric_from_matrix(g) for g in pick("g_raw")])
    put("metric.from_right_eigenvectors_us", 1e6, [
        lambda e=e, h=h: nhur.metric_from_right_eigenvectors(e, hamiltonian=h)
        for e, h in pick("eigen")])
    put("states.ur3_default_perp_us", 1e6, [
        lambda p=p: ur3_default_perp(p.a, p.b, p.psi, p.stats_metric, 1)
        for p in problems])
    put("states.av_orthogonal_state_us", 1e6, [
        lambda p=p: av_orthogonal_state(p.a + p.b, p.psi, p.stats_metric)
        for p in problems])
    for rel in ("ur1", "ur2", "ur4"):
        fn = getattr(nhur, rel)
        put(f"relations.{rel}_us", 1e6, [
            lambda p=p, fn=fn: fn(p.a, p.b, p.psi, p.metric, p.formalism)
            for p in problems])
    put("relations.ur3_us", 1e6, [
        lambda p=p: nhur.ur3(p.a, p.b, p.psi, p.metric, p.formalism, psi_perp=p.perp)
        for p in problems])
    own_problems = own.get("problems") or []
    for dim in (2, 8, 64):
        mine = [p for p in own_problems if p.a.shape[0] == dim]
        mine = _spread(mine or [p for p in ref["problems"] if p.a.shape[0] == dim])
        put(f"relations.evaluate_all_us.d{dim}", 1e6, [
            lambda p=p: nhur.evaluate_all(p.a, p.b, p.psi, p.metric, p.formalism,
                                          psi_perp=p.perp) for p in mine])
    put("scenarios.build_example1_us", 1e6,
        [lambda c=c: nhur.build_example1(c) for c in _spread(pick("ex1"))])
    put("scenarios.build_example2_us", 1e6,
        [lambda c=c: nhur.build_example2(c) for c in _spread(pick("ex2"))])
    sweeps = pick("sweeps")
    put("scenarios.sweep_ms", 1e3, [fn for _, fn in sweeps])
    points = [(param, fn()) for param, fn in sweeps]
    csv_path = ctx.path("layer.csv")
    put("cli.write_sweep_csv_ms", 1e3, [
        lambda param=param, pts=pts: write_sweep_csv(csv_path, param, pts)
        for param, pts in points])
    sizes = []
    for param, pts in points:
        write_sweep_csv(csv_path, param, pts)
        sizes.append(os.path.getsize(csv_path))
    out["cli.csv_bytes"] = statistics.fmean(sizes)
    files = own.get("files") or _files_from(own_problems or ref["problems"], ctx)
    put("cli.json_load_ms", 1e3, [lambda f=f: _load(f) for f in files])
    payloads = [_load(f) for f in files]
    put("cli.parse_problem_ms", 1e3, [lambda d=d: parse_problem(d) for d in payloads])
    out["cli.problem_bytes"] = statistics.fmean(os.path.getsize(f) for f in files)
    return out


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---- the traced run ----------------------------------------------------

def import_times(ctx, reps=workloads.SETUP_REPS):
    """In-process `import nhur` time of fresh interpreters, in seconds."""
    code = ("import time; t = time.perf_counter(); import nhur; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", code], env=ctx.env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              check=True, text=True)
        out.append(float(proc.stdout))
    return out


def run(workload, ctx, seconds, tally):
    """Per-layer metrics of one workload; returns (values, units)."""
    values = {
        "setup.interpreter_s": statistics.median(
            workloads.setup_times(ctx, code="pass")),
        "setup.import_nhur_s": statistics.median(import_times(ctx)),
    }
    # The user path as users run it, one fresh interpreter per operation:
    # the mean over the operations of each one's fastest wall time.  Kept
    # out of the gated metrics: it is mostly interpreter start and import,
    # which drift with the machine by more than the bounds allow.
    cold = {}
    for _ in range(COLD_PASSES):
        for label, wall, _ in workload.cold_round(tally):
            cold.setdefault(label, []).append(wall)
    values["cold.run_s"] = statistics.fmean(min(walls) for walls in cold.values())
    replay = REPLAY[workload.name]
    workload.warm_round(tally)  # fills caches and finishes lazy imports
    user_path, plain, traced = [], [], []
    for _ in range(REPLAY_PASSES):
        user_path.append(sum(t for _, t, _ in workload.warm_round(tally)))
        t0 = time.perf_counter()
        replay(workload, ctx, Tracer(False), tally)
        plain.append(time.perf_counter() - t0)
        tracer = Tracer(True)
        t0 = time.perf_counter()
        own = replay(workload, ctx, tracer, tally)
        traced.append((time.perf_counter() - t0, tracer))
    # fastest of each, as for the end-to-end times
    best, tracer = min(traced, key=lambda pair: pair[0])
    values["trace.overhead_pct"] = 100.0 * (best - min(plain)) / min(plain)
    values["trace.span_coverage_pct"] = (
        100.0 * tracer.total_ns(TOP_LEVEL[workload.name]) * 1e-9 / min(user_path))
    tracer.write(os.path.join(ctx.root, "benchmarks", "_traces",
                              f"{workload.name}-{ctx.seed}.jsonl"))
    values.update(layer_metrics(own, Reference(ctx), ctx, METRIC_SHARE * seconds))
    return values, {name: unit_of(name) for name in values}


UNITS = {"us": "us", "ms": "ms", "s": "s", "bytes": "B", "pct": "%"}


def unit_of(name):
    """Unit from the name's suffix, ignoring a trailing .d<dim>."""
    return UNITS[re.sub(r"\.d\d+$", "", name).rsplit("_", 1)[1]]
