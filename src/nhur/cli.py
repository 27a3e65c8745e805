"""Command-line front end.

Four subcommands:

  example1   sweep the polar-part scenario over theta0, write CSV
  example2   sweep the PT scenario over alpha, write CSV
  check      evaluate one problem from a JSON file, write a JSON report
  metric     print metric diagnostics for the PT model at one gamma

`example2` normalizes its states in the metric of the statistics (the
Dirac product under --formalism plain), and `check` rescales an off-norm
state the same way, through `states`; this module applies no tolerance
rule of its own, and EPS_UR, the slack it prints, has no override.

Exit codes: 0 when every evaluated inequality holds, 1 when one is
violated, lhs - rhs < -EPS_UR * S (`relations`), 2 for usage, parse, or
validation errors.
`main(argv)` may be called repeatedly in one process: it builds the
argument parser on its first call and reuses it after that.

CSV is written with full double precision (17 significant digits), '.'
decimal points, and LF line endings.  A sweep's CSV and summary come
straight from its arrays, a column at a time, with no per-point record;
the bytes equal those of `csv_row` per point.  JSON problem files carry
complex numbers as [re, im] pairs of JSON numbers, as flat row-major
lists or as rows; each field is one regular array, converted at once.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from .errors import MetricValidationError, NhurError
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z
from .metric import (identity_metric, is_good_observable, metric_from_matrix,
                     metric_from_right_eigenvectors)
from .relations import Formalism, _stats_g, evaluate_all
from .scenarios import (
    BROKEN,
    SYMMETRIC,
    Example1Config,
    Example2Config,
    Sweep,
    _error_text,
    broken_eigensystem,
    example1_sweep,
    example2_sweep,
    pt_hamiltonian,
    symmetric_eigensystem,
)
from .states import _normalized
from .tolerances import EPS_UR

_RELATIONS = ("ur1", "ur2", "ur3", "ur4")


_fmt = "%.17g".__mod__  # full double precision, as format(x, ".17g")


def _bool(b) -> str:
    return "true" if b else "false"


def csv_header(param_name: str) -> str:
    cols = [param_name]
    for rel in ("ur1", "ur2"):
        cols += [f"{rel}_lhs", f"{rel}_rhs", f"{rel}_gap", f"{rel}_holds"]
    cols += ["ur3_lhs", "ur3_rhs", "ur3_gap", "ur3_holds", "ur3_branch"]
    cols += ["ur4_lhs", "ur4_rhs", "ur4_gap", "ur4_holds", "ur4_branch",
             "ur4_degenerate"]
    return ",".join(cols)


def csv_row(point) -> str:
    e1, e2, e3, e4 = point.evaluations
    row = [_fmt(point.param)]
    for ev in (e1, e2):
        row += [_fmt(ev.lhs), _fmt(ev.rhs), _fmt(ev.gap), _bool(ev.holds)]
    row += [_fmt(e3.lhs), _fmt(e3.rhs), _fmt(e3.gap), _bool(e3.holds),
            e3.sign_branch]
    row += [_fmt(e4.lhs), _fmt(e4.rhs), _fmt(e4.gap), _bool(e4.holds),
            e4.sign_branch, _bool(e4.degenerate)]
    return ",".join(row)


def write_sweep_csv(path: str, param_name: str, sweep: Sweep) -> int:
    """Write rows for the successful points of a sweep; returns how many
    were written.  Each column is formatted once, and the one lhs column
    fills the four *_lhs cells; the bytes equal csv_row's."""
    ok = sweep.ok
    floats = np.vstack([sweep.param, sweep.lhs, sweep.rhs, sweep.gap])[:, ok]
    # rows equal bit for bit, as ur3's rhs and lhs are by default, format once
    distinct = {row.tobytes(): tuple(row.tolist()) for row in floats}
    # one % per row; splitlines, unlike split, gives [] for no points
    text = {key: ("%.17g\n" * len(row) % row).splitlines()
            for key, row in distinct.items()}
    x, lhs, *rhs_gap = [text[row.tobytes()] for row in floats]
    rhs, gap = rhs_gap[:4], rhs_gap[4:]
    holds = np.where(sweep.holds[:, ok], "true", "false").tolist()
    branch = np.where(sweep.minus[:, ok], "minus", "plus").tolist()
    cols = [x, lhs, rhs[0], gap[0], holds[0], lhs, rhs[1], gap[1], holds[1],
            lhs, rhs[2], gap[2], holds[2], branch[0],
            lhs, rhs[3], gap[3], holds[3], branch[1],
            np.where(sweep.degenerate[ok], "true", "false").tolist()]
    body = "".join([",".join(row) + "\n" for row in zip(*cols)])
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(csv_header(param_name) + "\n" + body)
    return len(x)


def _summarize_sweep(sweep: Sweep, param_name: str, tol: float) -> int:
    """Print per-relation minima and the verdict; returns the exit code."""
    ok = sweep.ok
    param = sweep.param[ok].tolist()
    gap = sweep.gap[:, ok]
    for rel, row in zip(_RELATIONS, gap.tolist() if param else ()):
        j = min(range(len(row)), key=row.__getitem__)  # the first smallest
        print(f"{rel}: min gap {row[j]:.6g} at {param_name} = {param[j]:.9g}")
    violations = [(i, k) for i, row in enumerate(sweep.holds[:, ok].T.tolist())
                  for k, holds in enumerate(row) if not holds]
    for i, k in violations:
        print(f"VIOLATION: {_RELATIONS[k]} gap {gap[k, i]:.6g} "
              f"at {param_name} = {param[i]:.9g}")
    errors = [(x, e) for x, e in zip(sweep.param.tolist(), sweep.errors)
              if e is not None]
    for x, e in errors:
        print(f"error at {param_name} = {x:.9g}: {_error_text(e)}", file=sys.stderr)
    if errors:
        return 2
    if violations:
        print(f"{len(violations)} inequality violations beyond tolerance {tol:g}")
        return 1
    print(f"all inequalities hold ({len(param)} points, tolerance {tol:g})")
    return 0


def _run_sweep(args, param_name: str, run) -> int:
    """Check --points, call run(points), write the CSV and summarize."""
    if args.points < 2:
        print("error: --points must be at least 2", file=sys.stderr)
        return 2
    result = run(args.points)
    written = write_sweep_csv(args.out, param_name, result)
    print(f"wrote {args.out} ({written} rows)")
    return _summarize_sweep(result, param_name, EPS_UR)


def cmd_example1(args) -> int:
    # the config checks itself when built, so build it after --points
    return _run_sweep(args, "theta0", lambda points: example1_sweep(Example1Config(
        theta1=args.theta1, theta3=args.theta3,
        theta5=args.theta5, theta7=args.theta7,
    ), points=points))


def cmd_example2(args) -> int:
    defaults = (
        Example2Config.symmetric_default()
        if args.phase == SYMMETRIC
        else Example2Config.broken_default()
    )
    return _run_sweep(args, "alpha", lambda points: example2_sweep(Example2Config(
        gamma=defaults.gamma if args.gamma is None else args.gamma,
        p=defaults.p if args.p is None else args.p,
        phase=args.phase,
    ), points=points, formalism=args.formalism))


class ProblemParseError(NhurError):
    """A problem file is malformed; message carries the field path."""


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token!r} is not allowed")


def _parse_complex(node, count: int, where: str) -> np.ndarray:
    """A field of [re, im] pairs, a flat list or rows of them, as `count`
    complex entries: converted as one array, checked as one array."""
    arr = np.array(node, dtype=object)
    leaves = arr.reshape(-1)
    odd = set(map(type, leaves)) - {int, float}  # JSON numbers; bool is odd
    if odd or arr.shape[-1:] != (2,):
        # name the first leaf that is no number, or in an irregular nesting
        # (a leaf is a list) `_odd_leaf`, else the first entry that is no
        # pair; a bare number or empty field names itself
        got = (_odd_leaf(leaves.tolist(), count) if list in odd else
               next(x for x in leaves if type(x) in odd) if odd else
               arr.reshape(-1, arr.shape[-1])[0].tolist() if arr.ndim and arr.size
               else node)
        raise ProblemParseError(f"{where}: expected [re, im] pairs, got {got!r}")
    pairs = arr.reshape(-1, 2)
    try:
        flt = pairs.astype(float)
    except OverflowError:  # an integer beyond double range reads as inf
        flt = np.where(np.abs(pairs) <= sys.float_info.max, pairs,
                       math.inf).astype(float)
    finite = np.isfinite(flt).all(1)
    if not finite.all():
        raise ProblemParseError(
            f"{where}: non-finite entry {pairs[finite.argmin()].tolist()}")
    if len(flt) != count:
        raise ProblemParseError(
            f"{where}: expected {count} complex entries, got {len(flt)}")
    return flt.view(complex).ravel()


def _odd_leaf(leaves: list, count: int):
    """In an irregular nesting, the first leaf that is no array of number
    pairs, else the first unlike a row of len(leaves) equal rows that hold
    `count` pairs in all (a short or a long row)."""
    subs = [np.array(x, dtype=object) for x in leaves]
    odd = [sub.shape[-1:] != (2,) or bool(set(map(type, sub.reshape(-1))) - {int, float})
           for sub in subs]
    per = count // len(leaves)
    row = (per, 2) if per > 1 else (2,)
    return leaves[odd.index(True)] if any(odd) else next(
        (x for x, sub in zip(leaves, subs) if sub.shape != row), leaves[0])


def parse_problem(payload: dict) -> dict:
    """Validate a problem dict into arrays plus formalism and options."""
    if not isinstance(payload, dict):
        raise ProblemParseError("problem file must be a JSON object")
    if "dim" not in payload:
        raise ProblemParseError("missing required field 'dim'")
    dim = payload["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):  # a JSON integer
        raise ProblemParseError("'dim' must be an integer")
    if dim < 1:
        raise ProblemParseError(f"'dim' must be positive, got {dim}")
    out = {"dim": dim}
    for field in ("A", "B"):
        if field not in payload:
            raise ProblemParseError(f"missing required field {field!r}")
        flat = _parse_complex(payload[field], dim * dim, field)
        out[field.lower()] = flat.reshape(dim, dim)
    if "psi" not in payload:
        raise ProblemParseError("missing required field 'psi'")
    out["psi"] = _parse_complex(payload["psi"], dim, "psi")
    if "formalism" not in payload:
        raise ProblemParseError("missing required field 'formalism'")
    try:
        out["formalism"] = Formalism.parse(str(payload["formalism"]))
    except ValueError:
        raise ProblemParseError(
            f"unknown formalism {payload['formalism']!r} "
            "(use plain, gmetric, or good)"
        )
    out["g"] = (
        _parse_complex(payload["G"], dim * dim, "G").reshape(dim, dim)
        if "G" in payload
        else None
    )
    out["psi_perp"] = (
        _parse_complex(payload["psi_perp"], dim, "psi_perp")
        if "psi_perp" in payload
        else None
    )
    return out


def _evaluation_record(ev) -> dict:
    return {
        "relation": ev.relation,
        "formalism": ev.formalism.value,
        "sign_branch": ev.sign_branch,
        "lhs": ev.lhs,
        "rhs": ev.rhs,
        "gap": ev.gap,
        "holds": ev.holds,
        "degenerate": ev.degenerate,
    }


def cmd_check(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            payload = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    problem = parse_problem(payload)
    report: dict = {"dim": problem["dim"],
                    "formalism": problem["formalism"].value}
    report["tolerance_ur"] = EPS_UR
    try:
        metric = (identity_metric(problem["dim"]) if problem["g"] is None
                  else metric_from_matrix(problem["g"]))
        metric_report = metric.validation
    except MetricValidationError as exc:
        metric_report = exc.report
    report["metric"] = {
        "provenance": "identity" if problem["g"] is None else "explicit",
        "hermitian": metric_report.hermitian,
        "positive_definite": metric_report.positive_definite,
        "min_eigenvalue": metric_report.min_eigenvalue,
    }
    if not metric_report.ok:
        # the cause goes to stderr first, so a report that cannot be written
        # (an OSError, which main prints) does not hide it
        print("error: metric failed validation "
              f"(hermitian={_bool(metric_report.hermitian)}, "
              f"positive_definite={_bool(metric_report.positive_definite)})",
              file=sys.stderr)
        report["error"] = "metric failed validation"
        _write_report(args.out, report)
        return 2
    check_a = is_good_observable(problem["a"], metric)
    check_b = is_good_observable(problem["b"], metric)
    report["good_observable"] = {
        "A": {"is_good": check_a.is_good, "residual": check_a.residual},
        "B": {"is_good": check_b.is_good, "residual": check_b.residual},
    }
    try:
        stats_g = _stats_g(metric, problem["formalism"], problem["dim"])
        psi = _normalized(problem["psi"], stats_g, "psi")
        psi_perp = problem["psi_perp"]
        if psi_perp is not None:
            psi_perp = _normalized(psi_perp, stats_g, "psi_perp")
        evaluations = evaluate_all(problem["a"], problem["b"], psi, metric,
                                   problem["formalism"], psi_perp=psi_perp)
    except NhurError as exc:
        # as above; the report so far, residuals included, explains the failure
        print(f"error: {exc}", file=sys.stderr)
        report["error"] = _error_text(exc)
        _write_report(args.out, report)
        return 2
    report["evaluations"] = [_evaluation_record(ev) for ev in evaluations]
    all_hold = all(ev.holds for ev in evaluations)
    report["all_hold"] = all_hold
    _write_report(args.out, report)
    print(f"metric: hermitian={_bool(report['metric']['hermitian'])} "
          f"positive_definite={_bool(report['metric']['positive_definite'])}")
    print(f"good observable A: residual={check_a.residual:.6g} "
          f"-> {_bool(check_a.is_good)}")
    print(f"good observable B: residual={check_b.residual:.6g} "
          f"-> {_bool(check_b.is_good)}")
    for ev in evaluations:
        branch = f" branch={ev.sign_branch}" if ev.sign_branch else ""
        degen = " degenerate" if ev.degenerate else ""
        print(f"{ev.relation}: lhs={ev.lhs:.12g} rhs={ev.rhs:.12g} "
              f"gap={ev.gap:.12g} holds={_bool(ev.holds)}{branch}{degen}")
    if all_hold:
        print(f"all inequalities hold (tolerance {EPS_UR:g})")
        return 0
    print(f"inequality violation beyond tolerance {EPS_UR:g}")
    return 1


def _write_report(path, report: dict) -> None:
    if path:
        with open(path, "w", encoding="ascii", newline="") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


def cmd_metric(args) -> int:
    gamma = args.gamma
    # the phase follows from gamma; each builder applies the gamma rule first
    phase, build = ((SYMMETRIC, symmetric_eigensystem) if gamma * gamma < 1.0
                    else (BROKEN, broken_eigensystem))
    frame = build(gamma)
    h = pt_hamiltonian(gamma)
    metric = metric_from_right_eigenvectors(frame, hamiltonian=h)
    rep = metric.validation
    print(f"phase: {phase}, gamma = {gamma:g}")
    print("G =")
    for row in metric.g:
        cells = "  ".join(f"{z.real:+.12g}{z.imag:+.12g}j" for z in row)
        print(f"  [ {cells} ]")
    eigs = np.linalg.eigvalsh(metric.g)
    print("eigenvalues: " + ", ".join(f"{v:.12g}" for v in eigs))
    print(f"hermitian: {_bool(rep.hermitian)}")
    print(f"positive definite: {_bool(rep.positive_definite)} "
          f"(min eigenvalue {rep.min_eigenvalue:.6g})")
    print(f"stationarity residual |GH - H^dag G|_F vs H(gamma): "
          f"{rep.stationarity_residual:.6g}")
    # H(1/gamma) has no value where 1/gamma is not finite, gamma = 0 included
    inverse = 1.0 / gamma if gamma != 0 else math.inf
    table = [
        ("H(gamma)", h),
        ("H(1/gamma)", pt_hamiltonian(inverse) if math.isfinite(inverse) else None),
        ("sigma_x", SIGMA_X),
        ("sigma_y", SIGMA_Y),
        ("sigma_z", SIGMA_Z),
    ]
    print("good observables:")
    for name, op in table:
        if op is None:
            continue
        check = is_good_observable(op, metric)
        print(f"  {name:<12} residual={check.residual:.6g} "
              f"-> {_bool(check.is_good)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhur",
        description="Sum uncertainty relations for non-Hermitian operators "
                    "under a Hilbert-space metric",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser(
        "example1",
        help="sweep the polar-part operator pair over theta0 in [0, pi]",
    )
    p1.add_argument("--points", type=int, default=721,
                    help="grid size including endpoints (default 721)")
    for name in ("theta1", "theta3", "theta5", "theta7"):
        p1.add_argument(f"--{name}", type=float, default=getattr(Example1Config, name))
    p1.add_argument("--out", required=True, help="CSV output path")
    p1.set_defaults(func=cmd_example1)

    p2 = sub.add_parser(
        "example2",
        help="sweep the PT-model scenario over alpha in [0, 2 pi]",
    )
    p2.add_argument("--phase", choices=(SYMMETRIC, BROKEN), required=True)
    p2.add_argument("--gamma", type=float, default=None,
                    help="defaults to 0.9 (symmetric) or 1.2 (broken)")
    p2.add_argument("--p", type=float, default=None,
                    help="superposition weight, defaults 0.5 / 1.5 by phase")
    p2.add_argument("--points", type=int, default=721)
    p2.add_argument("--formalism", choices=("plain", "gmetric", "good"),
                    default="good")
    p2.add_argument("--out", required=True, help="CSV output path")
    p2.set_defaults(func=cmd_example2)

    pc = sub.add_parser("check", help="evaluate one problem from a JSON file")
    pc.add_argument("--input", required=True, help="problem JSON path")
    pc.add_argument("--out", default=None, help="report JSON path (optional)")
    pc.set_defaults(func=cmd_check)

    pm = sub.add_parser(
        "metric",
        help="print metric diagnostics for the PT model at one gamma",
    )
    pm.add_argument("--gamma", type=float, required=True,
                    help="the phase follows: symmetric if gamma^2 < 1, else broken")
    pm.set_defaults(func=cmd_metric)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call.  parse_args leaves
    a parser unchanged and every default here is immutable, so one parser
    serves every call in a process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (NhurError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
