"""Per-point reference implementation of the four relations.

This is the evaluation the library ran before the batched kernel in
`nhur.relations`: one problem at a time, with the ur3 auxiliary state
built by `ur3_default_perp` and each ur4 branch built from the
Aharonov-Vaidman state of `av_orthogonal_state`.  The tests compare the
kernel against it; nothing in the package imports it.

`points` at the end gives a sweep a per-point form, one ScenarioPoint per
grid point, read from its public arrays.  `write_sweep_csv` and
`summarize_sweep` are the CLI's former per-point sweep output over those
points, one `csv_row` per point, which the columnar writer and summary in
`nhur.cli` must reproduce byte for byte.

The scalar statistics kernels (uncentered, with an absolute EPS_VAR
check), `av_orthogonal_state`, the two-product good-observable residual
and the good formalism's commutator and anticommutator forms of ur1/ur2
below are the package's former ones, kept here so that the oracle shares
neither the centered formula, the Cov_G route nor the one-product gate
it checks.
"""

import sys
from dataclasses import dataclass

import numpy as np

from nhur import (
    DegenerateEigenstateError,
    Formalism,
    InternalInconsistencyError,
    Metric,
    NotGoodObservableError,
    NotOrthogonalError,
    OrthogonalPair,
    ScenarioPoint,
    UrEvaluation,
    anticommutator,
    as_operator,
    commutator,
    identity_metric,
    require_normalized,
    ur3_default_perp,
)
from nhur.cli import csv_header, csv_row
from nhur.tolerances import EPS_DEGEN, EPS_GOOD, EPS_ORTH

# The oracle's own absolute limit on the imaginary or negative part of a
# variance; the package reads that part as rounding and checks no limit.
EPS_VAR = 1e-9


def good_residual(x: np.ndarray, g: np.ndarray) -> float:
    """|X^dag G - G X|_F / (|G|_F |X|_F) with both products the definition
    names, not the package's one-product form; 0 for a zero denominator."""
    denom = np.linalg.norm(g) * np.linalg.norm(x)
    return float(np.linalg.norm(x.conj().T @ g - g @ x) / denom) if denom else 0.0


def _expect(x: np.ndarray, psi: np.ndarray, g: np.ndarray) -> complex:
    return complex(np.vdot(psi, g @ (x @ psi)))


def _variance_raw(x: np.ndarray, psi: np.ndarray, g: np.ndarray) -> complex:
    w = x @ psi
    return complex(np.vdot(w, g @ w) - np.vdot(w, g @ psi) * np.vdot(psi, g @ w))


def _covariance_raw(
    a: np.ndarray, b: np.ndarray, psi: np.ndarray, g: np.ndarray
) -> complex:
    wa = a @ psi
    wb = b @ psi
    return complex(np.vdot(wa, g @ wb) - np.vdot(wa, g @ psi) * np.vdot(psi, g @ wb))


def _as_real_variance(val: complex, what: str = "variance") -> float:
    """Enforce that a variance came out real and nonnegative within the
    absolute EPS_VAR; clamp noise."""
    if abs(val.imag) > EPS_VAR:
        raise InternalInconsistencyError(
            f"{what} has imaginary part {val.imag:.3e} beyond {EPS_VAR:g}"
        )
    if val.real < -EPS_VAR:
        raise InternalInconsistencyError(
            f"{what} is negative ({val.real:.3e}) beyond {EPS_VAR:g}"
        )
    return max(val.real, 0.0)


def av_orthogonal_state(x, psi, metric: Metric) -> OrthogonalPair:
    """Normalized orthogonal state of ``X|psi> = <X>|psi> + DX |perp>``."""
    x = as_operator(x, dim=metric.dim, name="operator")
    psi = require_normalized(psi, metric)
    g = metric.g
    expect = _expect(x, psi, g)
    sd = float(np.sqrt(_as_real_variance(_variance_raw(x, psi, g))))
    if sd <= EPS_DEGEN:
        raise DegenerateEigenstateError(
            f"state is an eigenstate of the operator (sd = {sd:.3e}); "
            "the orthogonal direction is undefined"
        )
    perp = (x @ psi - expect * psi) / sd
    # discard the roundoff component along psi so orthogonality is exact
    perp = perp - complex(np.vdot(psi, g @ perp)) * psi
    residual = abs(complex(np.vdot(perp, g @ psi)))
    if residual > EPS_ORTH:
        raise InternalInconsistencyError(
            f"orthogonal-state overlap {residual:.3e} exceeds {EPS_ORTH:g}"
        )
    return OrthogonalPair(
        psi=psi, psi_perp=perp, context=metric, overlap_residual=residual
    )


@dataclass(frozen=True)
class _Context:
    a: np.ndarray
    b: np.ndarray
    psi: np.ndarray
    metric: Metric
    formalism: Formalism
    var_a: float
    var_b: float
    cov: complex

    @property
    def lhs(self) -> float:
        return self.var_a + self.var_b


def _prepare(a, b, psi, g: Metric | None, formalism: Formalism) -> _Context:
    a = as_operator(a, name="first operator")
    b = as_operator(b, dim=a.shape[0], name="second operator")
    if formalism is Formalism.PLAIN or g is None:
        metric = identity_metric(a.shape[0])
    else:
        metric = g
    if formalism is Formalism.GOOD:
        res_a, res_b = good_residual(a, metric.g), good_residual(b, metric.g)
        if res_a > EPS_GOOD or res_b > EPS_GOOD:
            raise NotGoodObservableError(
                "good-observable formalism requires both operators to satisfy "
                f"X^dag G = G X; residuals a={res_a:.3e}, "
                f"b={res_b:.3e} (threshold {EPS_GOOD:g})"
            )
    psi = require_normalized(psi, metric)
    garr = metric.g
    return _Context(
        a=a,
        b=b,
        psi=psi,
        metric=metric,
        formalism=formalism,
        var_a=_as_real_variance(_variance_raw(a, psi, garr)),
        var_b=_as_real_variance(_variance_raw(b, psi, garr)),
        cov=_covariance_raw(a, b, psi, garr),
    )


def _real_bracket(value: complex, what: str) -> float:
    if abs(value.imag) > EPS_VAR:
        raise InternalInconsistencyError(
            f"{what} must be real for good observables, got imaginary part "
            f"{value.imag:.3e}"
        )
    return value.real


def _rhs_imag(ctx: _Context) -> float:
    """2 Im Cov, or its commutator form in the good formalism."""
    if ctx.formalism is Formalism.GOOD:
        bracket = 1j * _expect(commutator(ctx.b, ctx.a), ctx.psi, ctx.metric.g)
        return _real_bracket(bracket, "i<[B,A]>")
    return 2.0 * ctx.cov.imag


def _rhs_real(ctx: _Context) -> float:
    """2 Re Cov, or its anticommutator form in the good formalism."""
    if ctx.formalism is Formalism.GOOD:
        g = ctx.metric.g
        bracket = _expect(anticommutator(ctx.a, ctx.b), ctx.psi, g) - 2.0 * _expect(
            ctx.a, ctx.psi, g
        ) * _expect(ctx.b, ctx.psi, g)
        return _real_bracket(bracket, "<{A,B}> - 2<A><B>")
    return 2.0 * ctx.cov.real


def _finish(relation, ctx, rhs, tol, sign_branch=None, degenerate=False):
    lhs = ctx.lhs
    gap = lhs - rhs
    return UrEvaluation(
        relation=relation,
        formalism=ctx.formalism,
        lhs=lhs,
        rhs=float(rhs),
        gap=gap,
        holds=gap >= -tol,
        sign_branch=sign_branch,
        degenerate=degenerate,
    )


def _ur3_from_ctx(ctx: _Context, psi_perp, sign: str, tol: float) -> UrEvaluation:
    signs = {"plus": (1,), "minus": (-1,), "max": (1, -1)}[sign]
    base = _rhs_imag(ctx)
    garr = ctx.metric.g
    if psi_perp is not None:
        psi_perp = require_normalized(psi_perp, ctx.metric, name="auxiliary state")
        overlap = abs(complex(np.vdot(psi_perp, garr @ ctx.psi)))
        if overlap > EPS_ORTH:
            raise NotOrthogonalError(
                f"auxiliary state has metric overlap {overlap:.3e} with the "
                f"state (limit {EPS_ORTH:g})"
            )
    best_rhs = None
    best_label = None
    for s in signs:
        perp = psi_perp
        if perp is None:
            perp = ur3_default_perp(ctx.a, ctx.b, ctx.psi, ctx.metric, s)
        combined = ctx.a + (1j * s) * ctx.b
        element = complex(np.vdot(perp, garr @ (combined @ ctx.psi)))
        rhs = s * base + abs(element) ** 2
        if best_rhs is None or rhs > best_rhs:
            best_rhs = rhs
            best_label = "plus" if s == 1 else "minus"
    return _finish("ur3", ctx, best_rhs, tol, sign_branch=best_label)


def _ur4_from_ctx(ctx: _Context, tol: float) -> UrEvaluation:
    garr = ctx.metric.g
    best_rhs = None
    best_label = None
    degenerate = False
    for s in (1, -1):
        combined = ctx.a + s * ctx.b
        sd = float(np.sqrt(_as_real_variance(_variance_raw(combined, ctx.psi, garr))))
        if sd <= EPS_DEGEN:
            # eigenstate of A+-B: the branch bound is trivially zero
            degenerate = True
            value = 0.0
        else:
            pair = av_orthogonal_state(combined, ctx.psi, ctx.metric)
            element = complex(np.vdot(pair.psi_perp, garr @ (combined @ ctx.psi)))
            value = 0.5 * abs(element) ** 2
        if best_rhs is None or value > best_rhs:
            best_rhs = value
            best_label = "plus" if s == 1 else "minus"
    return _finish("ur4", ctx, best_rhs, tol, sign_branch=best_label,
                   degenerate=degenerate)


def evaluate_all(a, b, psi, g: Metric | None = None,
                 formalism: Formalism = Formalism.PLAIN,
                 *, psi_perp=None, ur_tol: float = 1e-9) -> tuple[UrEvaluation, ...]:
    """All four relations over one input, point by point."""
    ctx = _prepare(a, b, psi, g, formalism)
    return (
        _finish("ur1", ctx, _rhs_imag(ctx), ur_tol),
        _finish("ur2", ctx, _rhs_real(ctx), ur_tol),
        _ur3_from_ctx(ctx, psi_perp, "max", ur_tol),
        _ur4_from_ctx(ctx, ur_tol),
    )


def ur3_branch(a, b, psi, g, formalism, sign, psi_perp=None) -> UrEvaluation:
    """One ur3 sign branch ("plus" or "minus")."""
    return _ur3_from_ctx(_prepare(a, b, psi, g, formalism), psi_perp, sign, 1e-9)


# ---- per-point sweep output ----------------------------------------------

_RELATIONS = ("ur1", "ur2", "ur3", "ur4")


def points(sweep) -> list:
    """A sweep's ScenarioPoints, from its public arrays: each point's four
    UrEvaluation records in the sweep's formalism, or its error's text."""
    out = []
    for x, lhs, rhs, gap, holds, minus, degenerate, error in zip(
            sweep.param.tolist(), sweep.lhs.tolist(), sweep.rhs.T.tolist(),
            sweep.gap.T.tolist(), sweep.holds.T.tolist(), sweep.minus.T.tolist(),
            sweep.degenerate.tolist(), sweep.errors):
        if error is not None:
            out.append(ScenarioPoint(x, (), f"{type(error).__name__}: {error}"))
            continue
        branch = (None, None, *("minus" if m else "plus" for m in minus))
        flags = (False, False, False, degenerate)
        out.append(ScenarioPoint(x, tuple(
            UrEvaluation(*row) for row in zip(
                _RELATIONS, [sweep.formalism] * 4, [lhs] * 4, rhs, gap, holds,
                branch, flags))))
    return out


def write_sweep_csv(path: str, param_name: str, sweep) -> int:
    """Write rows for the successful points; returns how many were written."""
    lines = [csv_header(param_name)]
    written = 0
    for pt in points(sweep):
        if pt.ok:
            lines.append(csv_row(pt))
            written += 1
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return written


def summarize_sweep(sweep, param_name: str, tol: float) -> int:
    """Print per-relation minima and the verdict; returns the exit code."""
    pts = points(sweep)
    errors = [pt for pt in pts if not pt.ok]
    ok_points = [pt for pt in pts if pt.ok]
    for idx, rel in enumerate(_RELATIONS):
        best = None
        for pt in ok_points:
            ev = pt.evaluations[idx]
            if best is None or ev.gap < best[0]:
                best = (ev.gap, pt.param)
        if best is not None:
            print(f"{rel}: min gap {best[0]:.6g} at {param_name} = {best[1]:.9g}")
    violations = [
        (pt.param, ev.relation, ev.gap)
        for pt in ok_points
        for ev in pt.evaluations
        if not ev.holds
    ]
    for param, rel, gap in violations:
        print(f"VIOLATION: {rel} gap {gap:.6g} at {param_name} = {param:.9g}")
    for pt in errors:
        print(f"error at {param_name} = {pt.param:.9g}: {pt.error}",
              file=sys.stderr)
    if errors:
        return 2
    if violations:
        print(f"{len(violations)} inequality violations beyond tolerance {tol:g}")
        return 1
    print(f"all inequalities hold ({len(ok_points)} points, tolerance {tol:g})")
    return 0
