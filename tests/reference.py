"""Per-point reference implementation of the four relations.

This is the evaluation the library ran before the batched kernel in
`nhur.relations`: one problem at a time, with the ur3 auxiliary state
built by `ur3_default_perp` and each ur4 branch built from the
Aharonov-Vaidman state of `av_orthogonal_state`.  The tests compare the
kernel against it; nothing in the package imports it.

The scalar statistics kernels and `av_orthogonal_state` below are the
package's former ones, kept here so that the oracle does not share the
batched formula it checks.
"""

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
    UrEvaluation,
    anticommutator,
    as_operator,
    commutator,
    identity_metric,
    is_good_observable,
    require_normalized,
    ur3_default_perp,
)
from nhur.metric import _variance_error
from nhur.tolerances import EPS_DEGEN, EPS_ORTH, EPS_VAR


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
    """Enforce that a variance came out real and nonnegative; clamp noise."""
    error = _variance_error(val, what)
    if error is not None:
        raise error
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
        check_a = is_good_observable(a, metric)
        check_b = is_good_observable(b, metric)
        if not (check_a and check_b):
            raise NotGoodObservableError(
                "good-observable formalism requires both operators to satisfy "
                f"X^dag G = G X; residuals a={check_a.residual:.3e}, "
                f"b={check_b.residual:.3e} (threshold {check_a.threshold:g})"
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
