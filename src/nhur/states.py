"""State construction: superpositions, orthogonal complements, and the
normalized orthogonal states of the Aharonov-Vaidman decomposition.

All orthogonality here is metric orthogonality, ``<u|G|v> = 0``; with the
identity metric that is ordinary Dirac orthogonality.  Outputs carry a
deterministic phase gauge (first significant amplitude real positive)
because every downstream quantity is phase-invariant and reproducible
output is worth more than an arbitrary gauge.  A state is normalized by the
real part of its norm^2, whose imaginary part is rounding.  Only this
module raises InternalInconsistencyError: where a constructed state fails
its overlap rule, or `ur3_default_perp` finds no direction.
"""

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEigenstateError,
    DimensionMismatchError,
    InternalInconsistencyError,
    NegativeNormError,
    NonFiniteError,
    ZeroVectorError,
)
from .metric import (Metric, _centered, _is_normalized, _norm, _require_orthogonal,
                     _vanishes, _variance, require_normalized)
from .linalg import _scaled, as_operator, as_state
from .tolerances import EPS_MACH


@dataclass(frozen=True, eq=False)
class OrthogonalPair:
    """A state and a unit vector metric-orthogonal to it.

    context is the metric defining the inner product; overlap_residual is
    the achieved ``|<psi_perp|G|psi>|``.  Instances compare by identity.
    """

    psi: np.ndarray
    psi_perp: np.ndarray
    context: Metric
    overlap_residual: float


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first significant entry, one above
    EPS_MACH of the largest, is real > 0."""
    mag = np.abs(v)
    k = np.argmax(mag > EPS_MACH * mag.max())
    return v if mag[k] == 0.0 else v * (v[k].conjugate() / mag[k])


@np.errstate(over="ignore", invalid="ignore")  # then the row fails
def _unit(v: np.ndarray, g: np.ndarray, zero: np.ndarray, what: str):
    """G-normalize the (N, d) rows of v by the real part of their norm^2,
    whose imaginary part is rounding, each row first `_scaled` so that its
    norm^2 neither under- nor overflows: the states and N errors, each None,
    or NonFiniteError where a norm^2 overflowed, ZeroVectorError where zero
    marks the row, or NegativeNormError where the real part is not
    positive; a failed row is unusable."""
    v = _scaled(v)[0]
    nsq = np.vecdot(v, np.matvec(g, v))
    finite = np.isfinite(nsq)
    bad = ~finite | zero | (nsq.real <= 0.0)
    errors = [None] * len(v)
    for i in np.flatnonzero(bad) if bad.any() else ():
        if not finite[i]:
            errors[i] = NonFiniteError(
                f"{what} norm^2 overflows double precision ({nsq[i]:.3g})")
        elif zero[i]:
            errors[i] = ZeroVectorError(f"{what} cancels to the zero vector")
        else:
            errors[i] = NegativeNormError(
                f"{what} has non-positive metric norm^2 = {nsq[i].real:.6g}; "
                "the metric is not positive definite on this vector")
    return v / np.sqrt(np.where(bad, 1.0, nsq.real))[:, None], errors


def _one(states: np.ndarray, errors: list) -> np.ndarray:
    """The state of a batch of one, or its error raised."""
    (state,), (error,) = states, errors
    if error is not None:
        raise error
    return state


def _normalized(v: np.ndarray, g: np.ndarray, what: str) -> np.ndarray:
    """v itself where it `_is_normalized`, so results are reproducible
    bit for bit; else v G-normalized by `_unit`, or its error raised."""
    with np.errstate(over="ignore", invalid="ignore"):  # then v fails the check
        gv = g @ v
    if _is_normalized(np.vdot(v, gv), v, gv):
        return v
    return _one(*_unit(v[None], g, np.array([not v.any()]), what))


def superposition_state(basis, weights, metric: Metric) -> np.ndarray:
    """Metric-normalized linear combination ``N sum_i w_i |b_i>``.

    Raises ZeroVectorError when the combination cancels and
    NegativeNormError when the metric fails to assign it a positive norm.
    """
    vecs = [as_state(b, dim=metric.dim, name=f"basis[{i}]") for i, b in enumerate(basis)]
    w = as_state(weights, dim=len(vecs), name="weights")
    return _one(*_superpose(np.array(vecs), w[None], metric.g))


@np.errstate(over="ignore", invalid="ignore")  # then `_unit` fails the row
def _superpose(basis: np.ndarray, weights: np.ndarray, g: np.ndarray):
    """Batched, unchecked `superposition_state`: (k, d) basis rows and
    (N, k) finite weights give `_unit`'s (N, d) states and N errors."""
    out = np.matvec(basis.T, weights)  # row by row: a batch of one rounds as row i
    scale = (np.abs(weights) * _norm(basis)).max(-1)
    zero = (_norm(out) <= EPS_MACH * scale) | (scale == 0.0)
    return _unit(out, g, zero, "superposition")


def g_orthogonal_complement_2d(psi, metric: Metric) -> np.ndarray:
    """The unique (up to phase) unit vector metric-orthogonal to psi.

    Only defined in dimension 2, where the complement is one-dimensional.
    """
    if metric.dim != 2:
        raise DimensionMismatchError(
            f"orthogonal complement is only unique in dimension 2, metric has dim {metric.dim}"
        )
    psi = require_normalized(psi, metric)
    w = metric.g @ psi
    # (v, w) = 0 by construction: the 2D cross-vector of w
    v = np.array([[-w[1].conjugate(), w[0].conjugate()]])
    v = _fix_phase(_one(*_unit(v, metric.g, np.zeros(1, dtype=bool), "complement")))
    _require_orthogonal("complement", v, w, InternalInconsistencyError)
    return v


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NonFiniteError
def g_complement_projection(vec, psi, metric: Metric) -> np.ndarray:
    """Metric-normalized projection of vec onto the complement of psi.

    Projects with ``1 - |psi><psi|G`` (psi metric-normalized), then
    normalizes; vec is first `_scaled`, exactly, so the result does not
    depend on its units.  Raises ZeroVectorError when vec is
    metric-parallel to psi and no direction survives.
    """
    psi = require_normalized(psi, metric)
    vec = _scaled(as_state(vec, dim=metric.dim, name="vector"))[0]
    out = vec - complex(np.vdot(psi, metric.g @ vec)) * psi
    # second pass removes normalization roundoff from the projector
    out = out - complex(np.vdot(psi, metric.g @ out)) * psi
    zero = _vanishes(_norm(out), _norm(vec))
    return _fix_phase(_one(*_unit(out[None], metric.g, np.array([zero]),
                                  "projected complement")))


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NonFiniteError
def av_orthogonal_state(x, psi, metric: Metric) -> OrthogonalPair:
    """Normalized orthogonal state of the identity ``X|psi> = <X>|psi> + DX |perp>``.

    The returned pair satisfies the reconstruction above with the
    metric-weighted expectation and standard deviation.  Raises
    DegenerateEigenstateError when psi is an eigenstate of x (DX within
    EPS_DEGEN |x|_F, `metric._vanishes`), where the direction is undefined.
    x is first `_scaled`, exactly, as a whole: the direction and that rule
    are unchanged by its units, and its variance then neither under- nor
    overflows.
    """
    x = as_operator(x, dim=metric.dim, name="operator")
    x = _scaled(x.ravel())[0].reshape(x.shape)
    psi = require_normalized(psi, metric)
    g = metric.g
    v = np.array([psi, x @ psi])
    gv = np.matvec(g, v)
    (d,), (gd,) = _centered(v, gv)[0]
    sd = float(np.sqrt(_variance(np.vecdot(d, gd))))
    if _vanishes(sd, np.linalg.norm(x)):
        raise DegenerateEigenstateError(
            f"state is an eigenstate of the operator (sd = {sd:.3e}); "
            "the orthogonal direction is undefined"
        )
    perp = d / sd
    # discard the roundoff component along psi so orthogonality is exact
    perp = perp - complex(np.vdot(psi, g @ perp)) * psi
    residual = _require_orthogonal("orthogonal-state", perp, gv[0],
                                   InternalInconsistencyError)
    return OrthogonalPair(psi=psi, psi_perp=perp, context=metric,
                          overlap_residual=residual)


def ur3_default_perp(a, b, psi, metric: Metric, sign: int) -> np.ndarray:
    """Canonical auxiliary state for the third relation's sign branch.

    Dimension 1 has none (DimensionMismatchError); in dimension 2 it is
    the unique complement of psi.  In higher dimensions it is the
    normalized complement projection of ``(A + sign*iB)|psi>``, the
    direction that maximizes the bound; when that projection vanishes the
    bound is zero for every choice, and a deterministic basis complement
    is returned instead.
    """
    if metric.dim == 1:
        raise DimensionMismatchError("no state is metric-orthogonal to psi in dimension 1")
    if metric.dim == 2:
        return g_orthogonal_complement_2d(psi, metric)
    a = as_operator(a, dim=metric.dim, name="first operator")
    b = as_operator(b, dim=metric.dim, name="second operator")
    for vec in ((a + (1j * sign) * b) @ psi, *np.eye(metric.dim, dtype=complex)):
        with suppress(ZeroVectorError):
            return g_complement_projection(vec, psi, metric)
    raise InternalInconsistencyError("no direction orthogonal to the state found")
