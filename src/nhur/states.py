"""State construction: superpositions, orthogonal complements, and the
normalized orthogonal states of the Aharonov-Vaidman decomposition.

All orthogonality here is metric orthogonality, ``<u|G|v> = 0``; with the
identity metric that is ordinary Dirac orthogonality.  Outputs carry a
deterministic phase gauge (first significant amplitude real positive)
because every downstream quantity is phase-invariant and reproducible
output is worth more than an arbitrary gauge.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEigenstateError,
    DimensionMismatchError,
    InternalInconsistencyError,
    NegativeNormError,
    ZeroVectorError,
)
from .metric import Metric, _variance, require_normalized
from .linalg import _mv, _vdot, as_operator, as_state
from .tolerances import EPS_DEGEN, EPS_MACH, EPS_ORTH, EPS_VAR


@dataclass(frozen=True)
class OrthogonalPair:
    """A state and a unit vector metric-orthogonal to it.

    context is the metric defining the inner product; overlap_residual is
    the achieved ``|<psi_perp|G|psi>|``.
    """

    psi: np.ndarray
    psi_perp: np.ndarray
    context: Metric
    overlap_residual: float


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first significant entry is real > 0."""
    idx = 0
    for k in range(v.shape[0]):
        if abs(v[k]) > 1e-12:
            idx = k
            break
    ref = v[idx]
    if abs(ref) == 0.0:
        return v
    return v * (ref.conjugate() / abs(ref))


def _g_normalize(v: np.ndarray, metric: Metric, name: str) -> np.ndarray:
    nsq = complex(np.vdot(v, metric.g @ v))
    error = _norm_sq_error(nsq, name)
    if error is not None:
        raise error
    return v / np.sqrt(nsq.real)


def _norm_sq_error(nsq: complex, name: str):
    """The error for a squared metric norm that is not real and positive,
    or None."""
    if abs(nsq.imag) > EPS_VAR * max(abs(nsq.real), 1.0):
        return InternalInconsistencyError(
            f"{name} norm^2 has imaginary part {nsq.imag:.3e}"
        )
    if nsq.real <= 0.0:
        return NegativeNormError(
            f"{name} has non-positive metric norm^2 = {nsq.real:.6g}; "
            "the metric is not positive definite on this vector"
        )
    return None


def superposition_state(basis, weights, metric: Metric) -> np.ndarray:
    """Metric-normalized linear combination ``N sum_i w_i |b_i>``.

    Raises ZeroVectorError when the combination cancels and
    NegativeNormError when the metric fails to assign it a positive norm.
    """
    vecs = [as_state(b, dim=metric.dim, name=f"basis[{i}]") for i, b in enumerate(basis)]
    w = np.asarray(weights, dtype=complex)
    if w.ndim != 1 or w.shape[0] != len(vecs):
        raise DimensionMismatchError(
            f"got {len(vecs)} basis vectors but {w.shape} weights"
        )
    if not np.isfinite(w).all():
        raise ZeroVectorError("weights contain non-finite entries")
    (psi,), (error,) = _superpose(np.array(vecs), w[None], metric.g)
    if error is not None:
        raise error
    return psi


def _superpose(basis: np.ndarray, weights: np.ndarray, g: np.ndarray):
    """Batched, unchecked `superposition_state`: (k, d) basis rows and
    (N, k) finite weights give (N, d) metric-normalized states and a list
    of N errors (None where the state is fine; its row is then unusable)."""
    out = weights @ basis
    scale = (np.abs(weights) * np.sqrt(_vdot(basis, basis).real)).max(-1)
    nsq = _vdot(out, _mv(g, out))
    zero = (np.sqrt(_vdot(out, out).real) <= EPS_MACH * scale) | (scale == 0.0)
    leak = np.abs(nsq.imag) > EPS_VAR * np.maximum(np.abs(nsq.real), 1.0)
    bad = zero | leak | (nsq.real <= 0.0)
    errors = [None] * len(out)
    for i in np.flatnonzero(bad) if bad.any() else ():
        if zero[i]:
            errors[i] = ZeroVectorError("superposition cancels to the zero vector")
        else:
            errors[i] = _norm_sq_error(complex(nsq[i]), "superposition")
    return out / np.sqrt(np.where(bad, 1.0, nsq.real))[:, None], errors


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
    v = np.array([-w[1].conjugate(), w[0].conjugate()])
    v = _fix_phase(_g_normalize(v, metric, "complement"))
    residual = abs(complex(np.vdot(v, metric.g @ psi)))
    if residual > EPS_ORTH:
        raise InternalInconsistencyError(
            f"complement overlap {residual:.3e} exceeds {EPS_ORTH:g}"
        )
    return v


def g_complement_projection(vec, psi, metric: Metric) -> np.ndarray:
    """Metric-normalized projection of vec onto the complement of psi.

    Projects with ``1 - |psi><psi|G`` (psi metric-normalized), then
    normalizes.  Raises ZeroVectorError when vec is metric-parallel to psi
    and no direction survives.
    """
    psi = require_normalized(psi, metric)
    vec = as_state(vec, dim=metric.dim, name="vector")
    out = vec - complex(np.vdot(psi, metric.g @ vec)) * psi
    # second pass removes normalization roundoff from the projector
    out = out - complex(np.vdot(psi, metric.g @ out)) * psi
    scale = max(float(np.linalg.norm(vec)), 1.0)
    if float(np.linalg.norm(out)) <= EPS_DEGEN * scale:
        raise ZeroVectorError(
            "vector has no component orthogonal to the state"
        )
    return _fix_phase(_g_normalize(out, metric, "projected complement"))


def av_orthogonal_state(x, psi, metric: Metric) -> OrthogonalPair:
    """Normalized orthogonal state of the identity ``X|psi> = <X>|psi> + DX |perp>``.

    The returned pair satisfies the reconstruction above with the
    metric-weighted expectation and standard deviation.  Raises
    DegenerateEigenstateError when psi is an eigenstate of x (DX below
    EPS_DEGEN), where the direction is undefined.
    """
    x = as_operator(x, dim=metric.dim, name="operator")
    psi = require_normalized(psi, metric)
    g = metric.g
    w, gpsi = x @ psi, g @ psi
    gw = g @ w
    expect = complex(np.vdot(psi, gw))
    sd = float(np.sqrt(_variance(w, gw, psi, gpsi)))
    if sd <= EPS_DEGEN:
        raise DegenerateEigenstateError(
            f"state is an eigenstate of the operator (sd = {sd:.3e}); "
            "the orthogonal direction is undefined"
        )
    perp = (w - expect * psi) / sd
    # discard the roundoff component along psi so orthogonality is exact
    perp = perp - complex(np.vdot(psi, g @ perp)) * psi
    residual = abs(complex(np.vdot(perp, gpsi)))
    if residual > EPS_ORTH:
        raise InternalInconsistencyError(
            f"orthogonal-state overlap {residual:.3e} exceeds {EPS_ORTH:g}"
        )
    return OrthogonalPair(
        psi=psi, psi_perp=perp, context=metric, overlap_residual=residual
    )


def ur3_default_perp(a, b, psi, metric: Metric, sign: int) -> np.ndarray:
    """Canonical auxiliary state for the third relation's sign branch.

    In dimension 2 this is the unique complement of psi.  In higher
    dimensions it is the normalized complement projection of
    ``(A + sign*iB)|psi>``, the direction that maximizes the bound; when
    that projection vanishes the bound is zero for every choice, and a
    deterministic basis complement is returned instead.
    """
    if metric.dim == 2:
        return g_orthogonal_complement_2d(psi, metric)
    a = as_operator(a, dim=metric.dim, name="first operator")
    b = as_operator(b, dim=metric.dim, name="second operator")
    combined = a + (1j * sign) * b
    try:
        return g_complement_projection(combined @ psi, psi, metric)
    except ZeroVectorError:
        pass
    for k in range(metric.dim):
        basis_vec = np.zeros(metric.dim, dtype=complex)
        basis_vec[k] = 1.0
        try:
            return g_complement_projection(basis_vec, psi, metric)
        except ZeroVectorError:
            continue
    raise InternalInconsistencyError("no direction orthogonal to the state found")
