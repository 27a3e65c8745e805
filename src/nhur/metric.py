"""Hilbert-space metric: construction, validation, and weighted statistics.

A metric G is a Hermitian positive-definite matrix defining the inner
product ``<u|G|v>``; a Metric stores the Hermitian part of the matrix it
validated, bit for bit when that matrix is exactly Hermitian.  With G =
identity this is the Dirac product, which is how the plain formalism is
realized downstream: the identity metric recovers every unweighted value.
A Metric checks its contract once, when it is built, so no function that
computes with its matrix checks it again.

With the centered vector d_X = (X - <X>_G) psi, where <X>_G = <psi|G X|psi>,
Var_G(X) = <d_X|G d_X> and Cov_G(A,B) = <d_A|G d_B>.  One batched helper,
`_centered`, builds d and G d for g_variance and g_covariance here, for
states.av_orthogonal_state, and for a whole grid in
relations.relation_batch; centering first makes the rounding scale with
the variance rather than with <X^dag G X>.  Under a G that meets the
contract a variance or a norm^2 is real and nonnegative by construction,
so its imaginary part and any negative real part are rounding: each is
read as its real part, clamped at 0, and no rule checks it.

Each rule on a state is one plain function, and only it words that
failure: a norm^2 <v|G v> finite and within EPS_NORM of 1 (`_is_normalized`,
raised by `_require_norm`), and an overlap <v|G psi> within EPS_ORTH
(`_require_orthogonal`).  The good-observable gate, a condition on (A, B, G)
alone, checks one problem (`_require_good`), with one residual per operator
(`_good_residual`) that reads the same at every scale.  Each limit on a product
<u|v> is `_limit`, eps * max(1, |u| |v|), never below the rule's absolute
eps, and `_beyond` forms the limit only where that eps trips.  The
eigenstate rule (`_vanishes`) takes its scale from the caller's operands.
No other module reads the tolerances of these rules.
"""

import math
from dataclasses import InitVar, dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    MetricValidationError,
    NonFiniteError,
    NotGoodObservableError,
    NotNormalizedError,
)
from .linalg import (EigenSystem, _read_only, _scaled, _stable_inverse,
                     _well_conditioned, as_operator, as_state)
from .tolerances import EPS_DEGEN, EPS_GOOD, EPS_HERM, EPS_NORM, EPS_ORTH


@dataclass(frozen=True)
class MetricReport:
    """Validation summary for a candidate metric.

    stationarity_residual is ``|GH - H^dag G|_F`` and is present only when
    a Hamiltonian was supplied; it vanishes exactly when G is a conserved
    metric for H.
    """

    hermitian: bool
    positive_definite: bool
    min_eigenvalue: float
    stationarity_residual: float | None = None

    @property
    def ok(self) -> bool:
        return self.hermitian and self.positive_definite


@dataclass(frozen=True, eq=False)
class Metric:
    """A Hermitian positive-definite metric matrix, checked when it is built.

    ``Metric(g, hamiltonian=None)`` is the one constructor.  It runs
    `_validation` on g, the one check of the contract, and raises
    MetricValidationError with that report unless it is ok,
    `dataclasses.replace` included.  g is stored as its Hermitian part,
    complex and read-only (`linalg._read_only`), so instances are safe to
    share.  A read-only complex array that owns its data, another metric's
    g among them, is kept rather than copied, and stays safe only while
    its owner leaves it read-only.  validation keeps the report.  A
    Hamiltonian, not stored, adds the stationarity residual to the report.
    Instances compare by identity.
    """

    g: np.ndarray
    hamiltonian: InitVar[object] = None
    validation: MetricReport = field(init=False)

    def __post_init__(self, hamiltonian):
        report, g = _validation(self.g, hamiltonian)
        if not report.ok:
            raise MetricValidationError(
                f"metric is not Hermitian positive definite (hermitian="
                f"{report.hermitian}, min eigenvalue={report.min_eigenvalue:.6g})",
                report=report)
        object.__setattr__(self, "g", _read_only(g, share=True))
        object.__setattr__(self, "validation", report)

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    @property
    def is_identity(self) -> bool:
        """Whether G equals the identity, read from the matrix."""
        return np.array_equal(self.g, np.eye(self.dim))


def validate_metric(g, hamiltonian=None) -> MetricReport:
    """Check Hermiticity and positive definiteness, both relative to G's
    scale (`linalg._well_conditioned`).  A failed check is reported, not
    raised; an input that is no matrix raises, as `as_operator` does:
    DimensionMismatchError for a non-square or empty G (or a Hamiltonian
    of another size), NonFiniteError for non-finite entries.

    With a Hamiltonian supplied the report also carries the stationarity
    residual of the static metric condition, ``|GH - H^dag G|_F``.
    """
    return _validation(g, hamiltonian)[0]


def _validation(g, hamiltonian) -> tuple:
    """(report, Hermitian part) of g, converted once; the only maker of a
    MetricReport.  The Hermiticity test reads g scaled exactly by one power
    of two, so its norms neither under- nor overflow and it flags g alike
    at every scale; the stationarity residual is formed likewise, on g and
    H each scaled, and scaled back, reading inf only beyond double range."""
    g = as_operator(g, name="metric")
    herm = _hermitian(g)
    unit, exp = _scaled(g.ravel())
    unit = unit.reshape(g.shape)
    herm_dev = float(np.linalg.norm(unit - unit.conj().T))
    eigs = np.linalg.eigvalsh(herm)
    min_eig = float(eigs[0])
    residual = None
    if hamiltonian is not None:
        h = as_operator(hamiltonian, dim=g.shape[0], name="hamiltonian")
        h_unit, h_exp = _scaled(h.ravel())
        h_unit = h_unit.reshape(h.shape)
        with np.errstate(over="ignore"):
            residual = float(np.ldexp(np.linalg.norm(
                unit @ h_unit - h_unit.conj().T @ unit), exp + h_exp))
    return MetricReport(
        hermitian=herm_dev <= EPS_HERM * float(np.linalg.norm(unit)),
        positive_definite=_well_conditioned(min_eig, float(np.abs(eigs).max())),
        min_eigenvalue=min_eig,
        stationarity_residual=residual,
    ), herm


@lru_cache(maxsize=8)
def identity_metric(dim: int = 2) -> Metric:
    """The Dirac-product metric; immutable, so one instance per dim serves."""
    return Metric(np.eye(dim))


def metric_from_matrix(g, hamiltonian=None) -> Metric:
    """Wrap an explicitly supplied metric matrix, enforcing validity."""
    return Metric(g, hamiltonian)


def _hermitian(g: np.ndarray) -> np.ndarray:
    """(g + g^dag) / 2, or g itself, bit for bit, if it is exactly Hermitian;
    halved first, so that no sum overflows."""
    herm = g / 2.0 + g.conj().T / 2.0
    return g if np.array_equal(g, herm) else herm


def metric_from_right_eigenvectors(sys: EigenSystem, hamiltonian=None) -> Metric:
    """Metric induced by a right-eigenvector frame.

    G is the inverse of the frame sum ``S = sum_i |R_i><R_i|``.  S is
    Hermitian positive definite whenever the frame has full rank, so the
    construction fails only near coalescing eigenvectors.
    """
    frame_sum = sys.right @ sys.right.conj().T
    inverse = _stable_inverse(frame_sum, "eigenvector frame sum")
    # Hermitian by construction: validate that part, as the inverse's own
    # asymmetry, about eps cond(S), can exceed EPS_HERM on an accepted frame
    return Metric(_hermitian(inverse), hamiltonian)


@dataclass(frozen=True)
class GoodObservableCheck:
    """Outcome of the intertwining test ``X^dag G == G X``.

    residual is relative: ``|X^dag G - G X|_F / (|G|_F |X|_F)``.  Truthy
    exactly when the residual is within threshold.
    """

    is_good: bool
    residual: float
    threshold: float

    def __bool__(self) -> bool:
        return self.is_good


def is_good_observable(x, metric: Metric) -> GoodObservableCheck:
    """Test whether x plays the role of a Hermitian observable under G."""
    x = as_operator(x, dim=metric.dim, name="observable")
    residual = _good_residual(x, metric.g)
    return GoodObservableCheck(
        is_good=_good(residual), residual=residual, threshold=EPS_GOOD
    )


def _good(residual: float) -> bool:
    """The one good-observable comparison, residual <= EPS_GOOD."""
    return residual <= EPS_GOOD


def _require_good(a: np.ndarray, b: np.ndarray, g: np.ndarray) -> None:
    """The good-observable gate of one problem, a condition on (A, B, G)
    alone: NotGoodObservableError unless both operators are `_good`."""
    res_a, res_b = _good_residual(a, g), _good_residual(b, g)
    if not (_good(res_a) and _good(res_b)):
        raise NotGoodObservableError(
            "good-observable formalism requires both operators to satisfy X^dag G = "
            f"G X; residuals a={res_a:.3e}, b={res_b:.3e} (threshold {EPS_GOOD:g})")


@np.errstate(over="ignore", invalid="ignore")  # then the norms are formed again
def _good_residual(x: np.ndarray, g: np.ndarray) -> float:
    """``|X^dag G - G X|_F / (|G|_F |X|_F)`` of one operator, 0 where X
    vanishes.  G is Hermitian, so X^dag G is (G X)^dag and one product
    serves.  Where |X|_F or |G|_F lies outside [2^-200, 2^200] a square
    could under- or overflow, so x and g are first `_scaled` exactly: the
    ratio does not change, and the verdict is the same at every scale."""
    nx, ng = _frobenius(x), _frobenius(g)
    if not (2.0 ** -200 <= nx <= 2.0 ** 200 and 2.0 ** -200 <= ng <= 2.0 ** 200):
        x, g = (_scaled(m.ravel())[0].reshape(m.shape) for m in (x, g))
        nx, ng = _frobenius(x), _frobenius(g)
    gx = g @ x
    return _frobenius(gx.conj().T - gx) / (ng * nx) if nx else 0.0


def _frobenius(m: np.ndarray) -> float:
    flat = m.ravel()
    return math.sqrt(np.vecdot(flat, flat).real)


def require_normalized(psi, metric: Metric, name: str = "state") -> np.ndarray:
    """Validate that psi is unit-norm under the metric; returns the array."""
    psi = as_state(psi, dim=metric.dim, name=name)
    gpsi = metric.g @ psi
    _require_norm(name, np.vdot(psi, gpsi), psi, gpsi)
    return psi


def _is_normalized(nsq, v: np.ndarray, gv: np.ndarray) -> bool:
    """The one normalization rule: nsq = <v|G v> is finite and off 1 by no
    more than _limit(EPS_NORM, v, G v)."""
    excess = abs(nsq - 1.0)
    return math.isfinite(excess) and not _beyond(excess, EPS_NORM, v, gv)


def _require_norm(name: str, nsq, v: np.ndarray, gv: np.ndarray) -> None:
    """NotNormalizedError unless `_is_normalized`, naming the limit where
    nsq is finite."""
    if not _is_normalized(nsq, v, gv):
        within = (f" within {float(_limit(EPS_NORM, v, gv)):.3g}"
                  if math.isfinite(abs(nsq - 1.0)) else "")
        raise NotNormalizedError(
            f"{name} has metric norm^2 = {nsq.real:.12g} (must be 1{within})")


def _vanishes(length, scale):
    """The eigenstate rule, batched: length <= EPS_DEGEN * its operands' scale."""
    return length <= EPS_DEGEN * scale


# The one Var_G/Cov_G kernel, unchecked: callers are responsible for
# shape, finiteness, and normalization.

def _centered(v: np.ndarray, gv: np.ndarray) -> tuple:
    """(d and G d, <X>_G) with d = (X - <X>_G) psi for each row X psi of v
    after the first, psi, from v and its G images gv; d and G d are one
    (2, rows, ...) stack, and the mean keeps a last axis of 1.  G d = G X
    psi - <X>_G G psi by linearity, so centering costs no matrix product.
    Var_G(X) = <d|G d>, Cov_G(A, B) = <d_A|G d_B> and |X psi|_G^2 =
    Var_G(X) + |<X>_G|^2."""
    x = np.array([v, gv])
    mean = np.vecdot(v[0], gv[1:])[..., None]
    return x[:, 1:] - mean * x[:, :1], mean


@np.errstate(over="ignore", invalid="ignore")
def _limit(eps: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """eps * max(1, |u| |v|), the rounding allowed in <u|v>; batched.  Only
    the product of the norms can overflow, to inf; a vector that is not
    finite gives an inf or NaN limit, which no excess passes."""
    return eps * np.maximum(1.0, _norm(u) * _norm(v))


def _norm(v: np.ndarray) -> np.ndarray:
    """|v| over the last axis, from `_scaled` v, so no square overflows."""
    unit, exp = _scaled(v)
    return np.ldexp(np.sqrt(np.vecdot(unit, unit).real), exp)


def _require_orthogonal(what: str, v: np.ndarray, gpsi: np.ndarray, error) -> float:
    """The one orthogonality rule: overlap = |<v|G psi>|, or `error`, a
    class, where it passes _limit(EPS_ORTH, v, G psi)."""
    overlap = abs(np.vdot(v, gpsi))
    if _beyond(overlap, EPS_ORTH, v, gpsi):
        raise error(f"{what} has metric overlap {overlap:.3e} with the "
                    f"state (limit {_limit(EPS_ORTH, v, gpsi):.3g})")
    return float(overlap)


def _beyond(excess, eps: float, u: np.ndarray, v: np.ndarray) -> bool:
    """Whether excess passes _limit(eps, u, v), formed only where the
    absolute eps, never larger, trips; a NaN excess passes nothing."""
    return excess > eps and excess > _limit(eps, u, v)


def _finite(what: str, x):
    """x, or NonFiniteError if it overflowed."""
    if not np.isfinite(x):
        raise NonFiniteError(f"{what} overflows double precision ({x:.3g})")
    return x


def _variance(product) -> float:
    """Var_G(X) of one state from its product <d|G d>, the real part of the
    finite value clamped at 0; the caller ignores overflow warnings."""
    return max(float(_finite("variance", product).real), 0.0)


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NonFiniteError
def g_expectation(x, psi, metric: Metric) -> complex:
    """Weighted expectation ``<psi|G X|psi>`` for a normalized state, formed
    on X `_scaled` exactly and scaled back, as `_cov` does, so it overflows
    only where its true value does."""
    x = as_operator(x, dim=metric.dim, name="observable")
    psi = require_normalized(psi, metric)
    unit, exp = _scaled(x.ravel())
    mean = np.vdot(psi, metric.g @ (unit.reshape(x.shape) @ psi))
    return _finite("expectation",
                   complex(np.ldexp(mean.real, exp), np.ldexp(mean.imag, exp)))


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NonFiniteError
def g_variance(x, psi, metric: Metric) -> float:
    """Weighted variance; real and clamped to be nonnegative."""
    x = as_operator(x, dim=metric.dim, name="observable")
    psi = require_normalized(psi, metric)
    return _variance(_cov(x, x, psi, metric.g))


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NonFiniteError
def g_covariance(a, b, psi, metric: Metric) -> complex:
    """Weighted covariance of an operator pair; complex in general."""
    a = as_operator(a, dim=metric.dim, name="first operator")
    b = as_operator(b, dim=metric.dim, name="second operator")
    psi = require_normalized(psi, metric)
    return complex(_finite("covariance", _cov(a, b, psi, metric.g)))


def _cov(a: np.ndarray, b: np.ndarray, psi: np.ndarray, g: np.ndarray) -> complex:
    """Cov_G(A, B) = <d_A|G d_B>, formed on A and B each `_scaled` exactly
    and scaled back, so it overflows only where its true value does; the
    caller ignores overflow warnings."""
    ab, exp = _scaled(np.array([a, b]).reshape(2, -1))
    v = np.concatenate([psi[None], np.matvec(ab.reshape(2, *g.shape), psi)])
    (d_a, _), (_, gd_b) = _centered(v, np.matvec(g, v))[0]
    cov, exp = np.vecdot(d_a, gd_b), exp.sum()
    return complex(np.ldexp(cov.real, exp), np.ldexp(cov.imag, exp))
