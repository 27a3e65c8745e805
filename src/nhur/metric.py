"""Hilbert-space metric: construction, validation, and weighted statistics.

A metric G is a Hermitian positive-definite matrix defining the inner
product ``<u|G|v>``.  With G = identity this reduces to the ordinary Dirac
product, which is how the plain formalism is realized downstream: every
statistic in this module is G-weighted and the identity metric recovers
the unweighted value exactly.

Expectation, variance, and covariance follow the weighted definitions

    <X>_G      = <psi| G X |psi>
    Var_G(X)   = <X' G X> - <X' G><G X>          (X' = adjoint of X)
    Cov_G(A,B) = <A' G B> - <A' G><G B>

which are the Dirac formulas with G inserted between the daggered and
undaggered factors.  Var_G is Cov_G(X, X), so one batched kernel,
`_covariance`, computes both, for g_variance and g_covariance here, for
states.av_orthogonal_state, and for a whole grid in
relations.relation_batch.  Var_G is real and nonnegative for
positive-definite G; the implementation checks both instead of assuming
them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalInconsistencyError,
    MetricValidationError,
    NotNormalizedError,
    SingularFrameError,
)
from .linalg import EigenSystem, _vdot, as_operator, as_state
from .tolerances import EPS_GOOD, EPS_HERM, EPS_NORM, EPS_PD, EPS_VAR


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


@dataclass(frozen=True)
class Metric:
    """A validated metric matrix with its provenance.

    provenance is one of "identity", "explicit", "eigenframe".  The matrix
    is stored read-only; instances are safe to share.
    """

    g: np.ndarray
    provenance: str
    validation: MetricReport

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    @property
    def is_identity(self) -> bool:
        return self.provenance == "identity"


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


def validate_metric(g, hamiltonian=None) -> MetricReport:
    """Check Hermiticity and positive definiteness; never raises.

    With a Hamiltonian supplied the report also carries the stationarity
    residual of the static metric condition, ``|GH - H^dag G|_F``.
    """
    g = as_operator(g, name="metric")
    herm_dev = float(np.linalg.norm(g - g.conj().T))
    hermitian = herm_dev <= EPS_HERM * float(np.linalg.norm(g))
    eigs = np.linalg.eigvalsh((g + g.conj().T) / 2.0)
    min_eig = float(eigs[0])
    residual = None
    if hamiltonian is not None:
        h = as_operator(hamiltonian, dim=g.shape[0], name="hamiltonian")
        residual = float(np.linalg.norm(g @ h - h.conj().T @ g))
    return MetricReport(
        hermitian=hermitian,
        positive_definite=min_eig > EPS_PD,
        min_eigenvalue=min_eig,
        stationarity_residual=residual,
    )


def identity_metric(dim: int = 2) -> Metric:
    """The Dirac-product metric."""
    report = MetricReport(hermitian=True, positive_definite=True, min_eigenvalue=1.0)
    return Metric(g=_freeze(np.eye(dim)), provenance="identity", validation=report)


def metric_from_matrix(g, hamiltonian=None) -> Metric:
    """Wrap an explicitly supplied metric matrix, enforcing validity."""
    g = as_operator(g, name="metric")
    report = validate_metric(g, hamiltonian)
    if not report.ok:
        raise MetricValidationError(
            "metric is not Hermitian positive definite "
            f"(hermitian={report.hermitian}, min eigenvalue={report.min_eigenvalue:.6g})",
            report=report,
        )
    return Metric(g=_freeze(g), provenance="explicit", validation=report)


def metric_from_right_eigenvectors(sys: EigenSystem, hamiltonian=None) -> Metric:
    """Metric induced by a right-eigenvector frame.

    G is the inverse of the frame sum ``S = sum_i |R_i><R_i|``.  S is
    Hermitian positive definite whenever the frame has full rank, so the
    construction fails only near coalescing eigenvectors.
    """
    right = as_operator(sys.right, name="right eigenvector frame")
    frame_sum = right @ right.conj().T
    sv = np.linalg.svd(frame_sum, compute_uv=False)
    if sv[-1] <= EPS_PD * sv[0]:
        raise SingularFrameError(
            "eigenvector frame sum is not invertible "
            f"(singular values {sv[0]:.3e} .. {sv[-1]:.3e})"
        )
    g = np.linalg.inv(frame_sum)
    # exact result is Hermitian; discard inversion roundoff
    g = (g + g.conj().T) / 2.0
    report = validate_metric(g, hamiltonian)
    if not report.ok:
        raise MetricValidationError(
            "eigenframe-derived metric failed validation "
            f"(min eigenvalue={report.min_eigenvalue:.6g})",
            report=report,
        )
    return Metric(g=_freeze(g), provenance="eigenframe", validation=report)


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
    residual = float(_good_residual(x, metric.g))
    return GoodObservableCheck(
        is_good=residual <= EPS_GOOD, residual=residual, threshold=EPS_GOOD
    )


def _good_residual(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Batched ``|X^dag G - G X|_F / (|G|_F |X|_F)`` over leading axes;
    0 where the denominator vanishes."""
    raw = _frobenius(np.conj(np.swapaxes(x, -1, -2)) @ g - g @ x)
    denom = _frobenius(g) * _frobenius(x)
    return np.divide(raw, denom, out=np.zeros(np.shape(raw)), where=denom != 0.0)


def _frobenius(m: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...ij,...ij->...", m.conj(), m).real)


def require_normalized(psi, metric: Metric, name: str = "state") -> np.ndarray:
    """Validate that psi is unit-norm under the metric; returns the array."""
    psi = as_state(psi, dim=metric.dim, name=name)
    nsq = complex(np.vdot(psi, metric.g @ psi))
    if abs(nsq - 1.0) > EPS_NORM:
        raise _norm_error(name, nsq)
    return psi


def _norm_error(name: str, nsq: complex) -> NotNormalizedError:
    return NotNormalizedError(
        f"{name} has metric norm^2 = {nsq.real:.12g} "
        f"(must be 1 within {EPS_NORM:g})"
    )


# The one Var_G/Cov_G kernel, unchecked: callers are responsible for
# shape, finiteness, and normalization.

def _covariance(u: np.ndarray, gv: np.ndarray, psi: np.ndarray,
                gpsi: np.ndarray) -> np.ndarray:
    """Batched ``<u|G v> - <u|G psi><psi|G v>`` over leading axes.

    With u = A psi and v = B psi this is Cov_G(A, B), and with u = v it is
    Var_G(A) before its reality check.  The two means are kept apart
    rather than conjugated into each other, so the reality checks see the
    metric's own asymmetry.
    """
    return _vdot(u, gv) - _vdot(u, gpsi) * _vdot(psi, gv)


def _variance(w: np.ndarray, gw: np.ndarray, psi: np.ndarray,
              gpsi: np.ndarray) -> float:
    """Var_G(X) of one state from w = X psi and the G images, checked real
    and nonnegative within EPS_VAR and clamped at 0."""
    raw = complex(_covariance(w, gw, psi, gpsi))
    error = _variance_error(raw)
    if error is not None:
        raise error
    return max(raw.real, 0.0)


def _variance_error(val: complex, what: str = "variance"):
    """The InternalInconsistencyError for a variance that is not real and
    nonnegative within EPS_VAR, or None."""
    if abs(val.imag) > EPS_VAR:
        return InternalInconsistencyError(
            f"{what} has imaginary part {val.imag:.3e} beyond {EPS_VAR:g}"
        )
    if val.real < -EPS_VAR:
        return InternalInconsistencyError(
            f"{what} is negative ({val.real:.3e}) beyond {EPS_VAR:g}"
        )
    return None


def g_expectation(x, psi, metric: Metric) -> complex:
    """Weighted expectation ``<psi|G X|psi>`` for a normalized state."""
    x = as_operator(x, dim=metric.dim, name="observable")
    psi = require_normalized(psi, metric)
    return complex(np.vdot(psi, metric.g @ (x @ psi)))


def g_variance(x, psi, metric: Metric) -> float:
    """Weighted variance; real and clamped to be nonnegative."""
    x = as_operator(x, dim=metric.dim, name="observable")
    psi = require_normalized(psi, metric)
    w = x @ psi
    return _variance(w, metric.g @ w, psi, metric.g @ psi)


def g_covariance(a, b, psi, metric: Metric) -> complex:
    """Weighted covariance of an operator pair; complex in general."""
    a = as_operator(a, dim=metric.dim, name="first operator")
    b = as_operator(b, dim=metric.dim, name="second operator")
    psi = require_normalized(psi, metric)
    g = metric.g
    return complex(_covariance(a @ psi, g @ (b @ psi), psi, g @ psi))
