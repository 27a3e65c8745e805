"""Scenario builders and parameter sweeps.

Two worked families are provided.  The first pairs two real non-normal
operators, assembled from polar parts, with a real planar state; it runs
under the Dirac product.  The second is the PT two-level model
``H(gamma) = [[i*gamma, 1], [1, -i*gamma]]`` in both of its spectral
phases, with the metric built from the right eigenvectors and the state a
weighted superposition of them, normalized in the metric of the
statistics: G under the good and gmetric formalisms, the Dirac product
under plain.

Each family is one function of a stacked grid, and its single-point
builder is the one-point slice of it: a sweep's row is `evaluate_all` on
that point's builder output, bit for bit.  A sweep never aborts on a bad
point but records its typed error.  It builds its metric once, checks a
good sweep's gate once, and `_collect` evaluates the stacks in one
`relation_batch` call per group into a `Sweep`, the kernel's arrays plus
the grid `param` and formalism; those arrays are a sweep's whole result.
The kernel trusts the states a scenario builds; `sweep` checks each
builder's output at the boundary, as `evaluate_all` does.  A config checks
itself when it is built; a PT eigensystem builder applies the gamma rule first.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ExceptionalPointError,
    NhurError,
    NonFiniteError,
    PhaseMismatchError,
)
from .linalg import SIGMA_Y, EigenSystem
from .metric import _require_good, identity_metric, metric_from_right_eigenvectors
from .relations import (
    Formalism,
    RelationBatch,
    UrEvaluation,
    _stats_g,
    _validated,
    relation_batch,
)
from .states import _one, _superpose
from .tolerances import EPS_EP

SYMMETRIC = "symmetric"
BROKEN = "broken"


def pt_hamiltonian(gamma: float) -> np.ndarray:
    """The one-parameter PT two-level Hamiltonian."""
    return np.array([[1j * gamma, 1.0], [1.0, -1j * gamma]], dtype=complex)


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NonFiniteError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class Example1Config:
    """Angles for the polar-part scenario; theta0 is the sweep variable."""

    theta0: float = 0.0
    theta1: float = math.pi / 4
    theta3: float = math.pi / 3
    theta5: float = math.pi / 4
    theta7: float = 3 * math.pi / 4

    def __post_init__(self):
        for name in ("theta0", "theta1", "theta3", "theta5", "theta7"):
            _require_finite(name, getattr(self, name))


def _polar_operator(theta_u: float, theta_s: float, theta0) -> np.ndarray:
    """S U with U a reflection through angle 2(theta_u - theta0) and
    S = diag(-cos 2 theta_s, 1), stacked over an array of theta0."""
    d = 2.0 * (theta_u - np.asarray(theta0, dtype=float))
    c, s = np.cos(d), np.sin(d)
    stretch = -math.cos(2.0 * theta_s)
    out = np.empty(d.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = stretch * c
    out[..., 0, 1] = stretch * s
    out[..., 1, 0] = s
    out[..., 1, 1] = -c
    return out


def _example1_arrays(cfg: Example1Config, theta0):
    """A, B and psi of a config, stacked over an array of theta0."""
    theta0 = np.asarray(theta0, dtype=float)
    a = _polar_operator(cfg.theta1, cfg.theta3, theta0)
    b = _polar_operator(cfg.theta5, cfg.theta7, theta0)
    psi = np.stack([np.cos(2.0 * theta0), np.sin(2.0 * theta0)], -1)
    return a, b, psi.astype(complex)


def build_example1(cfg: Example1Config):
    """Operators, state, and (identity) metric for the polar-part scenario."""
    return (*_example1_arrays(cfg, cfg.theta0), identity_metric(2))


@dataclass(frozen=True)
class Example2Config:
    """PT-model scenario; alpha is the sweep variable.

    phase selects the spectral region and must be consistent with gamma:
    "symmetric" needs gamma^2 < 1, "broken" needs gamma > 1 (`_require_gamma`).
    """

    gamma: float
    p: float
    alpha: float = 0.0
    phase: str = SYMMETRIC

    @classmethod
    def symmetric_default(cls, alpha: float = 0.0) -> "Example2Config":
        return cls(gamma=0.9, p=0.5, alpha=alpha, phase=SYMMETRIC)

    @classmethod
    def broken_default(cls, alpha: float = 0.0) -> "Example2Config":
        return cls(gamma=1.2, p=1.5, alpha=alpha, phase=BROKEN)

    def __post_init__(self):
        for name in ("gamma", "p", "alpha"):
            _require_finite(name, getattr(self, name))
        if self.phase not in (SYMMETRIC, BROKEN):
            raise PhaseMismatchError(
                f"phase must be {SYMMETRIC!r} or {BROKEN!r}, got {self.phase!r}"
            )
        _require_gamma(self.gamma, self.phase)


def _require_gamma(gamma: float, phase: str) -> None:
    """The PT model's one gamma rule: finite, off the exceptional point
    (|gamma^2 - 1| > EPS_EP), and inside phase."""
    gamma = _require_finite("gamma", gamma)
    if abs(gamma * gamma - 1.0) <= EPS_EP:
        raise ExceptionalPointError(
            f"gamma={gamma:g} sits at the exceptional point gamma^2=1; "
            "the eigenvector frame and metric degenerate there"
        )
    if phase == SYMMETRIC and not gamma * gamma < 1.0:
        raise PhaseMismatchError(
            f"gamma={gamma:g} lies outside the symmetric phase (needs gamma^2 < 1)"
        )
    if phase == BROKEN and not gamma > 1.0:
        raise PhaseMismatchError(
            f"gamma={gamma:g} lies outside the broken phase (needs gamma > 1)"
        )


def symmetric_eigensystem(gamma: float) -> EigenSystem:
    """Closed-form eigensystem of the PT Hamiltonian for gamma^2 < 1.

    Eigenvalues are +-cos(theta) with sin(theta) = gamma; the eigenvector
    scale 1/sqrt(2 cos theta) makes the metric L^dag L come out in its
    standard closed form.
    """
    _require_gamma(gamma, SYMMETRIC)
    theta = math.asin(gamma)
    c = math.cos(theta)
    norm = 1.0 / math.sqrt(2.0 * c)
    half = 0.5 * theta
    e_plus = norm * np.array([np.exp(1j * half), np.exp(-1j * half)])
    e_minus = 1j * norm * np.array([np.exp(-1j * half), -np.exp(1j * half)])
    values = np.array([c, -c], dtype=complex)
    return EigenSystem(values, np.column_stack([e_plus, e_minus]))


def broken_eigensystem(gamma: float) -> EigenSystem:
    """Closed-form eigensystem of the PT Hamiltonian for gamma > 1.

    Eigenvalues are the conjugate pair +-i*lambda, lambda = sqrt(gamma^2-1).
    With r = lambda/gamma in (0, 1], gamma - lambda = (1/gamma)/(1 + r) and
    the eigenvector norm sqrt(2 lambda (gamma - lambda)) = sqrt(2r/(1 + r)),
    so no step cancels, overflows or divides by zero for any gamma > 1.
    """
    _require_gamma(gamma, BROKEN)
    lam = math.sqrt(gamma - 1.0) * math.sqrt(gamma + 1.0)
    r = lam / gamma
    delta = (1.0 / gamma) / (1.0 + r)
    norm = math.sqrt(2.0 * r / (1.0 + r))
    e_plus = np.array([1.0, -1j * delta]) / norm
    e_minus = np.array([1j * delta, 1.0]) / norm
    values = np.array([1j * lam, -1j * lam], dtype=complex)
    return EigenSystem(values, np.column_stack([e_plus, e_minus]))


def _example2_arrays(cfg: Example2Config, alpha, formalism: Formalism):
    """A, B, the metric, and over an array of alpha the (N, 2) states and
    their N errors, of a PT config: each state superposes the two right
    eigenvectors with weights (1, p e^{i alpha}) and is normalized in the
    metric of the statistics (`_stats_g`)."""
    h = pt_hamiltonian(cfg.gamma)
    if cfg.phase == SYMMETRIC:
        sys, a = symmetric_eigensystem(cfg.gamma), h
    else:
        sys, a = broken_eigensystem(cfg.gamma), pt_hamiltonian(1.0 / cfg.gamma)
    metric = metric_from_right_eigenvectors(sys, hamiltonian=h)
    alpha = np.asarray(alpha, dtype=float)
    weights = np.ones(alpha.shape + (2,), dtype=complex)
    weights[..., 1] = cfg.p * np.exp(1j * alpha)
    psi, errors = _superpose(sys.right.T, weights, _stats_g(metric, formalism, 2))
    return a, np.array(SIGMA_Y), psi, metric, errors


def build_example2(cfg: Example2Config, formalism: Formalism = Formalism.GOOD):
    """Operators, state, and eigenframe metric for the PT scenario.

    In the symmetric phase the observable pair is (H(gamma), sigma_y); in
    the broken phase H(gamma) stops being a good observable for the
    broken-phase metric and the pair is (H(1/gamma), sigma_y).  The state,
    normalized in the metric of the statistics (G, or the Dirac product
    under plain), is `example2_sweep`'s at alpha, or raises its error.
    """
    formalism = Formalism(formalism)
    a, b, psi, metric, errors = _example2_arrays(cfg, [cfg.alpha], formalism)
    return a, b, _one(psi, errors), metric


@dataclass(frozen=True)
class ScenarioPoint:
    """One sample in per-point form: the four evaluations, or a recorded
    failure.  No sweep builds these; a `Sweep` is its arrays."""

    param: float
    evaluations: tuple[UrEvaluation, ...]
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _error_text(exc: NhurError) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True, eq=False)
class Sweep(RelationBatch):
    """A sweep's RelationBatch over its N grid points `param`, in `formalism`;
    a point's result is its column of the arrays, ok where errors is None."""

    param: np.ndarray
    formalism: Formalism

    @property
    def ok(self) -> np.ndarray:
        return np.array([e is None for e in self.errors], dtype=bool)


def _collect(grid: np.ndarray, formalism: Formalism, errors, groups=()) -> Sweep:
    """A Sweep from the per-point errors met before the kernel and the
    groups of stacks (point indices, a, b, psi, g), each evaluated in one
    `relation_batch` call and placed at its points."""
    n, errors = len(grid), list(errors)
    cols = [np.full(n, np.nan), np.full((4, n), np.nan), np.full((4, n), np.nan),
            np.zeros((4, n), bool), np.zeros((2, n), bool), np.zeros(n, bool)]
    for index, *stacks in groups:
        batch = relation_batch(*stacks)
        for col, part in zip(cols, (batch.lhs, batch.rhs, batch.gap, batch.holds,
                                    batch.minus, batch.degenerate)):
            col[..., index] = part
        for i, error in zip(index.tolist(), batch.errors):
            errors[i] = error
    return Sweep(*cols, tuple(errors), param=grid, formalism=formalism)


def _grid(param_range, points: int) -> np.ndarray:
    if points < 2:
        raise ValueError(f"a sweep needs at least 2 points, got {points}")
    return np.linspace(float(param_range[0]), float(param_range[1]), points)


def sweep(builder, param_range, points: int,
          formalism: Formalism = Formalism.PLAIN) -> Sweep:
    """Evaluate all relations on a uniform inclusive grid.

    builder maps a parameter value to (A, B, psi, metric).  A point whose
    build or evaluation fails is recorded with its error; the sweep itself
    always completes.  The builder's outputs are validated one by one and
    evaluated in one kernel call per dimension.
    """
    formalism = Formalism(formalism)
    grid = _grid(param_range, points)
    errors = [None] * len(grid)
    by_dim = {}
    for i, value in enumerate(grid.tolist()):
        try:
            a, b, psi, g, _ = _validated(*builder(value), formalism)
        except NhurError as exc:
            errors[i] = exc
            continue
        by_dim.setdefault(a.shape[0], []).append((i, a, b, psi, g))
    groups = [(np.array(index), *map(np.stack, stacks))
              for index, *stacks in (zip(*rows) for rows in by_dim.values())]
    return _collect(grid, formalism, errors, groups)


def example1_sweep(cfg: Example1Config | None = None, points: int = 721) -> Sweep:
    """Sweep theta0 over [0, pi] under the Dirac product."""
    grid = _grid((0.0, math.pi), points)
    a, b, psi = _example1_arrays(cfg or Example1Config(), grid)
    return _collect(grid, Formalism.PLAIN, [None] * len(grid),
                    [(np.arange(len(grid)), a, b, psi, identity_metric(2).g)])


def example2_sweep(cfg: Example2Config, points: int = 721,
                   formalism: Formalism = Formalism.GOOD) -> Sweep:
    """Sweep alpha over [0, 2 pi] at fixed gamma and p."""
    formalism = Formalism(formalism)
    grid = _grid((0.0, 2.0 * math.pi), points)
    errors = [None] * len(grid)
    try:
        a, b, psi, metric, errors = _example2_arrays(cfg, grid, formalism)
        g = _stats_g(metric, formalism, 2)
        if formalism is Formalism.GOOD:  # the gate, once for every point
            _require_good(a, b, g)
    except NhurError as exc:  # a point whose state failed keeps its error
        return _collect(grid, formalism, [e or exc for e in errors])
    ok = np.array([e is None for e in errors])
    return _collect(grid, formalism, errors, [(np.flatnonzero(ok), a, b, psi[ok], g)])
