"""Scenario builders and parameter sweeps.

Two worked families are provided.  The first pairs two real non-normal
operators, assembled from polar parts, with a real planar state; it runs
under the Dirac product.  The second is the PT two-level model
``H(gamma) = [[i*gamma, 1], [1, -i*gamma]]`` in both of its spectral
phases, with the metric built from the right eigenvectors and the state a
weighted superposition of them.

Sweeps evaluate all four relations on a uniform inclusive grid and never
abort on a bad point; a failure is recorded as that point's typed error.
Each sweep validates its configuration and builds its metric once, stacks
the grid's operators and states, and evaluates them in one
`relation_batch` call.  It returns a `Sweep`, the kernel's RelationBatch
plus the grid `param`, which builds per-point ScenarioPoints only when
indexed.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ExceptionalPointError,
    NhurError,
    NonFiniteError,
    PhaseMismatchError,
)
from .linalg import SIGMA_Y, EigenSystem
from .metric import identity_metric, metric_from_right_eigenvectors
from .relations import (
    Formalism,
    RelationBatch,
    UrEvaluation,
    _records,
    _resolve_tol,
    _stats_g,
    _validated,
    relation_batch,
)
from .states import _superpose, superposition_state
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

    def validated(self) -> "Example1Config":
        for name in ("theta0", "theta1", "theta3", "theta5", "theta7"):
            _require_finite(name, getattr(self, name))
        return self


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
    """A, B and psi of a validated config, stacked over an array of theta0."""
    theta0 = np.asarray(theta0, dtype=float)
    a = _polar_operator(cfg.theta1, cfg.theta3, theta0)
    b = _polar_operator(cfg.theta5, cfg.theta7, theta0)
    psi = np.stack([np.cos(2.0 * theta0), np.sin(2.0 * theta0)], -1)
    return a, b, psi.astype(complex)


def build_example1(cfg: Example1Config):
    """Operators, state, and (identity) metric for the polar-part scenario."""
    cfg = cfg.validated()
    return (*_example1_arrays(cfg, cfg.theta0), identity_metric(2))


@dataclass(frozen=True)
class Example2Config:
    """PT-model scenario; alpha is the sweep variable.

    phase selects the spectral region and must be consistent with gamma:
    "symmetric" needs gamma^2 < 1, "broken" needs gamma > 1.
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

    def validated(self) -> "Example2Config":
        _require_finite("gamma", self.gamma)
        _require_finite("p", self.p)
        _require_finite("alpha", self.alpha)
        if self.phase not in (SYMMETRIC, BROKEN):
            raise PhaseMismatchError(
                f"phase must be {SYMMETRIC!r} or {BROKEN!r}, got {self.phase!r}"
            )
        if abs(self.gamma * self.gamma - 1.0) <= EPS_EP:
            raise ExceptionalPointError(
                f"gamma={self.gamma:g} sits at the exceptional point gamma^2=1; "
                "the eigenvector frame and metric degenerate there"
            )
        if self.phase == SYMMETRIC and not self.gamma * self.gamma < 1.0:
            raise PhaseMismatchError(
                f"gamma={self.gamma:g} lies outside the symmetric phase "
                "(needs gamma^2 < 1)"
            )
        if self.phase == BROKEN and not self.gamma > 1.0:
            raise PhaseMismatchError(
                f"gamma={self.gamma:g} lies outside the broken phase "
                "(needs gamma > 1)"
            )
        return self


def symmetric_eigensystem(gamma: float) -> EigenSystem:
    """Closed-form eigensystem of the PT Hamiltonian for gamma^2 < 1.

    Eigenvalues are +-cos(theta) with sin(theta) = gamma; the eigenvector
    scale 1/sqrt(2 cos theta) makes the frame-sum metric come out in its
    standard closed form.
    """
    theta = math.asin(gamma)
    c = math.cos(theta)
    norm = 1.0 / math.sqrt(2.0 * c)
    half = 0.5 * theta
    e_plus = norm * np.array([np.exp(1j * half), np.exp(-1j * half)])
    e_minus = 1j * norm * np.array([np.exp(-1j * half), -np.exp(1j * half)])
    values = np.array([c, -c], dtype=complex)
    return EigenSystem.from_right(values, np.column_stack([e_plus, e_minus]))


def broken_eigensystem(gamma: float) -> EigenSystem:
    """Closed-form eigensystem of the PT Hamiltonian for gamma > 1.

    Eigenvalues are the conjugate pair +-i*lambda, lambda = sqrt(gamma^2-1).
    """
    lam = math.sqrt(gamma * gamma - 1.0)
    norm = math.sqrt(2.0 * gamma * lam - 2.0 * lam * lam)
    e_plus = np.array([1.0, -1j * (gamma - lam)]) / norm
    e_minus = np.array([1j * (gamma - lam), 1.0]) / norm
    values = np.array([1j * lam, -1j * lam], dtype=complex)
    return EigenSystem.from_right(values, np.column_stack([e_plus, e_minus]))


def _example2_frame(cfg: Example2Config):
    """The alpha-independent part of a validated PT config: A, B, the
    eigensystem and its metric."""
    h = pt_hamiltonian(cfg.gamma)
    if cfg.phase == SYMMETRIC:
        sys = symmetric_eigensystem(cfg.gamma)
        a = h
    else:
        sys = broken_eigensystem(cfg.gamma)
        a = pt_hamiltonian(1.0 / cfg.gamma)
    g = metric_from_right_eigenvectors(sys, hamiltonian=h)
    return a, np.array(SIGMA_Y), sys, g


def _example2_weights(p: float, alpha):
    """Superposition weights (1, p e^{i alpha}), stacked over alpha."""
    phase = p * np.exp(1j * np.asarray(alpha, dtype=float))
    weights = np.ones(phase.shape + (2,), dtype=complex)
    weights[..., 1] = phase
    return weights


def build_example2(cfg: Example2Config):
    """Operators, state, and eigenframe metric for the PT scenario.

    In the symmetric phase the observable pair is (H(gamma), sigma_y); in
    the broken phase H(gamma) stops being a good observable for the
    broken-phase metric and the pair is (H(1/gamma), sigma_y).  The state
    superposes the two right eigenvectors with weights (1, p e^{i alpha}).
    """
    cfg = cfg.validated()
    a, b, sys, g = _example2_frame(cfg)
    psi = superposition_state([sys.right_vector(0), sys.right_vector(1)],
                              _example2_weights(cfg.p, cfg.alpha), g)
    return a, b, psi, g


@dataclass(frozen=True)
class ScenarioPoint:
    """One sweep sample: the four evaluations, or a recorded failure."""

    param: float
    evaluations: tuple[UrEvaluation, ...]
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _error_text(exc: NhurError) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True, eq=False)
class Sweep(RelationBatch, Sequence):
    """A sweep's RelationBatch over its N grid points `param`.

    As a sequence a Sweep is its ScenarioPoints, built on first access.
    """

    param: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        return np.array([e is None for e in self.errors], dtype=bool)

    @cached_property
    def _scenario_points(self) -> tuple:
        return tuple(
            ScenarioPoint(x, r) if e is None else ScenarioPoint(x, (), _error_text(e))
            for x, r, e in zip(self.param.tolist(), _records(self), self.errors))

    def __len__(self) -> int:
        return len(self.errors)

    def __getitem__(self, i):
        return self._scenario_points[i]


def _collect(grid: np.ndarray, formalism: Formalism, errors, parts=()) -> Sweep:
    """A Sweep from the per-point errors met before the kernel and the
    (point indices, RelationBatch) parts that evaluated the other points."""
    n, errors = len(grid), list(errors)
    cols = [np.full(n, np.nan), np.full((4, n), np.nan), np.full((4, n), np.nan),
            np.zeros((4, n), bool), np.zeros((2, n), bool), np.zeros(n, bool)]
    for index, batch in parts:
        for col, part in zip(cols, (batch.lhs, batch.rhs, batch.gap, batch.holds,
                                    batch.minus, batch.degenerate)):
            col[..., index] = part
        for i, error in zip(index.tolist(), batch.errors):
            errors[i] = error
    return Sweep(formalism, *cols, tuple(errors), param=grid)


def _grid(param_range, points: int) -> np.ndarray:
    if points < 2:
        raise ValueError(f"a sweep needs at least 2 points, got {points}")
    return np.linspace(float(param_range[0]), float(param_range[1]), points)


def sweep(builder, param_range, points: int,
          formalism: Formalism = Formalism.PLAIN,
          *, ur_tol: float | None = None) -> Sweep:
    """Evaluate all relations on a uniform inclusive grid.

    builder maps a parameter value to (A, B, psi, metric).  A point whose
    build or evaluation fails is recorded with its error; the sweep itself
    always completes.  The builder's outputs are validated one by one and
    evaluated in one kernel call per dimension.
    """
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
    tol = _resolve_tol(ur_tol)
    parts = []
    for rows in by_dim.values():
        index, *arrays = zip(*rows)
        parts.append((np.array(index),
                      relation_batch(*map(np.stack, arrays), formalism, tol=tol)))
    return _collect(grid, formalism, errors, parts)


def example1_sweep(cfg: Example1Config | None = None, points: int = 721,
                   formalism: Formalism = Formalism.PLAIN,
                   *, ur_tol: float | None = None) -> Sweep:
    """Sweep theta0 over [0, pi]."""
    base = (cfg or Example1Config()).validated()
    grid = _grid((0.0, math.pi), points)
    a, b, psi = _example1_arrays(base, grid)
    batch = relation_batch(a, b, psi, identity_metric(2).g, formalism,
                           tol=_resolve_tol(ur_tol))
    return Sweep(**vars(batch), param=grid)


def example2_sweep(cfg: Example2Config, points: int = 721,
                   formalism: Formalism = Formalism.GOOD,
                   *, ur_tol: float | None = None) -> Sweep:
    """Sweep alpha over [0, 2 pi] at fixed gamma and p."""
    base = cfg.validated()
    grid = _grid((0.0, 2.0 * math.pi), points)
    tol = _resolve_tol(ur_tol)
    try:
        a, b, sys, metric = _example2_frame(base)
    except NhurError as exc:
        return _collect(grid, formalism, [exc] * len(grid))
    psi, errors = _superpose(sys.right.T, _example2_weights(base.p, grid), metric.g)
    ok = np.array([e is None for e in errors])
    batch = relation_batch(a, b, psi[ok], _stats_g(metric, formalism, 2),
                           formalism, tol=tol)
    return _collect(grid, formalism, errors, [(np.flatnonzero(ok), batch)])
