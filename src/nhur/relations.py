"""The four sum uncertainty relations for non-Hermitian operator pairs.

Each relation bounds the variance sum ``Var(A) + Var(B)`` from below:

  ur1        rhs = 2 Im Cov(A, B)
  ur2        rhs = 2 Re Cov(A, B)
  ur3        rhs = +-2 Im Cov + |<perp|G(A +- iB)|psi>|^2,  best sign branch
  ur4        rhs = max over A+B, A-B of half the squared matrix element
             <perp_(A+-B)|G(A+-B)|psi> with perp the normalized orthogonal
             state of that combination (equivalently half its variance)

All statistics are taken in the formalism's inner product:

  plain    Dirac product, any supplied metric ignored for statistics
  gmetric  metric-weighted statistics, arbitrary operators
  good     metric-weighted, both operators must satisfy X^dag G = G X;
           the rhs of ur1/ur2 is then evaluated through the commutator and
           anticommutator forms that the good-observable condition makes
           real-valued

With the default auxiliary states every result is a function of three
scalars, Var_G(A), Var_G(B) and Cov_G(A, B).  The default perp of ur3 is
the optimal one, for which the bound is tight (Maccone & Pati, PRL 113,
260401, 2014): each branch equals lhs.  Each ur4 branch is half
Var_G(A +- B).  Only a caller-supplied perp needs a matrix element.  The
explicit constructions (states.ur3_default_perp, av_orthogonal_state)
stay available as tools and test oracles; the kernel does not build them.

`relation_batch` evaluates many points in one vectorized pass and records
every failed check as a mask; `evaluate_all` and ur1-ur4 validate one
input at the boundary and make the N = 1 call.

The evaluation record carries lhs, rhs, their gap, and a holds flag with
slack ``gap >= -tol``; the default tolerance honors NHUR_TOLERANCE_UR.
"""

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    NhurError,
    NotGoodObservableError,
    NotOrthogonalError,
)
from .linalg import _mv, _vdot, as_operator, as_state
from .metric import (
    Metric,
    _covariance,
    _good_residual,
    _norm_error,
    _variance_error,
)
from .tolerances import (
    EPS_DEGEN,
    EPS_GOOD,
    EPS_NORM,
    EPS_ORTH,
    EPS_VAR,
    ur_tolerance,
)


class Formalism(enum.Enum):
    PLAIN = "plain"
    GMETRIC = "gmetric"
    GOOD = "good"

    @classmethod
    def parse(cls, text: str) -> "Formalism":
        return cls(text.strip().lower())


@dataclass(frozen=True)
class UrEvaluation:
    """One evaluated inequality instance.

    gap = lhs - rhs; holds means gap >= -tol for the tolerance in force.
    sign_branch records which branch achieved the reported bound for the
    relations that have one; a tie goes to "plus", so ur3 with the
    default auxiliary state, where both branches equal lhs, reports
    "plus".  degenerate marks ur4 evaluations where at least one branch
    hit an eigenstate of A+B or A-B and contributed 0.
    """

    relation: str
    formalism: Formalism
    lhs: float
    rhs: float
    gap: float
    holds: bool
    sign_branch: str | None = None
    degenerate: bool = False


def _record(relation: str, formalism: Formalism, lhs: float, rhs: float,
            tol: float, sign_branch: str | None = None,
            degenerate: bool = False) -> UrEvaluation:
    gap = lhs - rhs
    return UrEvaluation(relation, formalism, lhs, rhs, gap, gap >= -tol,
                        sign_branch, degenerate)


# Indices of ur1..ur4 in a batch's rhs rows and in a check's relations.
_ALL = frozenset(range(4))
_BRANCH = ("plus", "minus")


@dataclass(frozen=True)
class _Check:
    """A per-point check: the points it failed and the relations that
    cannot be evaluated there."""

    relations: frozenset
    failed: np.ndarray
    error: Callable[[int], NhurError]


@dataclass(frozen=True)
class RelationBatch:
    """The four relations over N points, from one `relation_batch` call.

    Arrays run over points on their last axis.  rhs holds ur1..ur4 by
    row, ur3 and ur4 at their best branch; ur3_branches holds ur3's plus
    and minus branch.  checks lists, in the order evaluate_all meets them,
    the checks any point failed.
    """

    formalism: Formalism
    lhs: np.ndarray
    rhs: np.ndarray
    ur3_branches: np.ndarray
    ur4_minus: np.ndarray
    degenerate: np.ndarray
    checks: tuple

    def error(self, i: int, relations=_ALL) -> NhurError | None:
        """The first error point i raises for any of `relations`."""
        for check in self.checks:
            if check.failed[i] and check.relations & relations:
                return check.error(i)
        return None

    def evaluations(self, tol: float, relations=_ALL) -> list:
        """Per point, the four UrEvaluation records, or the error that
        point raises for any of `relations`."""
        failed = np.zeros(self.lhs.shape, dtype=bool)
        for check in self.checks:
            if check.relations & relations:
                failed |= check.failed
        lhs = self.lhs.tolist()
        rhs = self.rhs.T.tolist()
        minus3 = (self.ur3_branches[1] > self.ur3_branches[0]).tolist()
        minus4 = self.ur4_minus.tolist()
        degenerate = self.degenerate.tolist()
        f = self.formalism
        out = []
        for i, bad in enumerate(failed.tolist()):
            if bad:
                out.append(self.error(i, relations))
                continue
            x = lhs[i]
            r1, r2, r3, r4 = rhs[i]
            out.append((
                _record("ur1", f, x, r1, tol),
                _record("ur2", f, x, r2, tol),
                _record("ur3", f, x, r3, tol, _BRANCH[minus3[i]]),
                _record("ur4", f, x, r4, tol, _BRANCH[minus4[i]], degenerate[i]),
            ))
        return out


def relation_batch(a, b, psi, g, formalism: Formalism,
                   psi_perp=None) -> RelationBatch:
    """Evaluate ur1..ur4 at N points in one vectorized pass.  Unchecked.

    a, b and g are (N, d, d) stacks or single (d, d) matrices that
    broadcast; psi and psi_perp are (N, d).  g is the metric of the
    statistics (the identity for the plain formalism).  Inputs must be
    finite complex arrays of consistent shape; `_validated` makes them so.
    Every per-point check of the relations runs as a mask: the
    good-observable gate (EPS_GOOD), state normalization (EPS_NORM),
    reality and sign of the variances (EPS_VAR), reality of the good
    formalism's brackets (EPS_VAR), and normalization and orthogonality
    of an explicit psi_perp (EPS_NORM, EPS_ORTH).
    """
    n = psi.shape[0]
    checks = []

    def check(relations, failed, error):
        if failed.any():
            checks.append(_Check(relations, np.broadcast_to(failed, (n,)), error))

    good = formalism is Formalism.GOOD
    if good:
        res_a, res_b = _good_residual(a, g), _good_residual(b, g)
        check(_ALL, (res_a > EPS_GOOD) | (res_b > EPS_GOOD),
              lambda i: NotGoodObservableError(
                  "good-observable formalism requires both operators to satisfy "
                  f"X^dag G = G X; residuals a={np.broadcast_to(res_a, n)[i]:.3e}, "
                  f"b={np.broadcast_to(res_b, n)[i]:.3e} (threshold {EPS_GOOD:g})"))

    gpsi = _mv(g, psi)
    nsq = _vdot(psi, gpsi)
    check(_ALL, np.abs(nsq - 1.0) > EPS_NORM,
          lambda i: _norm_error("state", complex(nsq[i])))

    wa, wb = _mv(a, psi), _mv(b, psi)
    gwa, gwb = _mv(g, wa), _mv(g, wb)
    # Var of A, B, A + B and A - B, each from its own vector A psi +- B psi,
    # then Cov(A, B)
    stats = _covariance(np.array([wa, wb, wa + wb, wa - wb, wa]),
                        np.array([gwa, gwb, gwa + gwb, gwa - gwb, gwb]), psi, gpsi)
    raw, cov = stats[:4], stats[4]
    unreal = (np.abs(raw.imag) > EPS_VAR) | (raw.real < -EPS_VAR)
    var = np.maximum(raw.real, 0.0)

    def check_variance(relations, k):
        check(relations, unreal[k], lambda i: _variance_error(complex(raw[k, i])))

    check_variance(_ALL, 0)
    check_variance(_ALL, 1)
    lhs = var[0] + var[1]

    if good:
        # <psi|G X psi> for X = BA, AB, A and B
        ba, ab, mean_a, mean_b = _vdot(psi, np.array(
            [_mv(g, _mv(b, wa)), _mv(g, _mv(a, wb)), gwa, gwb]))
        rhs1 = _real_bracket(check, {0, 2}, 1j * (ba - ab), "i<[B,A]>")
        rhs2 = _real_bracket(check, {1}, ab + ba - 2.0 * mean_a * mean_b,
                             "<{A,B}> - 2<A><B>")
    else:
        rhs1, rhs2 = 2.0 * cov.imag, 2.0 * cov.real

    if psi_perp is None:
        # tight for the optimal auxiliary state, in every branch
        ur3_branches = np.array([lhs, lhs])
    else:
        perp_nsq = _vdot(psi_perp, _mv(g, psi_perp))
        check({2}, np.abs(perp_nsq - 1.0) > EPS_NORM,
              lambda i: _norm_error("auxiliary state", complex(perp_nsq[i])))
        overlap = np.abs(_vdot(psi_perp, gpsi))
        check({2}, overlap > EPS_ORTH,
              lambda i: NotOrthogonalError(
                  f"auxiliary state has metric overlap {overlap[i]:.3e} with "
                  f"the state (limit {EPS_ORTH:g})"))
        elements = _vdot(psi_perp, np.array([gwa + 1j * gwb, gwa - 1j * gwb]))
        ur3_branches = np.array([rhs1, -rhs1]) + np.abs(elements) ** 2

    check_variance({3}, 2)
    check_variance({3}, 3)
    # an eigenstate of A +- B: that branch bound is trivially zero
    flat = np.sqrt(var[2:]) <= EPS_DEGEN
    halves = np.where(flat, 0.0, 0.5 * var[2:])

    rhs = np.array([rhs1, rhs2, ur3_branches.max(0), halves.max(0)])
    return RelationBatch(formalism, lhs, rhs, ur3_branches,
                         halves[1] > halves[0], flat[0] | flat[1], tuple(checks))


def _real_bracket(check, relations, value, what):
    check(relations, np.abs(value.imag) > EPS_VAR,
          lambda i: InternalInconsistencyError(
              f"{what} must be real for good observables, got imaginary part "
              f"{value[i].imag:.3e}"))
    return value.real


def _validated(a, b, psi, g: Metric | None, formalism: Formalism,
               psi_perp=None):
    """Boundary checks of one problem: (a, b, psi, G array, psi_perp)
    ready for `relation_batch`, with G the formalism's metric."""
    a = as_operator(a, name="first operator")
    dim = a.shape[0]
    b = as_operator(b, dim=dim, name="second operator")
    psi = as_state(psi, dim=dim)
    if psi_perp is not None:
        psi_perp = as_state(psi_perp, dim=dim, name="auxiliary state")
    if formalism is Formalism.PLAIN or g is None:
        garr = np.eye(dim, dtype=complex)
    elif g.dim != dim:
        raise DimensionMismatchError(
            f"metric is {g.dim}x{g.dim} but the operators are {dim}x{dim}")
    else:
        garr = g.g
    return a, b, psi, garr, psi_perp


def _evaluate(a, b, psi, g, formalism, psi_perp=None) -> RelationBatch:
    a, b, psi, garr, psi_perp = _validated(a, b, psi, g, formalism, psi_perp)
    return relation_batch(a, b, psi[None], garr, formalism,
                          None if psi_perp is None else psi_perp[None])


def _single(batch: RelationBatch, tol: float, relations=_ALL):
    (result,) = batch.evaluations(tol, relations)
    if isinstance(result, NhurError):
        raise result
    return result


def _resolve_tol(ur_tol: float | None) -> float:
    return ur_tolerance() if ur_tol is None else float(ur_tol)


def ur1(a, b, psi, g: Metric | None = None, formalism: Formalism = Formalism.PLAIN,
        *, ur_tol: float | None = None) -> UrEvaluation:
    """Variance sum against twice the imaginary part of the covariance."""
    return _single(_evaluate(a, b, psi, g, formalism), _resolve_tol(ur_tol), {0})[0]


def ur2(a, b, psi, g: Metric | None = None, formalism: Formalism = Formalism.PLAIN,
        *, ur_tol: float | None = None) -> UrEvaluation:
    """Variance sum against twice the real part of the covariance."""
    return _single(_evaluate(a, b, psi, g, formalism), _resolve_tol(ur_tol), {1})[1]


def ur3(a, b, psi, g: Metric | None = None, formalism: Formalism = Formalism.PLAIN,
        *, psi_perp=None, sign: str = "max",
        ur_tol: float | None = None) -> UrEvaluation:
    """Variance sum against the auxiliary-state-strengthened bound.

    For each sign branch the bound adds the squared matrix element of
    A + sign*iB between psi and a unit vector metric-orthogonal to psi.
    With sign="max" both branches are evaluated and the larger bound is
    reported.  psi_perp overrides the canonical auxiliary state; it must
    be metric-normalized and metric-orthogonal to psi.  With the canonical
    state the bound is tight and every branch equals lhs.
    """
    if sign not in ("plus", "minus", "max"):
        raise ValueError(f"sign must be plus, minus, or max, got {sign!r}")
    tol = _resolve_tol(ur_tol)
    batch = _evaluate(a, b, psi, g, formalism, psi_perp)
    ev = _single(batch, tol, {2})[2]
    if sign == "max":
        return ev
    rhs = float(batch.ur3_branches[_BRANCH.index(sign), 0])
    return _record("ur3", formalism, ev.lhs, rhs, tol, sign)


def ur4(a, b, psi, g: Metric | None = None, formalism: Formalism = Formalism.PLAIN,
        *, ur_tol: float | None = None) -> UrEvaluation:
    """Variance sum against the stronger of the two combination bounds.

    Each branch bound is half Var_G(A +- B), the value the normalized
    orthogonal state of that combination gives; a branch whose
    combination has psi as an eigenstate contributes zero and sets the
    degenerate flag instead of failing.  A tie goes to "plus".
    """
    return _single(_evaluate(a, b, psi, g, formalism), _resolve_tol(ur_tol), {3})[3]


def evaluate_all(a, b, psi, g: Metric | None = None,
                 formalism: Formalism = Formalism.PLAIN,
                 *, psi_perp=None,
                 ur_tol: float | None = None) -> tuple[UrEvaluation, ...]:
    """All four relations over one input, from one kernel call."""
    return _single(_evaluate(a, b, psi, g, formalism, psi_perp),
                   _resolve_tol(ur_tol))
