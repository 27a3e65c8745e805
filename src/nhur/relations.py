"""The four sum uncertainty relations for non-Hermitian operator pairs.

Each relation bounds lhs = Var(A) + Var(B) from below.  With the centered
vectors d_X = (X - <X>) psi, each gap = lhs - rhs is the squared norm of
one vector, so its rounding scales with the gap rather than with lhs:

  ur1  rhs = 2 Im Cov(A, B);  gap = Var(A + iB) = |d_A + i d_B|^2
  ur2  rhs = 2 Re Cov(A, B);  gap = Var(A - B) = |d_A - d_B|^2
  ur3  rhs = +-2 Im Cov + |<perp|G(A +- iB)|psi>|^2, best sign branch;
       gap = |d_A +- i d_B|^2 less its part along perp
  ur4  rhs = half the larger of Var(A +- B), each the squared element of
       the combination with its orthogonal state;  gap = half the smaller

All statistics are taken in the formalism's inner product:

  plain    Dirac product, any supplied metric ignored for statistics
  gmetric  metric-weighted statistics, arbitrary operators
  good     gmetric behind the gate X^dag G = G X on both operators, under
           which the commutator and anticommutator forms of ur1/ur2 equal
           2 Im Cov_G and 2 Re Cov_G exactly

The default perp of ur3 is the optimal one, for which the bound is tight
(Maccone & Pati, PRL 113, 260401, 2014): each branch equals lhs and the
gap is 0.  Only a caller-supplied perp needs a matrix element.  The
explicit constructions (states.ur3_default_perp, av_orthogonal_state)
stay available as tools and test oracles; the kernel does not build them.

`relation_batch` evaluates many points in one vectorized pass and returns
them resolved: holds is ``gap >= -tol``, ur3 sits at the branch asked
for, and each point carries the first error of a check guarding the
relations asked for, reading NaN and False where it failed.
`evaluate_all` and ur1-ur4 validate one input at the boundary, make the
N = 1 call, and raise its error or return its records; the default
tolerance honors NHUR_TOLERANCE_UR.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotGoodObservableError,
    NotOrthogonalError,
)
from .linalg import _mv, _vdot, as_operator, as_state
from .metric import (
    Metric,
    _centered,
    _good_residual,
    _norm_error,
    _unreal,
    _variance_error,
)
from .tolerances import (
    EPS_DEGEN,
    EPS_GOOD,
    EPS_NORM,
    EPS_ORTH,
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

    gap = lhs - rhs to rounding, not bit for bit (see the module
    docstring); holds means gap >= -tol for the tolerance in force.
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


# Indices of ur1..ur4 in a batch's rhs rows and in relation_batch's relations.
_ALL = frozenset(range(4))
_BRANCH = ("plus", "minus")
# (d_A, d_B) coefficients of u and gu: Var of A, B, A +- B, A +- iB; Cov(A, B)
_COMBOS = np.array([[[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j], [1, 0]],
                    [[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j], [0, 1]]])


def _record(f: Formalism, lhs: float, rhs, gap, holds, minus,
            degenerate: bool) -> tuple:
    """One point's four UrEvaluation records from its column values."""
    return (UrEvaluation("ur1", f, lhs, rhs[0], gap[0], holds[0]),
            UrEvaluation("ur2", f, lhs, rhs[1], gap[1], holds[1]),
            UrEvaluation("ur3", f, lhs, rhs[2], gap[2], holds[2],
                         _BRANCH[minus[0]]),
            UrEvaluation("ur4", f, lhs, rhs[3], gap[3], holds[3],
                         _BRANCH[minus[1]], degenerate))


@dataclass(frozen=True, eq=False)
class RelationBatch:
    """The four relations over N points, from one `relation_batch` call.

    Arrays run over points on their last axis.  lhs is (N,); rhs, gap and
    holds are (4, N), ur1..ur4 by row; minus (2, N) marks a minus branch
    of ur3 (row 0) and ur4 (row 1); degenerate is ur4's flag.  errors
    holds each point's NhurError or None; a failed point reads NaN and
    False.
    """

    formalism: Formalism
    lhs: np.ndarray
    rhs: np.ndarray
    gap: np.ndarray
    holds: np.ndarray
    minus: np.ndarray
    degenerate: np.ndarray
    errors: tuple


def _records(batch: RelationBatch) -> list:
    """Per point, the four records of a batch's arrays."""
    return [_record(batch.formalism, *row) for row in zip(
        batch.lhs.tolist(), batch.rhs.T.tolist(), batch.gap.T.tolist(),
        batch.holds.T.tolist(), batch.minus.T.tolist(), batch.degenerate.tolist())]


def relation_batch(a, b, psi, g, formalism: Formalism, psi_perp=None, *,
                   tol: float, relations=_ALL, sign: str = "max") -> RelationBatch:
    """Evaluate ur1..ur4 at N points in one vectorized pass.  Unchecked.

    a, b and g are (N, d, d) stacks or single (d, d) matrices that
    broadcast; psi and psi_perp are (N, d).  g is the metric of the
    statistics (`_stats_g`).  Inputs must be finite complex arrays of
    consistent shape; `_validated` makes them so.  holds is gap >= -tol;
    ur3 reports its best branch, or the "plus" or "minus" one by sign.

    The per-point checks run as masks, in this order: the good-observable
    gate (EPS_GOOD), state normalization (EPS_NORM), reality and sign of
    Var(A) and Var(B) (EPS_VAR relative to |d| |G d|), normalization and
    orthogonality of an explicit psi_perp (EPS_NORM, EPS_ORTH; they guard
    ur3), and Var(A +- B) (they guard ur4).  Only the checks that guard
    one of `relations` (indices of ur1..ur4) run, and a point records the
    first one it fails.
    """
    n = psi.shape[0]
    errors = [None] * n
    failed = np.zeros(n, dtype=bool)

    def check(guards, bad, error):
        if guards & relations and np.count_nonzero(bad):  # half the cost of .any()
            new = np.flatnonzero(bad & ~failed)
            failed[new] = True
            for i in new.tolist():
                errors[i] = error(i)

    if formalism is Formalism.GOOD:
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

    w = np.array([_mv(a, psi), _mv(b, psi)])
    d, gd = _centered(w, _mv(g, w), psi, gpsi)
    u, gu = (_COMBOS @ np.array([d, gd]).reshape(2, 2, -1)).reshape(2, 7, *psi.shape)
    stats = _vdot(u, gu)
    raw, cov = stats[:6], stats[6]
    unreal = _unreal(raw[:4], u[:4], gu[:4])
    var = np.maximum(raw.real, 0.0)

    def check_variance(guards, k):
        check(guards, unreal[k],
              lambda i: _variance_error(complex(raw[k, i]), u[k, i], gu[k, i]))

    check_variance(_ALL, 0)
    check_variance(_ALL, 1)
    lhs = var[0] + var[1]
    rhs1 = 2.0 * cov.imag

    if psi_perp is None:
        # tight for the optimal auxiliary state, in every branch
        rhs3, gap3 = np.array([lhs, lhs]), np.zeros((2, n))
    else:
        gperp = _mv(g, psi_perp)
        perp_nsq = _vdot(psi_perp, gperp)
        check({2}, np.abs(perp_nsq - 1.0) > EPS_NORM,
              lambda i: _norm_error("auxiliary state", complex(perp_nsq[i])))
        overlap = np.abs(_vdot(psi_perp, gpsi))
        check({2}, overlap > EPS_ORTH,
              lambda i: NotOrthogonalError(
                  f"auxiliary state has metric overlap {overlap[i]:.3e} with "
                  f"the state (limit {EPS_ORTH:g})"))
        # each branch's gap is the G-norm of d_A +- i d_B less its part along
        # perp; as perp is orthogonal to psi, e is <perp|G(A +- iB)|psi>
        v, gv = u[4:6], gu[4:6]
        e = _vdot(psi_perp, gv)[..., None]
        rhs3 = np.array([rhs1, -rhs1]) + np.abs(e[..., 0]) ** 2
        gap3 = np.maximum(_vdot(v - e * psi_perp, gv - e * gperp).real, 0.0)

    check_variance({3}, 2)
    check_variance({3}, 3)
    # an eigenstate of A +- B: that branch bound is trivially zero
    flat = np.sqrt(var[2:4]) <= EPS_DEGEN
    halves = np.where(flat, 0.0, 0.5 * var[2:4])

    branches = np.array([rhs3, halves])  # (ur3, ur4) x (plus, minus)
    best = branches.max(1)
    minus = branches[:, 1] > branches[:, 0]
    if sign != "max":
        k = _BRANCH.index(sign)
        best[0], minus[0] = rhs3[k], k == 1
    rhs = np.array([rhs1, 2.0 * cov.real, best[0], best[1]])
    gap = np.array([var[4], var[3], np.where(minus[0], gap3[1], gap3[0]),
                    halves.min(0)])
    degenerate = flat[0] | flat[1]
    if np.count_nonzero(failed):
        lhs[failed] = rhs[:, failed] = gap[:, failed] = np.nan
        minus[:, failed] = degenerate[failed] = False
    return RelationBatch(formalism, lhs, rhs, gap, gap >= -tol, minus,
                         degenerate, tuple(errors))


def _stats_g(g: Metric | None, formalism: Formalism, dim: int) -> np.ndarray:
    """The metric matrix of the statistics: the identity under the plain
    formalism or when no metric is given, else g's matrix."""
    if formalism is Formalism.PLAIN or g is None:
        return np.eye(dim, dtype=complex)
    return g.g


def _validated(a, b, psi, g: Metric | None, formalism: Formalism,
               psi_perp=None):
    """Boundary checks of one problem: (a, b, psi, G array, psi_perp)
    ready for `relation_batch`, with G the statistics metric."""
    a = as_operator(a, name="first operator")
    dim = a.shape[0]
    b = as_operator(b, dim=dim, name="second operator")
    psi = as_state(psi, dim=dim)
    if psi_perp is not None:
        psi_perp = as_state(psi_perp, dim=dim, name="auxiliary state")
    garr = _stats_g(g, formalism, dim)
    if garr.shape[0] != dim:
        raise DimensionMismatchError(
            f"metric is {g.dim}x{g.dim} but the operators are {dim}x{dim}")
    return a, b, psi, garr, psi_perp


def _single(a, b, psi, g, formalism, ur_tol, relations=_ALL, psi_perp=None,
            sign="max") -> tuple:
    """One problem's four records: validated, evaluated as a batch of
    one, and raising the first error of a check guarding `relations`."""
    a, b, psi, garr, psi_perp = _validated(a, b, psi, g, formalism, psi_perp)
    batch = relation_batch(a, b, psi[None], garr, formalism,
                           None if psi_perp is None else psi_perp[None],
                           tol=_resolve_tol(ur_tol), relations=relations,
                           sign=sign)
    (error,) = batch.errors
    if error is not None:
        raise error
    (records,) = _records(batch)
    return records


def _resolve_tol(ur_tol: float | None) -> float:
    return ur_tolerance() if ur_tol is None else float(ur_tol)


def ur1(a, b, psi, g: Metric | None = None, formalism: Formalism = Formalism.PLAIN,
        *, ur_tol: float | None = None) -> UrEvaluation:
    """Variance sum against twice the imaginary part of the covariance."""
    return _single(a, b, psi, g, formalism, ur_tol, {0})[0]


def ur2(a, b, psi, g: Metric | None = None, formalism: Formalism = Formalism.PLAIN,
        *, ur_tol: float | None = None) -> UrEvaluation:
    """Variance sum against twice the real part of the covariance."""
    return _single(a, b, psi, g, formalism, ur_tol, {1})[1]


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
    return _single(a, b, psi, g, formalism, ur_tol, {2}, psi_perp, sign)[2]


def ur4(a, b, psi, g: Metric | None = None, formalism: Formalism = Formalism.PLAIN,
        *, ur_tol: float | None = None) -> UrEvaluation:
    """Variance sum against the stronger of the two combination bounds.

    Each branch bound is half Var_G(A +- B), the value the normalized
    orthogonal state of that combination gives; a branch whose
    combination has psi as an eigenstate contributes zero and sets the
    degenerate flag instead of failing.  A tie goes to "plus".
    """
    return _single(a, b, psi, g, formalism, ur_tol, {3})[3]


def evaluate_all(a, b, psi, g: Metric | None = None,
                 formalism: Formalism = Formalism.PLAIN,
                 *, psi_perp=None,
                 ur_tol: float | None = None) -> tuple[UrEvaluation, ...]:
    """All four relations over one input, from one kernel call."""
    return _single(a, b, psi, g, formalism, ur_tol, psi_perp=psi_perp)
