"""The four sum uncertainty relations for non-Hermitian operator pairs.

Each relation bounds lhs = Var(A) + Var(B) from below.  With the centered
vectors d_X = (X - <X>) psi, each gap = lhs - rhs is the squared norm of
one vector, so its rounding scales with the gap rather than with lhs:

  ur1  rhs = 2 Im Cov(A, B);  gap = Var(A + iB) = |d_A + i d_B|^2
  ur2  rhs = 2 Re Cov(A, B);  gap = Var(A - B) = |d_A - d_B|^2
  ur3  rhs = +-2 Im Cov + |<perp|G(A +- iB)|psi>|^2, larger sign branch;
       gap = |d_A +- i d_B|^2 less its part along perp
  ur4  rhs = half the larger of Var(A +- B), each the squared element of
       the combination with its orthogonal state;  gap = half the smaller

All statistics are taken in the formalism's inner product:

  plain    Dirac product, any supplied metric ignored for statistics
  gmetric  metric-weighted statistics, arbitrary operators
  good     gmetric behind the gate X^dag G = G X on both operators, under
           which the commutator and anticommutator forms of ur1/ur2 equal
           2 Im Cov_G and 2 Re Cov_G exactly; the gate is checked once per
           problem at the boundary, before the kernel

The default perp of ur3 is the optimal one, for which the bound is tight
(Maccone & Pati, PRL 113, 260401, 2014): each branch equals lhs and the
gap is 0.  Only a caller-supplied perp needs a matrix element.  The
explicit constructions (states.ur3_default_perp, av_orthogonal_state)
stay available as tools and test oracles; the kernel does not build them.

`relation_batch` evaluates many points in one vectorized pass, unchecked:
ur3 sits at its larger branch, and a point whose values overflow carries
NonFiniteError and reads NaN and False, the one error it records.  holds
is the paper's inequality, lhs - rhs >= -EPS_UR * S with S =
|A psi|_G^2 + |B psi|_G^2 (`tolerances.ur_holds`), not the gap's sign: a
fault in lhs or a bound fails it, in any units.  The kernel takes no
formalism and computes in whatever G it is given.
Every rule about the caller's input lives at the boundary, `_validated`,
which applies the one rule `metric` holds for each; this module reads no
EPS_*.  `evaluate_all` and ur1-ur4 validate one problem there, make the
N = 1 call, and raise its error or return its records.
"""

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, NotOrthogonalError
from .linalg import _scaled, as_operator, as_state
from .metric import (Metric, _centered, _require_good, _require_norm,
                     _require_orthogonal, _vanishes, identity_metric)
from .tolerances import ur_holds


class Formalism(enum.Enum):
    PLAIN = "plain"
    GMETRIC = "gmetric"
    GOOD = "good"

    @classmethod
    def parse(cls, text: str) -> "Formalism":
        return cls(text.strip().lower())


class UrEvaluation(NamedTuple):
    """One evaluated inequality instance, an immutable named tuple.

    gap = lhs - rhs to rounding, not bit for bit (see the module
    docstring); holds means lhs - rhs >= -EPS_UR (|A psi|_G^2 + |B psi|_G^2).
    sign_branch records which branch achieved the reported bound for the
    relations that have one, the larger as computed: an exact tie (the same
    bits, as for ur3 with the default auxiliary state or ur4 with B = 0)
    goes to "plus", an analytic tie to whichever branch rounds larger.
    degenerate marks ur4 evaluations where a branch hit an eigenstate of
    A+-B, sd <= EPS_DEGEN (|A psi|_G + |B psi|_G), and contributed 0.
    """

    relation: str
    formalism: Formalism
    lhs: float
    rhs: float
    gap: float
    holds: bool
    sign_branch: str | None = None
    degenerate: bool = False


_BRANCH = ("plus", "minus")
# (d_A, d_B) coefficients of u and gu: Var of A, B, A +- B, A +- iB; Cov(A, B)
_COMBOS = np.array([[[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j], [1, 0]],
                    [[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j], [0, 1]]])


@dataclass(frozen=True, eq=False)
class RelationBatch:
    """The four relations over N points, from one `relation_batch` call.

    Arrays run over points on their last axis.  lhs is (N,); rhs, gap and
    holds are (4, N), ur1..ur4 by row; minus (2, N) marks a minus branch
    of ur3 (row 0) and ur4 (row 1); degenerate is ur4's flag.  errors
    holds each point's NhurError or None; a failed point reads NaN and
    False.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    gap: np.ndarray
    holds: np.ndarray
    minus: np.ndarray
    degenerate: np.ndarray
    errors: tuple


@np.errstate(over="ignore", invalid="ignore")  # an overflow is no verdict
def relation_batch(a, b, psi, g, psi_perp=None) -> RelationBatch:
    """Evaluate ur1..ur4 at N points in one vectorized pass.  Unchecked.

    a, b and g are (N, d, d) stacks or single (d, d) matrices that
    broadcast; psi and psi_perp are (N, d).  g is the metric of the
    statistics (`_stats_g`).  Inputs must be finite complex arrays of
    consistent shape, G-normalized states, a psi_perp G-orthogonal to psi,
    and good observables where the formalism asks it; `_validated` makes
    them so.  holds is `ur_holds` with S from the norms the eigenstate rule
    forms; ur3 reports its larger branch, as ur4 does.  The one error a
    point can record is NonFiniteError, where its true lhs, rhs or gap
    overflows, as overflow is no verdict.
    """
    values, holds, minus, degenerate = _values(a, b, psi, g, psi_perp)
    lhs, rhs, gap = values[0], values[1:5], values[5:]
    n, d = psi.shape
    errors = (None,) * n
    held = np.isfinite(values)
    if np.count_nonzero(held) != held.size:
        failed = np.flatnonzero(~held.all(0))
        # a product can overflow where no value does: evaluate those points
        # again with A and B `_scaled` jointly, exactly, by 2^-k, which
        # scales every value by 2^-2k and moves no verdict, and scale back
        ab, k = _scaled(np.concatenate([np.broadcast_to(x, (n, d, d))[failed]
                                        .reshape(-1, d * d) for x in (a, b)], 1))
        parts = _values(*ab.reshape(-1, 2, d, d).swapaxes(0, 1), psi[failed],
                        np.broadcast_to(g, (n, d, d))[failed],
                        None if psi_perp is None else psi_perp[failed])
        values[:, failed] = np.ldexp(parts[0], 2 * k)
        for whole, part in zip((holds, minus, degenerate), parts[1:]):
            whole[..., failed] = part
        failed = ~np.isfinite(values).all(0)
        errors = tuple(NonFiniteError("relation values overflow double precision "
                                      f"(lhs = {lhs[i]:.3g})") if bad else None
                       for i, bad in enumerate(failed.tolist()))
        values[:, failed] = np.nan
        holds[:, failed] = minus[:, failed] = degenerate[failed] = False
    return RelationBatch(lhs, rhs, gap, holds, minus, degenerate, errors)


def _values(a, b, psi, g, psi_perp) -> tuple:
    """`relation_batch`'s arrays as computed, values overflowed included:
    (lhs, the four rhs, the four gaps) as one (9, N) array, holds, minus
    and degenerate."""
    n = psi.shape[0]
    v = np.array([psi, np.matvec(a, psi), np.matvec(b, psi)])
    gv = np.matvec(g, v)  # G psi, G A psi and G B psi in one product
    dx, mean = _centered(v, gv)
    u, gu = (_COMBOS @ dx.reshape(2, 2, -1)).reshape(2, 7, *psi.shape)
    stats = np.vecdot(u, gu)
    raw, cov2 = stats[:6], stats[6] + stats[6]  # twice Cov(A, B), exactly
    var = np.maximum(raw.real, 0.0)
    lhs = var[0] + var[1]
    rhs1 = cov2.imag
    if psi_perp is None:
        # tight for the optimal auxiliary state, in every branch
        rhs3, gap3, minus3 = lhs, np.zeros(n), np.zeros(n, bool)
    else:
        # each branch's gap is the G-norm of d_A +- i d_B less its part along
        # perp; as perp is orthogonal to psi, e is <perp|G(A +- iB)|psi>
        gperp = np.matvec(g, psi_perp)
        w, gw = u[4:6], gu[4:6]
        e = np.vecdot(psi_perp, gw)[..., None]
        rhs3 = np.array([rhs1, -rhs1]) + np.abs(e[..., 0]) ** 2
        gap3 = np.maximum(np.vecdot(w - e * psi_perp, gw - e * gperp).real, 0.0)
        minus3 = rhs3[1] > rhs3[0]
        rhs3, gap3 = np.where(minus3, [rhs3[1], gap3[1]], [rhs3[0], gap3[0]])

    # an eigenstate of A +- B on the scale |A psi|_G + |B psi|_G: that bound is 0
    sd = np.sqrt(var[:4])
    norm = np.hypot(sd[:2], np.abs(mean[..., 0]))
    flat = _vanishes(sd[2:], norm[0] + norm[1])
    halves = np.where(flat, 0.0, 0.5 * var[2:4])
    values = np.array([lhs, rhs1, cov2.real, rhs3,
                       np.maximum(halves[0], halves[1]), var[4], var[3], gap3,
                       np.minimum(halves[0], halves[1])])
    holds = ur_holds(values[0], values[1:5], np.vecdot(norm, norm, axis=0))  # S
    return values, holds, np.array([minus3, halves[1] > halves[0]]), flat[0] | flat[1]


def _stats_g(g: Metric | None, formalism: Formalism, dim: int) -> np.ndarray:
    """The metric matrix of the statistics: the identity under the plain
    formalism or when no metric is given, else g's matrix, which must be
    dim x dim."""
    if not (g is None or isinstance(g, Metric)):
        raise TypeError(f"a metric must be a Metric or None, not {type(g).__name__}; "
                        "build one with metric_from_matrix")
    if formalism is Formalism.PLAIN or g is None:
        return identity_metric(dim).g
    if g.dim != dim:
        raise DimensionMismatchError(
            f"metric is {g.dim}x{g.dim} but the operators are {dim}x{dim}")
    return g.g


@np.errstate(over="ignore", invalid="ignore")  # then a rule fails
def _validated(a, b, psi, g: Metric | None, formalism: Formalism,
               psi_perp=None):
    """Boundary checks of one problem: its shapes, the metric's included,
    then the good-observable gate, psi's normalization, and an explicit
    psi_perp's normalization and overlap, the first failure raised.
    (a, b, psi, G, psi_perp) ready for `relation_batch`, G the statistics
    metric."""
    a = as_operator(a, name="first operator")
    dim = a.shape[0]
    b = as_operator(b, dim=dim, name="second operator")
    psi = as_state(psi, dim=dim)
    if psi_perp is not None:
        psi_perp = as_state(psi_perp, dim=dim, name="auxiliary state")
    garr = _stats_g(g, formalism, dim)
    if formalism is Formalism.GOOD:
        _require_good(a, b, garr)
    gpsi = np.matvec(garr, psi)
    _require_norm("state", np.vecdot(psi, gpsi), psi, gpsi)
    if psi_perp is not None:
        gperp = np.matvec(garr, psi_perp)
        name = "auxiliary state"
        _require_norm(name, np.vecdot(psi_perp, gperp), psi_perp, gperp)
        _require_orthogonal(name, psi_perp, gpsi, NotOrthogonalError)
    return a, b, psi, garr, psi_perp


def _formalism(value) -> Formalism:
    """A public entry's formalism argument as a member; its ValueError else."""
    return value if isinstance(value, Formalism) else Formalism(value)


def _single(a, b, psi, g, formalism, psi_perp=None) -> tuple:
    """One problem's four records: validated, evaluated as a batch of
    one, and raising its error."""
    f = _formalism(formalism)
    a, b, psi, garr, psi_perp = _validated(a, b, psi, g, f, psi_perp)
    batch = relation_batch(a, b, psi[None], garr,
                           None if psi_perp is None else psi_perp[None])
    (error,) = batch.errors
    if error is not None:
        raise error
    (lhs,), rhs, gap, holds, (minus3, minus4), (degenerate,) = (
        x.ravel().tolist() for x in (batch.lhs, batch.rhs, batch.gap, batch.holds,
                                     batch.minus, batch.degenerate))
    return (UrEvaluation("ur1", f, lhs, rhs[0], gap[0], holds[0]),
            UrEvaluation("ur2", f, lhs, rhs[1], gap[1], holds[1]),
            UrEvaluation("ur3", f, lhs, rhs[2], gap[2], holds[2], _BRANCH[minus3]),
            UrEvaluation("ur4", f, lhs, rhs[3], gap[3], holds[3], _BRANCH[minus4],
                         degenerate))


def ur1(a, b, psi, g: Metric | None = None,
        formalism: Formalism = Formalism.PLAIN) -> UrEvaluation:
    """Variance sum against twice the imaginary part of the covariance.

    Each of ur1-ur4 runs the whole four-relation kernel and keeps one
    record: for two or more relations, call `evaluate_all` once."""
    return _single(a, b, psi, g, formalism)[0]


def ur2(a, b, psi, g: Metric | None = None,
        formalism: Formalism = Formalism.PLAIN) -> UrEvaluation:
    """Variance sum against twice the real part of the covariance; the
    whole kernel runs, as for ur1, so prefer one `evaluate_all` call."""
    return _single(a, b, psi, g, formalism)[1]


def ur3(a, b, psi, g: Metric | None = None, formalism: Formalism = Formalism.PLAIN,
        *, psi_perp=None) -> UrEvaluation:
    """Variance sum against the auxiliary-state-strengthened bound.

    For each sign branch the bound adds the squared matrix element of
    A +- iB between psi and a unit vector metric-orthogonal to psi, and
    the larger branch is reported.  psi_perp, metric-normalized and
    metric-orthogonal to psi, overrides the canonical auxiliary state,
    for which the bound is tight and both branches equal lhs ("plus").
    The whole kernel runs, as for ur1, so prefer one `evaluate_all` call.
    """
    return _single(a, b, psi, g, formalism, psi_perp)[2]


def ur4(a, b, psi, g: Metric | None = None,
        formalism: Formalism = Formalism.PLAIN) -> UrEvaluation:
    """Variance sum against the stronger of the two combination bounds.

    Each branch bound is half Var_G(A +- B), the value the normalized
    orthogonal state of that combination gives; a branch at an eigenstate of
    its combination contributes zero and sets the degenerate flag, with no
    error.  A tie goes to the branch that computes larger, else to "plus".
    The whole kernel runs, as for ur1, so prefer one `evaluate_all` call.
    """
    return _single(a, b, psi, g, formalism)[3]


def evaluate_all(a, b, psi, g: Metric | None = None,
                 formalism: Formalism = Formalism.PLAIN,
                 *, psi_perp=None) -> tuple[UrEvaluation, ...]:
    """All four relations over one input, from one kernel call."""
    return _single(a, b, psi, g, formalism, psi_perp=psi_perp)
