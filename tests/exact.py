"""Exact values of the four relations, in rational arithmetic.

Every value `relation_batch` reports but the degenerate flag is a rational
function of its inputs, and doubles are exact rationals, so the standard
library's `fractions.Fraction` gives each one exactly; a complex number is
an (re, im) pair of Fractions.  `exact_values` applies the kernel's own
formulas to the state as given, not renormalized, so the kernel's error
against it is its rounding alone.  An entry may also be given as an
exact (re, im) pair, for inputs that no double holds.  Meant for d <= 4.
"""

from fractions import Fraction


def _c(z):
    """z as an (re, im) pair of Fractions; such a pair passes as it is."""
    if isinstance(z, tuple):
        return z
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _comb(s, u, t, v):
    """s u + t v for complex scalars s, t and vectors u, v."""
    return [(p[0] + q[0], p[1] + q[1]) for p, q in
            zip((_mul(s, x) for x in u), (_mul(t, y) for y in v))]


def _matvec(m, v):
    return [(sum(_mul(x, y)[0] for x, y in zip(row, v)),
             sum(_mul(x, y)[1] for x, y in zip(row, v))) for row in m]


def _dot(u, v):
    """<u|v>, the first vector conjugated."""
    terms = [_mul((x[0], -x[1]), y) for x, y in zip(u, v)]
    return sum(t[0] for t in terms), sum(t[1] for t in terms)


ONE, I = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))


def exact_values(a, b, psi, g, psi_perp=None) -> dict:
    """lhs, the rhs and gap of ur1..ur4 as 4-lists, ur3's |e|^2 of its
    reported branch (None with the default perp) and S = |A psi|_G^2 +
    |B psi|_G^2, as Fractions, for (d, d) arrays and (d,) states.  ur3's
    bound is taken on psi_perp's ray, |e|^2 / <perp|G perp>, so lhs never
    falls below it at any norm of psi_perp."""
    a, b, g = ([[_c(z) for z in row] for row in m] for m in (a, b, g))
    p = [_c(z) for z in psi]
    ap, bp = _matvec(a, p), _matvec(b, p)

    def centered(xp):  # d = X psi - <X>_G psi
        mean = _dot(p, _matvec(g, xp))
        return _comb(ONE, xp, (-mean[0], -mean[1]), p)

    def var(u):  # <u|G u>, real as G is exactly Hermitian
        return _dot(u, _matvec(g, u))[0]

    da, db = centered(ap), centered(bp)
    cov = _dot(da, _matvec(g, db))
    lhs, rhs1 = var(da) + var(db), 2 * cov[1]
    sums = var(_comb(ONE, da, ONE, db)), var(_comb(ONE, da, (-ONE[0], 0), db))
    rhs3, gap3, e2 = lhs, Fraction(0), None
    if psi_perp is not None:  # on perp's ray: |e|^2 / n and w less (e / n) perp
        q = [_c(z) for z in psi_perp]
        nsq, branches = _dot(q, _matvec(g, q))[0], []
        for sign in (1, -1):  # each branch, its rhs first
            w = _comb(ONE, da, (0, sign * I[1]), db)
            e = _dot(q, _matvec(g, w))
            size = e[0] ** 2 + e[1] ** 2
            branches.append((sign * rhs1 + size / nsq,
                             var(_comb(ONE, w, (-e[0] / nsq, -e[1] / nsq), q)), size))
        rhs3, gap3, e2 = max(branches, key=lambda br: br[0])
    scale = _dot(ap, _matvec(g, ap))[0] + _dot(bp, _matvec(g, bp))[0]
    return {"lhs": lhs, "rhs": [rhs1, 2 * cov[0], rhs3, max(sums) / 2],
            "gap": [var(_comb(ONE, da, I, db)), sums[1], gap3, min(sums) / 2],
            "e2": e2, "S": scale}
