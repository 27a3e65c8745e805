"""Central numerical tolerances.

All comparison thresholds live here so that tests and library code agree
on a single set of numbers.  Each is applied by one rule, named beside
it, in the one package module that reads it; a relative limit on a
product <u|v> is eps * max(1, |u| |v|) (`metric._limit`).  The verdict's
rule, `ur_holds`, lives here beside EPS_UR, which has no override.  A
variance or norm^2, real and nonnegative by construction under a valid
metric, has no tolerance: its rounding is read as its real part, clamped at 0.
"""

# Noise floor relative to the largest entry or term: states._fix_phase, _superpose.
EPS_MACH = 1e-12

# |gamma^2 - 1| at or below which scenarios._require_gamma rejects gamma
# as the exceptional point; absolute, gamma being dimensionless.
EPS_EP = 1e-8

# Hermiticity of a candidate metric, relative to |G|_F: metric._validation.
EPS_HERM = 1e-10

# Conditioning: smallest > EPS_PD * largest, relative, for a metric's
# eigenvalues and a frame's singular values: linalg._well_conditioned.
EPS_PD = 1e-10

# Relative residual of X^dag G = G X, the good-observable gate: metric._good.
EPS_GOOD = 1e-9

# Deviation of a state's norm^2 <v|G v> from one, relative; a norm^2 that
# is not finite fails: metric._is_normalized.
EPS_NORM = 1e-8

# Overlap <perp|G psi> of every auxiliary state, constructed or supplied,
# relative: metric._require_orthogonal.
EPS_ORTH = 1e-10

# Length that vanishes, EPS_DEGEN * scale: metric._vanishes.  The scale is
# |A psi|_G + |B psi|_G for the sd of A +- B, |X|_F for that of X, and the
# projected vector's length for a projection.
EPS_DEGEN = 1e-9

# Slack of the verdict lhs - rhs >= -EPS_UR * S, relative to the scale
# S = |A psi|_G^2 + |B psi|_G^2, so that units do not move it: ur_holds.
EPS_UR = 1e-9


def ur_holds(lhs, rhs, scale):
    """The one verdict rule, batched: lhs - rhs >= -EPS_UR * scale.  A
    NaN, as at a failed point, does not hold."""
    return lhs - rhs >= -EPS_UR * scale
