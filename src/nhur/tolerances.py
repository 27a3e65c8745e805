"""Central numerical tolerances.

All comparison thresholds used across the package live here so that tests
and library code agree on a single set of numbers.  Values are absolute
unless a docstring says otherwise.
"""

import os

# Floating-point noise floor for quantities of order one.
EPS_MACH = 1e-12

# Eigenvalue splitting below which a 2x2 operator is treated as sitting at
# an exceptional point (relative to the operator scale).
EPS_EP = 1e-8

# Hermiticity check for candidate metrics, relative to the matrix scale.
EPS_HERM = 1e-10

# Smallest metric eigenvalue accepted as positive definite.
EPS_PD = 1e-10

# Relative residual for the operator/metric intertwining test.
EPS_GOOD = 1e-9

# Allowed imaginary part, or part below zero, of a product <u|v> that is
# real and nonnegative by construction (a variance or a norm^2):
# EPS_VAR * max(1, |u| |v|), in metric._exceeds.
EPS_VAR = 1e-9

# Allowed deviation of a state's metric norm from one.
EPS_NORM = 1e-8

# Metric-orthogonality check for every auxiliary state, constructed or
# supplied: EPS_ORTH * max(1, |perp| |G psi|), in metric._overlap_limit.
EPS_ORTH = 1e-10

# Standard deviation below which a state counts as an eigenstate of the
# operator (the normalized orthogonal state is then undefined).
EPS_DEGEN = 1e-9

# Slack granted when deciding whether an uncertainty bound holds:
# the inequality passes when gap >= -EPS_UR.
EPS_UR = 1e-9

_ENV_UR = "NHUR_TOLERANCE_UR"


def ur_tolerance() -> float:
    """Inequality slack, honoring the NHUR_TOLERANCE_UR override.

    Falls back to EPS_UR when the variable is unset or unparsable; a
    parsable but non-positive value is also rejected.
    """
    raw = os.environ.get(_ENV_UR)
    if raw is None:
        return EPS_UR
    try:
        val = float(raw)
    except ValueError:
        return EPS_UR
    if not val > 0.0:
        return EPS_UR
    return val
