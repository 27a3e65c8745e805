"""Independent reference values for the benchmark's output checks.

Plain numpy only: nothing here imports nhur, so a fault in the package
cannot hide itself by also corrupting the numbers it is compared with.

Every default-path result of the four relations is a function of three
scalars, Var_G(A), Var_G(B) and Cov_G(A, B):

  lhs      = Var_G(A) + Var_G(B)
  ur1 rhs  = 2 Im Cov_G
  ur2 rhs  = 2 Re Cov_G
  ur3 rhs  = lhs                     (default auxiliary state, tight by
                                      Maccone & Pati, PRL 113, 260401)
  ur4 rhs  = lhs / 2 + |Re Cov_G|    (Var(A +- B) = lhs +- 2 Re Cov)

With a caller-supplied auxiliary state ur3 needs one matrix element more:
max over s = +-1 of 2 s Im Cov_G + |<perp| G (A + i s B) |psi>|^2.

All functions broadcast over leading batch axes, so a whole sweep grid or
problem group is checked in one call.
"""

import math

import numpy as np

SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])


def _mv(m, v):
    return np.einsum("...ij,...j->...i", m, v)


def _inner(u, v):
    return np.einsum("...i,...i->...", u.conj(), v)


def g_stats(a, b, psi, g):
    """(Var_G(A), Var_G(B), Cov_G(A, B)) for G-normalized psi."""
    wa, wb, gpsi = _mv(a, psi), _mv(b, psi), _mv(g, psi)
    ma, mb = _inner(gpsi, wa), _inner(gpsi, wb)
    var_a = _inner(wa, _mv(g, wa)).real - np.abs(ma) ** 2
    var_b = _inner(wb, _mv(g, wb)).real - np.abs(mb) ** 2
    cov = _inner(wa, _mv(g, wb)) - ma.conj() * mb
    return var_a, var_b, cov


def expected(a, b, psi, g, perp=None):
    """Reference lhs, the rhs of ur1..ur4 and the second-moment scale of
    the lhs, as a dict of arrays.

    perp, when given, is the explicit G-orthogonal auxiliary state of ur3.
    """
    var_a, var_b, cov = g_stats(a, b, psi, g)
    lhs = var_a + var_b
    wa, wb = _mv(a, psi), _mv(b, psi)
    # second moments: the size of the terms whose difference is lhs
    scale = _inner(wa, _mv(g, wa)).real + _inner(wb, _mv(g, wb)).real
    if perp is None:
        ur3 = lhs
    else:
        gperp = _mv(g, perp)
        branches = [
            2.0 * s * cov.imag + np.abs(_inner(gperp, wa + 1j * s * wb)) ** 2
            for s in (1.0, -1.0)
        ]
        ur3 = np.maximum(*branches)
    return {
        "scale": scale,
        "lhs": lhs,
        "ur1": 2.0 * cov.imag,
        "ur2": 2.0 * cov.real,
        "ur3": ur3,
        "ur4": 0.5 * lhs + np.abs(cov.real),
    }


def g_normalize(v, g):
    return v / np.sqrt(_inner(v, _mv(g, v)).real)[..., None]


# ---- example1: polar-part operators under the Dirac product ----------

def _polar(theta_u, theta_s, theta0):
    """S U: U the reflection through 2(theta_u - theta0), S = diag(-cos 2 theta_s, 1)."""
    d = 2.0 * (theta_u - theta0)
    c, s = np.cos(d), np.sin(d)
    stretch = -math.cos(2.0 * theta_s)
    out = np.empty(np.shape(theta0) + (2, 2), dtype=complex)
    out[..., 0, 0] = stretch * c
    out[..., 0, 1] = stretch * s
    out[..., 1, 0] = s
    out[..., 1, 1] = -c
    return out


def example1(theta0, theta1=math.pi / 4, theta3=math.pi / 3,
             theta5=math.pi / 4, theta7=3 * math.pi / 4):
    """(A, B, psi, G) over an array of theta0 values."""
    theta0 = np.asarray(theta0, dtype=float)
    a = _polar(theta1, theta3, theta0)
    b = _polar(theta5, theta7, theta0)
    psi = np.stack([np.cos(2.0 * theta0), np.sin(2.0 * theta0)], -1).astype(complex)
    g = np.broadcast_to(np.eye(2, dtype=complex), a.shape)
    return a, b, psi, g


# ---- example2: the PT two-level model --------------------------------

def pt_hamiltonian(gamma):
    return np.array([[1j * gamma, 1.0], [1.0, -1j * gamma]])


def pt_metric(gamma):
    """Closed-form metric: [[1, -i g], [i g, 1]] / sqrt(1 - g^2) in the
    symmetric phase, [[g, -i], [i, g]] / sqrt(g^2 - 1) in the broken one."""
    if gamma * gamma < 1.0:
        return np.array([[1.0, -1j * gamma], [1j * gamma, 1.0]]) / math.sqrt(
            1.0 - gamma * gamma)
    return np.array([[gamma, -1j], [1j, gamma]]) / math.sqrt(gamma * gamma - 1.0)


def pt_eigenvectors(gamma):
    """The scenario's closed-form right eigenvectors (E+, E-), G-orthonormal.

    Symmetric phase, sin(theta) = gamma: E+ = (e^{i theta/2}, e^{-i theta/2})
    and E- = i (e^{-i theta/2}, -e^{i theta/2}), both over sqrt(2 cos theta).
    Broken phase, lam = sqrt(gamma^2 - 1): E+ = (1, -i(gamma - lam)) and
    E- = (i(gamma - lam), 1), both over sqrt(2 gamma lam - 2 lam^2).
    """
    if gamma * gamma < 1.0:
        theta = math.asin(gamma)
        n = math.sqrt(2.0 * math.cos(theta))
        h = 0.5 * theta
        e_plus = np.array([np.exp(1j * h), np.exp(-1j * h)]) / n
        e_minus = 1j * np.array([np.exp(-1j * h), -np.exp(1j * h)]) / n
    else:
        lam = math.sqrt(gamma * gamma - 1.0)
        n = math.sqrt(2.0 * gamma * lam - 2.0 * lam * lam)
        e_plus = np.array([1.0, -1j * (gamma - lam)]) / n
        e_minus = np.array([1j * (gamma - lam), 1.0]) / n
    return e_plus, e_minus


def example2(alpha, gamma, p):
    """(A, B, psi, G) over an array of alpha values.

    The pair is (H(gamma), sigma_y) in the symmetric phase and
    (H(1/gamma), sigma_y) in the broken one; psi is the G-normalized
    superposition E+ + p e^{i alpha} E-.
    """
    alpha = np.asarray(alpha, dtype=float)
    g = pt_metric(gamma)
    e_plus, e_minus = pt_eigenvectors(gamma)
    a = pt_hamiltonian(gamma if gamma * gamma < 1.0 else 1.0 / gamma)
    psi = e_plus + (p * np.exp(1j * alpha))[..., None] * e_minus
    psi = g_normalize(psi, g)
    shape = alpha.shape + (2, 2)
    return (np.broadcast_to(a, shape), np.broadcast_to(SIGMA_Y, shape), psi,
            np.broadcast_to(g, shape))
