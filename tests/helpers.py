"""Shared test utilities: closed-form metrics, random inputs, and
independent oracles that do not go through the library's own formulas."""

import numpy as np

from nhur import Metric, metric_from_matrix

# The benchmark's five sweep command lines, without --points and --out.
BENCH_COMMANDS = [
    ["example1"],
    ["example2", "--phase", "symmetric"],
    ["example2", "--phase", "broken"],
    ["example2", "--phase", "symmetric", "--formalism", "gmetric"],
    ["example2", "--phase", "symmetric", "--gamma", "0.9999999"],
]


def gs_closed(gamma: float) -> np.ndarray:
    """Closed-form metric of the PT model in the symmetric phase."""
    return np.array([[1.0, -1j * gamma], [1j * gamma, 1.0]]) / np.sqrt(
        1.0 - gamma * gamma
    )


def gb_closed(gamma: float) -> np.ndarray:
    """Closed-form metric of the PT model in the broken phase."""
    return np.array([[gamma, -1j], [1j, gamma]]) / np.sqrt(gamma * gamma - 1.0)


def metric_gs(gamma: float = 0.9):
    return metric_from_matrix(gs_closed(gamma))


def metric_gb(gamma: float = 1.2):
    return metric_from_matrix(gb_closed(gamma))


def random_operator(rng, dim: int = 2) -> np.ndarray:
    """Matrix with entries uniform in the closed unit disc."""
    r = np.sqrt(rng.uniform(0.0, 1.0, (dim, dim)))
    phi = rng.uniform(0.0, 2.0 * np.pi, (dim, dim))
    return r * np.exp(1j * phi)


def random_hermitian(rng, dim: int = 2) -> np.ndarray:
    m = random_operator(rng, dim)
    return (m + m.conj().T) / 2.0


def random_state(rng, metric) -> np.ndarray:
    """Normalized state in the metric's inner product."""
    v = rng.normal(size=metric.dim) + 1j * rng.normal(size=metric.dim)
    nsq = complex(np.vdot(v, metric.g @ v)).real
    return v / np.sqrt(nsq)


def metric_sqrt(g: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian positive-definite matrix."""
    w, v = np.linalg.eigh(g)
    return (v * np.sqrt(w)) @ v.conj().T


def good_observable_for(rng, metric) -> np.ndarray:
    """Random operator satisfying X^dag G = G X, via G^(-1/2) H G^(1/2)."""
    s = metric_sqrt(np.asarray(metric.g))
    return np.linalg.inv(s) @ random_hermitian(rng, metric.dim) @ s


def eigen_residual(system, m) -> float:
    """Largest relative eigenpair residual ``|m r - E r| / max(|m|, 1)`` of
    an EigenSystem's right eigenvectors."""
    m = np.asarray(m, dtype=complex)
    scale = max(float(np.linalg.norm(m)), 1.0)
    worst = 0.0
    for i, val in enumerate(system.values):
        r = system.right[:, i]
        worst = max(worst, float(np.linalg.norm(m @ r - val * r)) / scale)
    return worst


def dirac_expect(x: np.ndarray, psi: np.ndarray) -> complex:
    return complex(np.vdot(psi, x @ psi))


def dirac_variance(x: np.ndarray, psi: np.ndarray) -> float:
    w = x @ psi
    val = complex(np.vdot(w, w) - np.vdot(w, psi) * np.vdot(psi, w))
    return val.real


def dirac_covariance(a: np.ndarray, b: np.ndarray, psi: np.ndarray) -> complex:
    wa = a @ psi
    wb = b @ psi
    return complex(np.vdot(wa, wb) - np.vdot(wa, psi) * np.vdot(psi, wb))


def recipe_problem(rng):
    """One draw of the wide-range recipe: (A, B, psi, G) with d from 1 to 4,
    G Hermitian with eigenvalues spread over 10^U(0, 9) and unit Frobenius
    norm, A and B complex Gaussian times 10^U(-12, 12), in 30% of draws B
    near -A, and psi normalized in G.  Under gmetric every draw is a valid
    problem that must evaluate."""
    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    d = int(rng.integers(1, 5))
    q = np.linalg.qr(gauss(d, d))[0]
    g = q @ np.diag(10.0 ** rng.uniform(0, 9, d)) @ q.conj().T
    g = g / np.linalg.norm(g)
    g = (g + g.conj().T) / 2
    a = gauss(d, d) * 10.0 ** rng.uniform(-12, 12)
    b = gauss(d, d) * 10.0 ** rng.uniform(-12, 12)
    if rng.random() < 0.3:
        b = -a + gauss(d, d) * 10.0 ** rng.uniform(-12, 0) * np.abs(a).max()
    psi = gauss(d)
    return a, b, psi / np.sqrt(np.vdot(psi, g @ psi).real), g


def _pairs(arr: np.ndarray) -> list:
    return np.ravel(arr).view(float).reshape(-1, 2).tolist()


def problem_payload(a, b, psi, g: Metric | None = None,
                    formalism: str = "plain", psi_perp=None) -> dict:
    """Serialize one problem to the JSON problem-file schema that
    `nhur check` reads."""
    a = np.asarray(a, dtype=complex)
    payload = {
        "dim": int(a.shape[0]),
        "A": _pairs(a),
        "B": _pairs(np.asarray(b, dtype=complex)),
        "psi": _pairs(np.asarray(psi, dtype=complex)),
        "formalism": formalism,
    }
    if g is not None and not g.is_identity:
        payload["G"] = _pairs(g.g)
    if psi_perp is not None:
        payload["psi_perp"] = _pairs(np.asarray(psi_perp, dtype=complex))
    return payload
