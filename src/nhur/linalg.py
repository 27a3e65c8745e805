"""Complex linear algebra primitives and 2x2 biorthogonal eigensystems.

Everything downstream works with plain numpy arrays of dtype complex128:
operators are square 2-D arrays, states are 1-D arrays.  The validators
here are the single entry point that turns caller input into arrays of
that shape and checks finiteness, so higher layers can assume clean data.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    ExceptionalPointError,
    NonFiniteError,
    SingularFrameError,
)
from .tolerances import EPS_EP, EPS_MACH, EPS_PD


def _const(rows) -> np.ndarray:
    arr = np.array(rows, dtype=complex)
    arr.setflags(write=False)
    return arr


IDENTITY2 = _const([[1, 0], [0, 1]])
SIGMA_X = _const([[0, 1], [1, 0]])
SIGMA_Y = _const([[0, -1j], [1j, 0]])
SIGMA_Z = _const([[1, 0], [0, -1]])


def as_operator(value, dim: int | None = None, name: str = "operator") -> np.ndarray:
    """Coerce to a square complex matrix, checking shape and finiteness."""
    arr = np.asarray(value, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(
            f"{name} must be a square matrix, got shape {arr.shape}"
        )
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(
            f"{name} must be {dim}x{dim}, got {arr.shape[0]}x{arr.shape[1]}"
        )
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def as_state(value, dim: int | None = None, name: str = "state") -> np.ndarray:
    """Coerce to a complex vector, checking shape and finiteness."""
    arr = np.asarray(value, dtype=complex)
    if arr.ndim != 1:
        raise DimensionMismatchError(
            f"{name} must be a vector, got shape {arr.shape}"
        )
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(
            f"{name} must have length {dim}, got {arr.shape[0]}"
        )
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def _mv(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Batched matrix-vector product: (..., d, d) with (..., d) -> (..., d)."""
    return (m @ v[..., None])[..., 0]


def _vdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Batched inner product over the last axis, antilinear in u."""
    return np.einsum("...i,...i->...", u.conj(), v)


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_operator(m).conj().T


def inner(u, v) -> complex:
    """Euclidean inner product, antilinear in the first slot."""
    return complex(np.vdot(as_state(u), as_state(v)))


def commutator(a, b) -> np.ndarray:
    a = as_operator(a)
    b = as_operator(b, dim=a.shape[0])
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    a = as_operator(a)
    b = as_operator(b, dim=a.shape[0])
    return a @ b + b @ a


@dataclass(frozen=True)
class EigenSystem:
    """Biorthogonal eigendecomposition of a (generally non-normal) matrix.

    Attributes
    ----------
    values : (n,) complex eigenvalues.
    right : (n, n) array whose columns are the right eigenvectors.
    left : (n, n) array whose rows are the left eigenvectors, normalized
        so that ``left @ right == identity``.
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray

    @property
    def dim(self) -> int:
        return self.right.shape[0]

    def right_vector(self, i: int) -> np.ndarray:
        return self.right[:, i]

    def left_vector(self, i: int) -> np.ndarray:
        return self.left[i, :]

    def residual(self, m) -> float:
        """Largest relative eigenpair residual ``|m r - E r| / |m|``."""
        m = as_operator(m, dim=self.dim)
        scale = max(float(np.linalg.norm(m)), 1.0)
        worst = 0.0
        for i, val in enumerate(self.values):
            r = self.right[:, i]
            worst = max(worst, float(np.linalg.norm(m @ r - val * r)) / scale)
        return worst

    @classmethod
    def from_right(cls, values, right) -> "EigenSystem":
        """Build a system from eigenvalues and right-eigenvector columns.

        The left rows are obtained by inverting the right frame, which is
        the unique choice satisfying the biorthonormality condition.
        Raises SingularFrameError when the frame has no stable inverse.
        """
        right = as_operator(right, name="right eigenvector frame")
        values = as_state(values, dim=right.shape[0], name="eigenvalues")
        sv = np.linalg.svd(right, compute_uv=False)
        if sv[-1] <= EPS_PD * sv[0]:
            raise SingularFrameError(
                "right eigenvector frame is numerically singular "
                f"(singular values {sv[0]:.3e} .. {sv[-1]:.3e})"
            )
        left = np.linalg.inv(right)
        return cls(values=values, right=right, left=left)


def _unit_eigvec(m: np.ndarray, val: complex) -> np.ndarray:
    """Unit right eigenvector of a 2x2 matrix with a fixed phase gauge.

    Of the two classical null-space candidates the better conditioned one
    is kept; the phase is fixed by making the first component of
    significant modulus real and positive, so the output is deterministic.
    """
    cand_a = np.array([m[0, 1], val - m[0, 0]], dtype=complex)
    cand_b = np.array([val - m[1, 1], m[1, 0]], dtype=complex)
    v = cand_a if np.linalg.norm(cand_a) >= np.linalg.norm(cand_b) else cand_b
    nrm = float(np.linalg.norm(v))
    if nrm <= EPS_MACH * max(float(np.linalg.norm(m)), 1.0):
        raise ExceptionalPointError(
            "eigenvector candidates vanish; matrix is defective or scalar"
        )
    v = v / nrm
    k = 0 if abs(v[0]) > 1e-12 else 1
    return v * (v[k].conjugate() / abs(v[k]))


def eig2(m) -> EigenSystem:
    """Balanced biorthogonal eigensystem of a 2x2 complex matrix.

    Eigenvalues are computed from the closed-form quadratic and ordered by
    descending real part, then descending imaginary part.  The left/right
    pairs satisfy ``left @ right == identity`` and the scale freedom of
    each pair is fixed by the balance condition |r_i| == |l_i|, which also
    makes the frame deterministic.

    Raises ExceptionalPointError when the eigenvalues coalesce within
    EPS_EP relative to the matrix scale, and SingularFrameError if the
    frame is otherwise too ill conditioned to invert.
    """
    m = as_operator(m, dim=2)
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = np.sqrt(complex(tr * tr - 4.0 * det))
    pair = sorted(
        [(tr + disc) / 2.0, (tr - disc) / 2.0],
        key=lambda z: (-z.real, -z.imag),
    )
    scale = max(float(np.linalg.norm(m)), 1.0)
    if abs(pair[0] - pair[1]) <= EPS_EP * scale:
        raise ExceptionalPointError(
            f"eigenvalues {pair[0]:.6g} and {pair[1]:.6g} coalesce "
            f"within {EPS_EP:g} of the operator scale"
        )
    unit = np.column_stack([_unit_eigvec(m, val) for val in pair])
    sv = np.linalg.svd(unit, compute_uv=False)
    if sv[-1] <= EPS_PD * sv[0]:
        raise SingularFrameError(
            "eigenvector frame is numerically singular despite split eigenvalues"
        )
    rows = np.linalg.inv(unit)
    # Balance: scaling column i by s_i divides row i of the inverse by s_i,
    # so s_i = sqrt(|row_i|) equalizes the two norms.
    s = np.sqrt(np.linalg.norm(rows, axis=1))
    right = unit * s[None, :]
    left = rows / s[:, None]
    return EigenSystem(values=np.array(pair, dtype=complex), right=right, left=left)
