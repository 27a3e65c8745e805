"""Complex linear algebra primitives and biorthogonal eigensystems.

Everything downstream works with plain numpy arrays of dtype complex128:
operators are square 2-D arrays, states are 1-D arrays.  The validators
here are the single entry point that turns caller input into arrays of
that shape and checks finiteness, so higher layers can assume clean data.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, SingularFrameError
from .tolerances import EPS_PD


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

