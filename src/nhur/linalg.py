"""Complex linear algebra primitives and biorthogonal eigensystems.

Everything downstream works with plain numpy arrays of dtype complex128:
operators are square 2-D arrays, states are 1-D arrays.  The validators
here are the single entry point that turns caller input into arrays of
that shape and checks finiteness, so higher layers can assume clean data.
Batched products are numpy's gufuncs: np.matvec for matrix-vector and
np.vecdot, antilinear in its first argument, for inner products over the
last axis.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, SingularFrameError
from .tolerances import EPS_PD


def _read_only(value, share: bool = False) -> np.ndarray:
    """value as a read-only complex copy, which no caller's array can
    change.  With share, a read-only complex array that owns its data is
    kept as it is: it is safe only while its owner leaves it read-only (a
    view, which changes with its base, is always copied)."""
    arr = np.asarray(value, dtype=complex)
    if not share or arr.flags.writeable or not arr.flags.owndata:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


IDENTITY2 = _read_only([[1, 0], [0, 1]])
SIGMA_X = _read_only([[0, 1], [1, 0]])
SIGMA_Y = _read_only([[0, -1j], [1j, 0]])
SIGMA_Z = _read_only([[1, 0], [0, -1]])


def as_operator(value, dim: int | None = None, name: str = "operator") -> np.ndarray:
    """Coerce to a nonempty square complex matrix, checking shape and finiteness."""
    arr = np.asarray(value, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(
            f"{name} must be a square matrix, got shape {arr.shape}"
        )
    if arr.size == 0:
        raise DimensionMismatchError(f"{name} must not be empty")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(
            f"{name} must be {dim}x{dim}, got {arr.shape[0]}x{arr.shape[1]}"
        )
    if np.count_nonzero(np.isfinite(arr)) < arr.size:  # cheaper than .all()
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def as_state(value, dim: int | None = None, name: str = "state") -> np.ndarray:
    """Coerce to a nonempty complex vector, checking shape and finiteness."""
    arr = np.asarray(value, dtype=complex)
    if arr.ndim != 1:
        raise DimensionMismatchError(
            f"{name} must be a vector, got shape {arr.shape}"
        )
    if arr.size == 0:
        raise DimensionMismatchError(f"{name} must not be empty")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(
            f"{name} must have length {dim}, got {arr.shape[0]}"
        )
    if np.count_nonzero(np.isfinite(arr)) < arr.size:  # cheaper than .all()
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def _scaled(v) -> tuple:
    """v scaled exactly, by a power of two over its last axis, to a largest
    real or imaginary part in [0.5, 1), and that power's exponent: a tiny
    or huge v's norm^2 then neither under- nor overflows (LAPACK's nrm2
    scales likewise)."""
    parts = np.ascontiguousarray(v, dtype=complex).view(float)
    exp = np.frexp(np.abs(parts).max(-1))[1]
    return np.ldexp(parts, -exp[..., None]).view(complex), exp


def _well_conditioned(smallest, largest) -> bool:
    """The one conditioning rule, smallest > EPS_PD * largest (relative)."""
    return smallest > EPS_PD * largest


def _stable_inverse(m: np.ndarray, what: str) -> np.ndarray:
    """m^-1, or SingularFrameError unless m's singular values `_well_conditioned`."""
    sv = np.linalg.svd(m, compute_uv=False)
    if not _well_conditioned(sv[-1], sv[0]):
        raise SingularFrameError(f"{what} is numerically singular "
                                 f"(singular values {sv[0]:.3e} .. {sv[-1]:.3e})")
    return np.linalg.inv(m)


def commutator(a, b) -> np.ndarray:
    a = as_operator(a)
    b = as_operator(b, dim=a.shape[0])
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    a = as_operator(a)
    b = as_operator(b, dim=a.shape[0])
    return a @ b + b @ a


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Biorthogonal eigendecomposition of a (generally non-normal) matrix.

    ``EigenSystem(values, right)``, `dataclasses.replace` included, checks
    both (`as_operator`, `as_state`) and derives left by inverting the right
    frame, the unique biorthonormal choice, or raises SingularFrameError
    where it has no stable inverse.  All three arrays are read-only copies
    (`_read_only`), so no caller's array can change them, not even one
    its owner makes writable again.  Instances compare by identity.

    Attributes
    ----------
    values : (n,) complex eigenvalues.
    right : (n, n) array whose columns are the right eigenvectors.
    left : (n, n) array whose rows are the left eigenvectors, normalized
        so that ``left @ right == identity``.
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray = field(init=False)

    def __post_init__(self):
        right = as_operator(self.right, name="right eigenvector frame")
        values = as_state(self.values, dim=right.shape[0], name="eigenvalues")
        left = _stable_inverse(right, "right eigenvector frame")
        for name, arr in (("values", values), ("right", right), ("left", left)):
            object.__setattr__(self, name, _read_only(arr))

    def right_vector(self, i: int) -> np.ndarray:
        return self.right[:, i]
