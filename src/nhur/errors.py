"""Exception hierarchy for the nhur package.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map validation problems to a dedicated exit code without
string matching.  All classes derive from :class:`NhurError`.
"""


class NhurError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(NhurError):
    """Operands have incompatible shapes for the requested operation."""


class NonFiniteError(NhurError):
    """An input or intermediate array contains NaN or infinity."""


class ZeroVectorError(NhurError):
    """A state vector vanishes and cannot be normalized."""


class NegativeNormError(NhurError):
    """A squared norm came out non-positive under the supplied metric."""


class NotNormalizedError(NhurError):
    """A state that must be metric-normalized is not."""


class ExceptionalPointError(NhurError):
    """Eigenvalues coalesce and the eigenvector frame loses rank."""


class SingularFrameError(NhurError):
    """A right-eigenvector frame is too close to singular to invert."""


class MetricValidationError(NhurError):
    """A candidate metric is not Hermitian positive definite.

    report is the failed validation's MetricReport.
    """

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


class DegenerateEigenstateError(NhurError):
    """The state is an eigenstate of the operator, so the normalized
    orthogonal state is undefined."""


class NotOrthogonalError(NhurError):
    """A supplied auxiliary state fails the metric-orthogonality check."""


class NotGoodObservableError(NhurError):
    """An operator does not commute with the metric in the required sense."""


class PhaseMismatchError(NhurError):
    """A parameter value belongs to the other spectral phase of the model."""


class InternalInconsistencyError(NhurError):
    """A fault of the package's own, raised only in `states`: a state it
    constructed fails its overlap rule, or no direction orthogonal to the
    state is found."""
