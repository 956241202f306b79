"""Exception hierarchy shared across the toolkit."""


class GlkitError(Exception):
    """Base class for all toolkit errors."""


class DataError(GlkitError):
    """Malformed or inconsistent input data."""


class SolverError(GlkitError):
    """Optimization-level failure."""


class InvalidWeight(DataError):
    """Negative edge weight where nonnegative weights are required."""


class BadIndex(DataError):
    """Vertex index outside [0, n)."""


class BadDimension(DataError):
    """Shape mismatch between operands."""


class BadK(DataError):
    """Count parameter outside its admissible range."""


class BadParameter(DataError):
    """Scalar parameter outside its admissible range."""


class BadInput(DataError):
    """Non-finite or otherwise unusable numeric input."""


class NotSymmetric(DataError):
    """Symmetric matrix expected."""


class WrongKind(DataError):
    """Shift operator of a different kind expected."""


class NotPositiveDefinite(DataError):
    """Positive definite matrix expected."""


class SingularCovariance(DataError):
    """Sample covariance is singular and no ridge fallback was requested."""


class SingularInputCovariance(DataError):
    """Input (excitation) covariance is singular."""


class TooFewSamples(DataError):
    """Not enough observations for the requested estimator."""


class CannotConnect(DataError):
    """Random-graph generator failed to produce a connected graph."""


class UnstableSEM(DataError):
    """Network-effect matrix has spectral radius >= 1."""


class NoMLE(SolverError):
    """Unpenalized maximum-likelihood estimate does not exist."""


class Infeasible(SolverError):
    """Constraint set is (numerically) empty for the given problem."""
