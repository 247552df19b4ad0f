"""Exception types shared across the package."""


class EllipdwError(Exception):
    """Base class for all package-specific errors."""


class DomainError(EllipdwError):
    """Parameter outside the admissible domain (e.g. Im(tau) too small)."""


class ConvergenceError(EllipdwError):
    """Theta series failed to meet the stopping rule within the hard bound."""


class SingularityError(EllipdwError):
    """A sigma-denominator fell below the genericity floor."""


class SizeError(EllipdwError):
    """Requested system size exceeds a route's cost guard."""


class ParseError(EllipdwError):
    """Configuration document could not be parsed."""


class ValidationError(EllipdwError):
    """Configuration parsed but violates a guard."""


class ConditioningWarning(UserWarning):
    """Pivot growth in a determinant factorization indicates digit loss."""
