"""Exception types shared across the package."""


class TreecutError(Exception):
    """Base class for all treecut-specific errors."""


class ConstraintViolation(TreecutError, ValueError):
    """Family parameters violate a structural constraint (e.g. d < 2)."""


class OutOfRange(TreecutError, ValueError):
    """An index (tree size, moment order) lies outside the computed table."""


class OverflowPolicyError(TreecutError):
    """Exact rational storage was requested past the configured bound."""


class DomainError(TreecutError, ValueError):
    """Parameter sits at (or numerically too close to) a pole of a formula."""


class NonIntegrable(TreecutError, ValueError):
    """Quadrature was requested outside the admissible index set."""


class MissingShift(TreecutError):
    """A centering coefficient is required but was neither given nor fittable."""


class IllConditioned(TreecutError, ArithmeticError):
    """A least-squares design matrix is numerically rank deficient."""


class ConfigError(TreecutError, ValueError):
    """Invalid experiment or CLI configuration."""
