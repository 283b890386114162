"""Exception types shared across the package."""


class NCX2ShapeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(NCX2ShapeError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceError(NCX2ShapeError, RuntimeError):
    """An iterative method exhausted its budget or cannot reach its tolerance."""


class InternalConsistencyError(NCX2ShapeError, RuntimeError):
    """Two equivalent evaluation routes disagreed, or a value broke a proven bound."""
