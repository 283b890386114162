"""Exception types shared across the package."""


class NCX2ShapeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(NCX2ShapeError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceError(NCX2ShapeError, RuntimeError):
    """An iterative method exhausted its budget or cannot reach its tolerance."""


class BracketError(NCX2ShapeError, RuntimeError):
    """A sign-changing bracket for a root could not be established.

    The quantities bracketed here are proven to change sign exactly once,
    so this error indicates a bug in a lower layer, not bad user input.
    """


class InternalConsistencyError(NCX2ShapeError, RuntimeError):
    """Two mathematically equivalent evaluation routes disagreed."""
