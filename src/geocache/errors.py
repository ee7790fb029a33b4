"""Exception hierarchy shared across the package."""


class GeocacheError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(GeocacheError, ValueError):
    """A model or config parameter violates its contract."""


class IntegrationError(GeocacheError, ArithmeticError):
    """Numerical integration failed to reach the requested accuracy.

    Carries the achieved error estimate in ``achieved_error``.
    """

    def __init__(self, message: str, achieved_error: float = float("nan")):
        super().__init__(message)
        self.achieved_error = achieved_error


class NumericalCancellationError(GeocacheError, ArithmeticError):
    """An alternating sum cancelled beyond the acceptable threshold.

    Raise integration effort (more nodes / points) to recover.
    """


class EnumerationBudgetError(GeocacheError, RuntimeError):
    """A brute-force search would exceed its hard enumeration budget."""


class ConvergenceError(GeocacheError, ArithmeticError):
    """An iterative solver stopped short of its convergence criterion."""
