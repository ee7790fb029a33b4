"""Exception hierarchy shared across the package."""


class GeocacheError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(GeocacheError, ValueError):
    """A model or config parameter violates its contract."""


class IntegrationError(GeocacheError, ArithmeticError):
    """Numerical integration failed to reach the requested accuracy.

    The message states the achieved error estimate.
    """


class NumericalCancellationError(GeocacheError, ArithmeticError):
    """An alternating sum carries more propagated error than it may.

    ``sinr_coverage`` raises it when the error estimate of some p_k,
    sum_n C(n,k) err(S_n), exceeds the fixed ``coverage.PMF_ERR_LIMIT``.
    """
