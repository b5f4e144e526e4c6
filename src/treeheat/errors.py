"""Shared exception types.

Domain errors (bad arguments, out-of-range indices, malformed vertices) raise
plain ValueError; the classes here cover numerical failure modes that callers
may want to distinguish from usage errors.
"""


class NumericalError(RuntimeError):
    """A quadrature or tabulation did not reach the requested accuracy.

    err_estimate carries the achieved error estimate when one is available.
    """

    def __init__(self, message, err_estimate=None):
        super().__init__(message)
        self.err_estimate = err_estimate
