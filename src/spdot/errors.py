"""Exception hierarchy shared by all spdot modules."""


class SpdotError(Exception):
    """Base class for all spdot errors.

    ``pipeline_step`` is set by the adaptation pipeline when an error is
    re-raised with context about which stage failed.
    """

    pipeline_step: str | None = None


class InvalidInput(SpdotError, ValueError):
    """An argument violates a documented precondition."""


class NotPositiveDefinite(SpdotError, ValueError):
    """A matrix that must be SPD has an eigenvalue at or below the floor."""


class NumericalFailure(SpdotError, ArithmeticError):
    """A numerical routine produced unusable values (no eigensolve)."""


class ConvergenceFailure(SpdotError, RuntimeError):
    """An iterative solver stopped before reaching its tolerance.

    Carries the last iterate, the residual at which iteration stopped and
    the number of iterations run, so callers can inspect or resume.
    """

    def __init__(self, message, last=None, residual=None, iterations=None):
        super().__init__(message)
        self.last = last
        self.residual = residual
        self.iterations = iterations

