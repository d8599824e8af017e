"""Exception hierarchy for the quintic solver.

Every failure mode is a distinct class so callers can react to precise
conditions (degenerate eliminations, branch points, precision exhaustion)
instead of parsing messages.
"""


class QuinticError(Exception):
    """Base class for all solver errors."""


class ParseError(QuinticError):
    """Malformed complex literal. Carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ZeroToNegativePower(QuinticError):
    """0 raised to a negative rational power."""


class OverflowEscape(QuinticError):
    """A non-finite value (NaN/inf) escaped an arithmetic operation."""


class NotARoot(QuinticError):
    """Deflation was asked to remove a point that is not a root."""


class DegenerateLeading(QuinticError):
    """A solved-for equation lost every usable leading coefficient."""


class DegenerateCubic(QuinticError):
    """Cubic solve requested with a vanishing cubic coefficient."""


class ResolventFailure(QuinticError):
    """No resolvent-cubic root yields a residual-passing quartic split."""


class AmbiguousSelection(QuinticError):
    """Quartic-root selection could not separate the quintic root.

    Carries the four candidate residual magnitudes for diagnosis; usually a
    near-multiple-root quintic.
    """

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class SeriesOutOfRange(QuinticError):
    """Hypergeometric series evaluated outside its convergence regime."""


class SeriesDivergence(QuinticError):
    """Series failed to converge within the term budget."""


class NearBranchPoint(QuinticError):
    """Bring parameter is numerically on top of a branch point (double root)."""


class StepLimitExceeded(QuinticError):
    """Analytic continuation exceeded its step budget."""


class NoConvergence(QuinticError):
    """Iterative root finder exhausted its iteration budget."""


class ShiftLadderExhausted(QuinticError):
    """Every pre-shift attempt left the elimination degenerate."""


class PrecisionExhausted(QuinticError):
    """A vanishing or verification check failed at the working precision.

    ``solve_quintic`` retries on it at 2x and 4x precision and raises it
    again once the 4x attempt fails too.
    """


class StageError(QuinticError):
    """Wraps an error with the pipeline stage it occurred in."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause
