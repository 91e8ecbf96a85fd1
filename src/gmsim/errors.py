"""Exception types shared across the package.

Every error raised on purpose by this package derives from GmsimError, so
callers can catch one base class at the CLI boundary and map it to an exit
code. The subclasses mirror the distinct failure surfaces: bad user input,
families without densities, degenerate conditioning events, solver failure,
a violated admissibility condition, misaligned comparison grids, and
statistics requested on too little data.
"""


class GmsimError(Exception):
    """Base class for all errors raised by gmsim."""


class ConfigError(GmsimError):
    """A scenario file or CLI argument failed validation."""


class NotDifferentiable(GmsimError):
    """The noise family has no density, so a derivative-based quantity
    (the admissibility condition, the uniqueness constants) is undefined."""


class ZeroBuyProbability(GmsimError):
    """Conditioning on a buy whose probability is zero at the given price."""


class ZeroSellProbability(GmsimError):
    """Conditioning on a sell whose probability is zero at the given price."""


class NoConvergence(GmsimError):
    """An iterative solve exhausted its iteration budget. Under a passing
    admissibility check this cannot happen; seeing it usually means a
    precondition was forced past."""


class ConditionFailed(GmsimError):
    """The zero-profit admissibility condition does not hold (K >= 1 or a
    static-only family), so the requested operation has no guarantee."""


class GridMismatch(GmsimError):
    """A logged path or two belief paths could not be compared: the time
    grids, row counts or state counts do not fit, or a distance is not
    finite."""


class InsufficientData(GmsimError):
    """A statistical test was asked to run on too few paths or trades."""
