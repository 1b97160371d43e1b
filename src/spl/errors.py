"""Exception types shared across the package.

The CLI maps these onto exit codes: argument-shaped problems exit 1,
resource/range problems exit 2, failed verifications exit 3.
"""


class SplError(Exception):
    pass


class ArgumentError(SplError):
    """Malformed or out-of-domain argument (CLI exit 1)."""


class DegeneracyError(ArgumentError):
    """A shift system with vanishing invariant E."""


class DomainError(ArgumentError):
    """Numeric input outside the meaningful domain of a formula."""


class CapacityError(SplError):
    """Requested table exceeds the configured memory ceiling (CLI exit 2)."""


class RangeError(SplError):
    """Query beyond the coverage of a built table (CLI exit 2)."""


class BudgetError(RangeError):
    """Enumeration would exceed the configured node budget."""


class PrecisionError(SplError):
    """Grid too coarse for the requested accuracy (CLI exit 2)."""


class SolverError(SplError):
    """Root bracketing or iteration failed (CLI exit 2)."""


class VerificationError(SplError):
    """An identity or inequality assertion did not hold (CLI exit 3)."""
