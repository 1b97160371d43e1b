"""Exception types shared across the package: one class per CLI exit code.

`ArgumentError` (exit 1) is a malformed or out-of-domain argument,
`RangeError` (exit 2) a query past a ceiling, budget or built table, and
`VerificationError` (exit 3) an identity or inequality that did not hold.
"""


class SplError(Exception):
    pass


class ArgumentError(SplError):
    """Malformed or out-of-domain argument (CLI exit 1)."""


class RangeError(SplError):
    """Query past a ceiling, budget or table coverage (CLI exit 2)."""


class VerificationError(SplError):
    """An identity or inequality assertion did not hold (CLI exit 3)."""
