"""Exception types shared across the package."""


class MeritrankError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MeritrankError):
    """Invalid input data or configuration (CLI exit code 1)."""


class UndefinedStatisticError(MeritrankError):
    """A statistic is undefined for the given input (CLI exit code 2)."""


class AllocationError(ValidationError):
    """Funding cannot be allocated, e.g. every funded class has zero staff."""
