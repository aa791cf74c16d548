"""Exception hierarchy shared by all modules."""


class CalcError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(CalcError):
    """An argument is outside the documented domain of an operation."""


class UnsupportedModeError(CalcError):
    """The operation is not defined in the current field mode."""


class UnsupportedCartanError(CalcError):
    """The Cartan pair falls outside the exactly representable cases."""


class CapExceededError(CalcError):
    """A computation in an infinite algebra ran past the configured degree cap."""


class UndefinedSumError(CalcError):
    """Attempted infinity + infinity in a pre-ring coefficient."""


class DomainError(CalcError):
    """A geometric query was made at a point where it is undefined."""


class BudgetExceededError(CalcError):
    """A request exceeded the command line's work budget."""


class VerificationError(CalcError):
    """An internal certified check failed."""
