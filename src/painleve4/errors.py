"""Exception types shared across the toolkit."""


class PainleveError(Exception):
    """Base class for all toolkit errors."""


class SingularInput(PainleveError):
    """An operation that divides by w (or needs w > 0) received w at the singularity."""


class InvalidInitialData(PainleveError):
    """Initial data violates its mode's constraints."""


class OutOfSpan(PainleveError):
    """Dense evaluation requested outside the covered span."""


class DiscriminantViolation(PainleveError):
    """A fitted quadratic failed its discriminant constraint, signalling an inconsistent input jet."""


class NegativeW(PainleveError):
    """w dipped below zero (beyond tolerance) where a square root is required."""


class MultipleZeros(PainleveError):
    """More than one zero found where a unique one is required."""


class WrongKind(PainleveError):
    """The trajectory's kind or parameters do not match the check's preconditions."""
