"""Exception types shared across the package."""


class CodedUnlearnError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(CodedUnlearnError):
    """Operands have incompatible shapes."""


class SingularSystem(CodedUnlearnError):
    """Unregularized normal equations are numerically singular."""


class ParseError(CodedUnlearnError):
    """A CSV cell or row could not be parsed."""


class MissingColumn(CodedUnlearnError):
    """The requested response column does not exist."""


class BadSplitSize(CodedUnlearnError):
    """Train size must be strictly between 0 and the dataset size."""


class InvalidSpec(CodedUnlearnError):
    """A synthetic-data or sweep specification is inconsistent."""


class EmptyResult(CodedUnlearnError):
    """A filtering operation removed every sample."""


class DensityOutOfRange(CodedUnlearnError):
    """Generator-matrix density outside [1/r, 1) (exactly 1 when r = 1)."""


class NonTermination(CodedUnlearnError):
    """Resampling guard tripped before a valid generator matrix was found."""


class RankDeficient(CodedUnlearnError, ValueError):
    """Generator matrix is not of full column rank."""


class TooFewSamples(CodedUnlearnError):
    """Fewer training samples than uncoded shards."""


class UnknownSample(CodedUnlearnError):
    """Sample id is not part of the learned training set."""


class AlreadyUnlearned(CodedUnlearnError):
    """Sample id was unlearned previously."""


class SessionError(CodedUnlearnError):
    """A CLI session directory is missing, locked, or inconsistent."""
