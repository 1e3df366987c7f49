"""Exception hierarchy shared across the package."""


class KwslabError(Exception):
    """Base class for all package errors; the CLI exits 2 on one."""


class InvalidInputError(KwslabError):
    """Base class for errors in what the user supplied; the CLI exits 1 on one."""


class EventsParseError(InvalidInputError):
    """Malformed events file content; carries the offending line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ValidationError(InvalidInputError):
    """A domain object violates one of its invariants."""


class MissingKeywordError(InvalidInputError):
    """A requested keyword never occurs in the corpus."""

    def __init__(self, keyword):
        super().__init__(f"keyword {keyword!r} has no occurrences in the corpus")
        self.keyword = keyword


class InfeasibleTaskError(InvalidInputError):
    """The corpus cannot support the requested task (e.g. too few positive sessions)."""


class InfeasibleSamplerError(InvalidInputError):
    """Batch construction is impossible (an entire class is empty)."""


class DimensionError(KwslabError):
    """Tensor shapes are incompatible with the requested operation."""


class GradientStateError(KwslabError):
    """Backward pass requested in an invalid autodiff state."""


class CheckpointError(InvalidInputError):
    """Checkpoint file is malformed or does not match the requesting config."""


class UndefinedMetricError(InvalidInputError):
    """The metric is undefined on the given scored set (e.g. no positives)."""


class UndefinedOperatingPointError(InvalidInputError):
    """Operating-point translation is undefined (precision zero / empty inputs)."""


class TrainingDivergedError(KwslabError):
    """Training aborted on a non-finite loss; carries a diagnostic record."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record or {}


class ConfigError(InvalidInputError):
    """Run configuration is malformed, has unknown keys, or references missing files."""
