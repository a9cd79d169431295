"""Exception hierarchy shared by all xnap modules.

Every error raised on a documented failure path derives from ``XnapError``.
Its base class picks the CLI exit code, so callers map failures without
matching on message text: ``InputError`` 2, ``DomainError`` 3, any other
``XnapError`` 4.
"""
import copyreg


class XnapError(Exception):
    """Base class for all xnap errors."""

    def __reduce__(self):
        # Unpickle without calling __init__: a subclass's constructor takes
        # other arguments than the message it stores in ``args``.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InputError(XnapError):
    """An input that cannot be read as what it claims to be: a log, a model
    file, a grammar (CLI exit code 2)."""


class DomainError(XnapError):
    """A readable input the task cannot run on (CLI exit code 3)."""


# --- input / parse errors -------------------------------------------------

class MissingColumn(InputError):
    """A configured CSV column is absent from the header."""

    def __init__(self, column: str):
        super().__init__(f"missing column: {column!r}")
        self.column = column


class BadTimestamp(InputError):
    """A timestamp cell could not be parsed."""

    def __init__(self, row: int, value: str):
        super().__init__(f"row {row}: cannot parse timestamp {value!r}")
        self.row = row
        self.value = value


class BadRow(InputError):
    """A CSV row that cannot become an event: a missing field or an empty
    activity."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")


class NotUtf8(InputError):
    """A log file whose bytes are not UTF-8 text."""

    def __init__(self, source: str):
        super().__init__(f"{source}: not UTF-8 text")


class EmptyLog(InputError):
    """An event log with zero traces where at least one is required."""


class InvalidSpec(InputError):
    """A synthetic-log grammar that violates its own invariants."""


class VersionMismatch(InputError):
    """Model file written by an incompatible format version."""


class CorruptModel(InputError):
    """Model file is unreadable or structurally broken."""


class UnknownCase(InputError, KeyError):
    """A case id the log does not hold."""

    __str__ = Exception.__str__  # KeyError's would quote the whole message

    def __init__(self, case_id: str):
        super().__init__(f"unknown case id {case_id!r}")
        self.case_id = case_id


# --- domain guards --------------------------------------------------------

class ReservedLabelCollision(DomainError):
    """The end-of-trace symbol appears as a data activity label."""


class UnknownActivity(DomainError):
    """An activity label not present in the vocabulary."""

    def __init__(self, activity: str, case_id: str):
        super().__init__(f"unknown activity {activity!r} in case {case_id!r}")
        self.activity = activity
        self.case_id = case_id


class TraceTooShort(DomainError):
    """Running trace too short to predict on (needs at least two events)."""


class PrefixTooLong(DomainError):
    """A prefix exceeds the model's padding length."""


class EmptyDataset(DomainError):
    """A dataset with zero samples where training requires at least one."""


class TooFewTraces(DomainError):
    """Fewer traces than cross-validation folds."""


class NotACopyTask(DomainError):
    """Ground-truth key position requested from a grammar without one."""


# --- internal (numeric) errors ------------------------------------------

class ShapeMismatch(XnapError, ValueError):
    """Operand dimensions do not agree."""


class NonFiniteInput(XnapError, ValueError):
    """NaN or infinity where finite numbers are required."""


class NonFiniteLoss(XnapError):
    """Training loss diverged to NaN or infinity."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


class LengthMismatch(XnapError, ValueError):
    """Paired sequences of different lengths."""
