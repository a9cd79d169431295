"""Exception hierarchy shared by all xnap modules.

Every error raised on a documented failure path derives from ``XnapError``
so callers (and the CLI) can map failures to exit codes without matching
on message text.
"""


class XnapError(Exception):
    """Base class for all xnap errors."""


# --- input / parse errors -------------------------------------------------

class MissingColumn(XnapError):
    """A configured CSV column is absent from the header."""

    def __init__(self, column: str):
        super().__init__(f"missing column: {column!r}")
        self.column = column


class BadTimestamp(XnapError):
    """A timestamp cell could not be parsed."""

    def __init__(self, row: int, value: str):
        super().__init__(f"row {row}: cannot parse timestamp {value!r}")
        self.row = row
        self.value = value


class BadRow(XnapError):
    """A CSV row that cannot become an event: a missing field or an empty
    activity."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")


class NotUtf8(XnapError):
    """A log file whose bytes are not UTF-8 text."""

    def __init__(self, source: str):
        super().__init__(f"{source}: not UTF-8 text")


class EmptyLog(XnapError):
    """An event log with zero traces where at least one is required."""


class InvalidSpec(XnapError):
    """A synthetic-log grammar that violates its own invariants."""


class VersionMismatch(XnapError):
    """Model file written by an incompatible format version."""


class CorruptModel(XnapError):
    """Model file is unreadable or structurally broken."""


# --- domain guards --------------------------------------------------------

class ReservedLabelCollision(XnapError):
    """The end-of-trace symbol appears as a data activity label."""


class UnknownActivity(XnapError):
    """An activity label not present in the vocabulary."""

    def __init__(self, activity: str, case_id: str):
        super().__init__(f"unknown activity {activity!r} in case {case_id!r}")
        self.activity = activity
        self.case_id = case_id


class TraceTooShort(XnapError):
    """Running trace too short to predict on (needs at least two events)."""


class PrefixTooLong(XnapError):
    """A prefix exceeds the model's padding length."""


class EmptyDataset(XnapError):
    """A dataset with zero samples where training requires at least one."""


class TooFewTraces(XnapError):
    """Fewer traces than cross-validation folds."""


class NotACopyTask(XnapError):
    """Ground-truth key position requested from a grammar without one."""


# --- numeric errors -------------------------------------------------------

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
