"""Event-log ingestion: parse CSV logs, validate and order traces, summarize.

An event is a (case id, activity, timestamp) record; a trace is the
time-ordered, non-empty event sequence of one case; a log is a collection of
traces with unique case ids. All types are immutable after construction.
"""
from __future__ import annotations

import csv
import functools
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, TextIO, Union

import numpy as np

from .errors import BadRow, BadTimestamp, EmptyLog, MissingColumn, NotUtf8, UnknownCase

Source = Union[str, Path, TextIO]  # a path or a text stream

# Shifting a timestamp by its distance from one of these epochs to the other
# keeps its wall time and swaps naive for UTC, at a fraction of the cost of
# ``replace(tzinfo=...)``.
_UTC_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_NAIVE_EPOCH = datetime(1970, 1, 1)


def _utc(ts: datetime) -> datetime:
    """``ts`` in UTC, a naive time read as UTC; ``OverflowError`` when an
    offset moves it out of years 1-9999."""
    if ts.tzinfo is None:
        return _UTC_EPOCH + (ts - _NAIVE_EPOCH)
    return ts.astimezone(timezone.utc)


@functools.cache
def _trusted(cls):
    """A function that builds the frozen dataclass ``cls`` from its fields,
    in declaration order, without ``__post_init__``: for callers that have
    made its checks already. Like the generated ``__init__`` it sets each
    field with ``object.__setattr__``, in order, so the instance keeps the
    class's attribute layout and reads as fast as a constructed one. It is
    generated per class because a loop over the fields cost more than the
    checks it skips."""
    names = cls.__match_args__  # the ``__init__`` parameters, in order
    source = "".join([f"def build({', '.join(names)}):\n",
                      "    obj = new_object(cls)\n",
                      *(f"    set_field(obj, {name!r}, {name})\n" for name in names),
                      "    return obj\n"])
    scope = {"new_object": object.__new__, "set_field": object.__setattr__, "cls": cls}
    exec(source, scope)
    return scope["build"]


@dataclass(frozen=True)
class Event:
    case_id: str
    activity: str
    timestamp: datetime

    def __post_init__(self):
        if not self.case_id:
            raise ValueError("event case id must be non-empty")
        if not self.activity:
            raise ValueError("event activity must be non-empty")
        if self.timestamp.tzinfo is not timezone.utc:
            object.__setattr__(self, "timestamp", _utc(self.timestamp))


@dataclass(frozen=True)
class Trace:
    case_id: str
    events: tuple[Event, ...]

    def __post_init__(self):
        if not self.events:
            raise ValueError(f"trace {self.case_id!r} has no events")
        for e in self.events:
            if e.case_id != self.case_id:
                raise ValueError(f"event case {e.case_id!r} inside trace {self.case_id!r}")
        times = [e.timestamp for e in self.events]
        if any(a > b for a, b in zip(times, times[1:])):
            raise ValueError(f"trace {self.case_id!r} events are not in timestamp order")

    def __len__(self) -> int:
        return len(self.events)

    @cached_property
    def activities(self) -> tuple[str, ...]:
        """The activity labels in event order, built on first read."""
        return tuple(e.activity for e in self.events)


@dataclass(frozen=True)
class EventLog:
    traces: tuple[Trace, ...]
    case_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _by_case: dict[str, Trace] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_case = {}
        for t in self.traces:
            if t.case_id in by_case:
                raise ValueError(f"duplicate case id {t.case_id!r}")
            by_case[t.case_id] = t
        object.__setattr__(self, "case_ids", tuple(by_case))
        object.__setattr__(self, "_by_case", by_case)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

    def trace_by_case(self, case_id: str) -> Trace:
        try:
            return self._by_case[case_id]
        except KeyError:
            raise UnknownCase(case_id) from None

    def select_cases(self, case_ids: Iterable[str]) -> "EventLog":
        """Sub-log with the given cases, in the given order."""
        return EventLog(tuple(map(self.trace_by_case, case_ids)))

    def n_events(self) -> int:
        return sum(len(t) for t in self.traces)

    def activity_labels(self) -> set[str]:
        return {e.activity for t in self.traces for e in t.events}


@dataclass(frozen=True)
class LogFormat:
    """Column mapping and timestamp convention for CSV logs."""
    case_col: str = "case"
    activity_col: str = "activity"
    time_col: str = "timestamp"
    timestamp_format: str | None = None  # None: ISO-8601 / "YYYY-MM-DD HH:MM:SS"
    delimiter: str = ","

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be one character, got {self.delimiter!r}")


@dataclass(frozen=True)
class LogStats:
    """Table-style log summary; per-instance tuples are (min, max, mean, median)."""
    n_instances: int
    n_variants: int
    n_events: int
    n_activities: int
    events_per_instance: tuple[int, int, float, float]
    activities_per_instance: tuple[int, int, float, float]


def _parse_timestamp(raw: str, fmt: str | None, row: int) -> datetime:
    """``raw`` as a UTC time; a naive one is read as UTC."""
    text = raw.strip()
    try:
        if fmt is not None:
            ts = datetime.strptime(text, fmt)
        else:
            # fromisoformat covers "YYYY-MM-DD HH:MM:SS" plus ISO-8601 with
            # fractional seconds and offsets; map a trailing Z ourselves (3.10).
            if text.endswith(("Z", "z")):
                text = text[:-1] + "+00:00"
            ts = datetime.fromisoformat(text)
        return ts if ts.tzinfo is timezone.utc else _utc(ts)
    except (ValueError, OverflowError):  # an offset may move the time out of years 1-9999
        raise BadTimestamp(row, raw) from None


def _lines(f: TextIO) -> Iterator[str]:
    """The lines of ``f``, refusing a NUL character as Python 3.10's csv
    does (3.11's reads it as text)."""
    for line_num, line in enumerate(f, 1):
        if "\0" in line:
            raise BadRow(line_num, "line contains NUL")
        yield line


def parse_log(source: Source, fmt: LogFormat = LogFormat()) -> EventLog:
    """Read a CSV event log and group it into timestamp-ordered traces.

    Traces appear in order of first occurrence of their case id; within a
    case, events are stably sorted by timestamp, so ties keep file order.
    A path is opened and closed here, and a UTF-8 byte-order mark at its
    start is dropped; a text stream is left open. A row with fewer fields
    than the header, an empty case id or activity, a NUL character or a
    field the csv module rejects (one longer than ``csv.field_size_limit()``)
    raises :class:`BadRow`, a file that is not UTF-8 :class:`NotUtf8`, and a
    timestamp that cannot be read, or whose UTC time falls outside years
    1-9999, :class:`BadTimestamp`. ``BadRow`` and ``BadTimestamp`` name the
    1-based file line, counting blank lines and the lines of quoted
    multi-line fields.
    """
    own = isinstance(source, (str, Path))
    with open(source, "r", encoding="utf-8-sig", newline="") if own else nullcontext(source) as f:
        try:
            reader = csv.reader(_lines(f), delimiter=fmt.delimiter)
            header = next(reader, [])
            wanted = (fmt.case_col, fmt.activity_col, fmt.time_col)
            for col in wanted:
                if col not in header:
                    raise MissingColumn(col)
            column = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
            ci, ai, ti = (column[col] for col in wanted)
            needed = max(ci, ai, ti) + 1

            groups: dict[str, list[Event]] = {}
            event = _trusted(Event)
            for row in reader:
                if not row:  # a blank line
                    continue
                if len(row) < needed:
                    raise BadRow(reader.line_num,
                                 f"{len(row)} fields, the header has {len(header)}")
                case, activity, stamp = row[ci], row[ai], row[ti]
                if not case:
                    raise BadRow(reader.line_num, "empty case id")
                if not activity:
                    raise BadRow(reader.line_num, "empty activity")
                ts = _parse_timestamp(stamp, fmt.timestamp_format, reader.line_num)
                groups.setdefault(case, []).append(event(case, activity, ts))
        except UnicodeDecodeError:
            raise NotUtf8(str(getattr(f, "name", "the log"))) from None
        except csv.Error as exc:
            raise BadRow(reader.line_num, str(exc)) from None

    if not groups:
        raise EmptyLog("log has no traces")
    # The row loop has checked what Event and Trace would: non-empty fields,
    # UTC times, and one case per group; the sort orders each group.
    trace = _trusted(Trace)
    traces = []
    for case, events in groups.items():
        events.sort(key=attrgetter("timestamp"))  # stable: file order on ties
        traces.append(trace(case, tuple(events)))
    return EventLog(tuple(traces))


def serialize_log(log: EventLog, sink: Source) -> None:
    """Write a log back to CSV in the default :class:`LogFormat` layout
    (UTC timestamps, traces in log order)."""
    own = isinstance(sink, (str, Path))
    with open(sink, "w", encoding="utf-8", newline="") if own else nullcontext(sink) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["case", "activity", "timestamp"])
        writer.writerows((e.case_id, e.activity,
                          (_NAIVE_EPOCH + (e.timestamp - _UTC_EPOCH)).isoformat(sep=" "))
                         for trace in log for e in trace.events)


def compute_stats(log: EventLog) -> LogStats:
    """Summary counts for a log; means rounded to one decimal."""
    if len(log) == 0:
        raise EmptyLog("cannot compute stats of an empty log")
    lengths = [len(t) for t in log]
    distinct = [len(set(t.activities)) for t in log]
    variants = {t.activities for t in log}

    def spread(values: list[int]) -> tuple[int, int, float, float]:
        return (min(values), max(values),
                round(sum(values) / len(values), 1),
                float(statistics.median(values)))

    return LogStats(
        n_instances=len(log),
        n_variants=len(variants),
        n_events=sum(lengths),
        n_activities=len(log.activity_labels()),
        events_per_instance=spread(lengths),
        activities_per_instance=spread(distinct),
    )


def filter_log(log: EventLog, max_trace_len: int | None = None,
               sample_fraction: float = 1.0, seed: int = 0) -> EventLog:
    """Drop over-long traces, then keep a seeded uniform sample of the rest.

    The sampled trace count is floor(fraction * remaining); original log
    order is preserved among the kept traces. May return an empty log.
    """
    if not 0 < sample_fraction <= 1:
        raise ValueError(f"sample_fraction must be in (0, 1], got {sample_fraction}")
    kept = [t for t in log if max_trace_len is None or len(t) <= max_trace_len]
    if sample_fraction < 1.0:
        n_keep = int(len(kept) * sample_fraction)
        rng = np.random.default_rng(seed)
        chosen = sorted(rng.permutation(len(kept))[:n_keep])
        kept = [kept[i] for i in chosen]
    return EventLog(tuple(kept))
