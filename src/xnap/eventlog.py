"""Event-log ingestion: parse CSV logs, validate and order traces, summarize.

An event is a (case id, activity, timestamp) record; a trace is the
time-ordered, non-empty event sequence of one case; a log is a collection of
traces with unique case ids. All types are immutable after construction.
"""
from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, TextIO, Union

import numpy as np

from .errors import BadTimestamp, EmptyLog, MissingColumn

Source = Union[str, Path, TextIO]  # a path or a text stream


@dataclass(frozen=True)
class Event:
    case_id: str
    activity: str
    timestamp: datetime

    def __post_init__(self):
        if not self.activity:
            raise ValueError("event activity must be non-empty")
        if self.timestamp.tzinfo is None:
            object.__setattr__(self, "timestamp", self.timestamp.replace(tzinfo=timezone.utc))
        else:
            object.__setattr__(self, "timestamp", self.timestamp.astimezone(timezone.utc))


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

    @property
    def activities(self) -> tuple[str, ...]:
        return tuple(e.activity for e in self.events)


@dataclass(frozen=True)
class EventLog:
    traces: tuple[Trace, ...]

    def __post_init__(self):
        seen = set()
        for t in self.traces:
            if t.case_id in seen:
                raise ValueError(f"duplicate case id {t.case_id!r}")
            seen.add(t.case_id)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

    @property
    def case_ids(self) -> tuple[str, ...]:
        return tuple(t.case_id for t in self.traces)

    def trace_by_case(self, case_id: str) -> Trace:
        for t in self.traces:
            if t.case_id == case_id:
                return t
        raise KeyError(case_id)

    def select_cases(self, case_ids: Iterable[str]) -> "EventLog":
        """Sub-log with the given cases, in the given order."""
        by_id = {t.case_id: t for t in self.traces}
        return EventLog(tuple(by_id[c] for c in case_ids))

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
    text = raw.strip()
    try:
        if fmt is not None:
            return datetime.strptime(text, fmt)
        # fromisoformat covers "YYYY-MM-DD HH:MM:SS" plus ISO-8601 with
        # fractional seconds and offsets; map a trailing Z ourselves (3.10).
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        return datetime.fromisoformat(text)
    except ValueError:
        raise BadTimestamp(row, raw) from None


def parse_log(source: Source, fmt: LogFormat = LogFormat()) -> EventLog:
    """Read a CSV event log and group it into timestamp-ordered traces.

    Traces appear in order of first occurrence of their case id; within a
    case, events are stably sorted by timestamp, so ties keep file order.
    A path is opened and closed here; a text stream is left open.
    """
    own = isinstance(source, (str, Path))
    f = open(source, "r", encoding="utf-8", newline="") if own else source
    try:
        reader = csv.DictReader(f, delimiter=fmt.delimiter)
        header = reader.fieldnames or []
        for col in (fmt.case_col, fmt.activity_col, fmt.time_col):
            if col not in header:
                raise MissingColumn(col)

        groups: dict[str, list[Event]] = {}
        for i, row in enumerate(reader, start=2):  # header is row 1
            case = row[fmt.case_col]
            ts = _parse_timestamp(row[fmt.time_col], fmt.timestamp_format, i)
            groups.setdefault(case, []).append(Event(case, row[fmt.activity_col], ts))
    finally:
        if own:
            f.close()

    if not groups:
        raise EmptyLog("log has no traces")
    traces = []
    for case, events in groups.items():
        events.sort(key=lambda e: e.timestamp)  # stable: file order on ties
        traces.append(Trace(case, tuple(events)))
    return EventLog(tuple(traces))


def serialize_log(log: EventLog, sink: Source) -> None:
    """Write a log back to CSV in the default :class:`LogFormat` layout
    (UTC timestamps, traces in log order)."""
    own = isinstance(sink, (str, Path))
    f = open(sink, "w", encoding="utf-8", newline="") if own else sink
    try:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["case", "activity", "timestamp"])
        for trace in log:
            for e in trace.events:
                stamp = e.timestamp.astimezone(timezone.utc).replace(tzinfo=None)
                writer.writerow([e.case_id, e.activity, stamp.isoformat(sep=" ")])
    finally:
        if own:
            f.close()


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
