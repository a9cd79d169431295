"""Property tests: writing a log to CSV and reading it back gives the same
log, for arbitrary case ids, labels and timestamps; and timestamps parse
and print as the ``replace``/``astimezone`` oracles do."""
import csv
import io
from datetime import datetime, timedelta, timezone

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from xnap.eventlog import Event, EventLog, LogFormat, Trace, parse_log, serialize_log

from oracles import format_timestamp_utc, parse_timestamp_utc

# Printable text plus the characters CSV has to quote: commas, double
# quotes and spaces.
_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc")) | st.sampled_from(',"\' '),
                min_size=1, max_size=12)
_TIMES = st.datetimes(min_value=datetime(1900, 1, 1), max_value=datetime(2100, 1, 1))


@st.composite
def event_logs(draw):
    cases = draw(st.lists(_TEXT, min_size=1, max_size=5, unique=True))
    traces = []
    for case in cases:
        events = draw(st.lists(st.tuples(_TEXT, _TIMES), min_size=1, max_size=6))
        events.sort(key=lambda e: e[1])  # stable, like parse_log: ties keep their order
        traces.append(Trace(case, tuple(Event(case, a, ts) for a, ts in events)))
    return EventLog(tuple(traces))


@settings(max_examples=150, deadline=None)
@given(log=event_logs())
def test_parse_inverts_serialize(log):
    buf = io.StringIO()
    serialize_log(log, buf)
    assert parse_log(io.StringIO(buf.getvalue())) == log


# (strptime format, whether it carries an offset) for --time-format.
_FORMATS = [("%d/%m/%Y %H:%M:%S", False), ("%Y-%m-%d %H:%M:%S.%f", False),
            ("%Y-%m-%dT%H:%M:%S%z", True)]
_OFFSETS = st.integers(-23 * 60 - 59, 23 * 60 + 59).map(
    lambda m: timezone(timedelta(minutes=m)))


@st.composite
def stamped_rows(draw):
    """CSV rows whose timestamps are all written one way: naive ISO with
    ' ' or 'T', a trailing Z, +hh:mm offsets, or a strptime format."""
    style = draw(st.sampled_from(["naive", "Z", "offset", "format"]))
    fmt, with_offset = draw(st.sampled_from(_FORMATS)) if style == "format" else (None, False)
    sep = draw(st.sampled_from(" T"))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        ts = draw(_TIMES)
        if draw(st.booleans()):
            ts = ts.replace(microsecond=0)  # isoformat then omits the fraction
        if style == "naive":
            stamp = ts.isoformat(sep=sep)
        elif style == "Z":
            stamp = ts.isoformat(sep=sep) + draw(st.sampled_from("Zz"))
        elif style == "offset":
            stamp = ts.replace(tzinfo=draw(_OFFSETS)).isoformat(sep=sep)
        else:
            stamp = (ts.replace(tzinfo=draw(_OFFSETS)) if with_offset else ts).strftime(fmt)
        rows.append((draw(st.sampled_from(["c1", "c2", "c3"])),
                     draw(st.sampled_from("AB")), stamp))
    return fmt, rows


@settings(max_examples=200, deadline=None)
@given(case=stamped_rows())
def test_timestamps_match_round_trip_oracle(case):
    fmt, rows = case
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([("case", "activity", "timestamp"), *rows])
    log = parse_log(io.StringIO(text.getvalue()), LogFormat(timestamp_format=fmt))

    groups = {}
    for c, a, stamp in rows:
        groups.setdefault(c, []).append(Event(c, a, parse_timestamp_utc(stamp, fmt)))
    expected = EventLog(tuple(Trace(c, tuple(sorted(events, key=lambda e: e.timestamp)))
                              for c, events in groups.items()))
    assert log == expected
    assert all(e.timestamp.tzinfo is timezone.utc for t in log for e in t.events)

    out, oracle = io.StringIO(), io.StringIO()
    serialize_log(log, out)
    csv.writer(oracle, lineterminator="\n").writerows(
        [("case", "activity", "timestamp"),
         *((e.case_id, e.activity, format_timestamp_utc(e.timestamp))
           for t in expected for e in t.events)])
    assert out.getvalue() == oracle.getvalue()
