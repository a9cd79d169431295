"""Property tests: writing a log to CSV and reading it back gives the same
log, for arbitrary case ids, labels and timestamps; timestamps parse and
print as the ``replace``/``astimezone`` oracles do; and the logs and
samples built without the constructors' checks equal the checked ones."""
import csv
import io
import pickle
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from xnap.encoding import PrefixSample, build_vocabulary, encode_running_trace
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


# Few case ids and few distinct times, so that cases interleave and times tie.
_CASES = st.sampled_from(["c1", "c2", "c3", "c4"])
_TIED_TIMES = st.sampled_from([datetime(1999, 12, 31, 23, 30), datetime(2000, 1, 1),
                               datetime(2000, 1, 1, 0, 0, 30, 250000), datetime(2024, 2, 29, 9)])


@st.composite
def checked_rows(draw):
    """Log rows stamped one way (naive, Z, +-hh:mm or a strptime format),
    with each row's time as a ``datetime`` read from its stamp but not yet
    converted to UTC."""
    style = draw(st.sampled_from(["naive", "Z", "offset", "format"]))
    fmt, with_offset = draw(st.sampled_from(_FORMATS)) if style == "format" else (None, False)
    sep = draw(st.sampled_from(" T"))
    rows = []
    for _ in range(draw(st.integers(1, 14))):
        ts = draw(_TIED_TIMES | _TIMES)
        if style == "offset" or with_offset:
            ts = ts.replace(tzinfo=draw(_OFFSETS))
        if fmt is not None:
            stamp = ts.strftime(fmt)
            read = datetime.strptime(stamp, fmt)
        else:
            stamp = ts.isoformat(sep=sep) + ("Z" if style == "Z" else "")
            read = ts.replace(tzinfo=timezone.utc) if style == "Z" else ts
        rows.append((draw(_CASES), draw(st.sampled_from("ABC")), stamp, read))
    return fmt, rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=checked_rows(), pad=st.integers(0, 3))
def test_builds_equal_the_checked_constructors(case, pad):
    """``parse_log`` and ``encode_running_trace`` skip the checks of the
    public constructors, and build what those build."""
    fmt, rows = case
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(
        [("case", "activity", "timestamp"), *(row[:3] for row in rows)])
    log = parse_log(io.StringIO(text.getvalue()), LogFormat(timestamp_format=fmt))

    groups = {}
    for c, a, _, read in rows:
        groups.setdefault(c, []).append(Event(c, a, read))
    expected = EventLog(tuple(Trace(c, tuple(sorted(events, key=lambda e: e.timestamp)))
                              for c, events in groups.items()))
    assert log == expected
    assert log.case_ids == expected.case_ids
    for trace, want in zip(log, expected):
        assert trace.activities == tuple(e.activity for e in want.events)
        for event, built in zip(trace.events, want.events):
            assert event.timestamp.tzinfo is timezone.utc
            assert list(vars(event)) == list(vars(built))  # the same attribute layout
    assert pickle.loads(pickle.dumps(log)) == log

    vocab = build_vocabulary(log)
    for trace in log:
        if len(trace) < 2:
            continue
        m = len(trace) - 1 + pad
        sample = encode_running_trace(trace, vocab, m)
        indices = [vocab.index_of(a) for a in trace.activities]
        events = np.full(max(m, len(trace)), vocab.size, dtype=np.int64)
        events[len(events) - len(indices):] = indices
        checked = PrefixSample(events, len(trace), None, trace.case_id, vocab.size)
        for built in (sample, pickle.loads(pickle.dumps(sample))):
            assert np.array_equal(built.events, checked.events)
            assert built.events.dtype == checked.events.dtype
            assert (built.true_length, built.label_index, built.case_id, built.n_classes) == (
                checked.true_length, checked.label_index, checked.case_id, checked.n_classes)
        assert list(vars(sample)) == list(vars(checked))
