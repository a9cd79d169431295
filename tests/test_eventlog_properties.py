"""Property test: writing a log to CSV and reading it back gives the same
log, for arbitrary case ids, labels and timestamps."""
import io
from datetime import datetime

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from xnap.eventlog import Event, EventLog, Trace, parse_log, serialize_log

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
