import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from xnap.eventlog import Event, EventLog, Trace


def make_trace(case_id: str, activities, start_minute: int = 0) -> Trace:
    base = datetime(2024, 1, 1, tzinfo=timezone.utc) + timedelta(minutes=start_minute)
    events = tuple(Event(case_id, a, base + timedelta(seconds=i))
                   for i, a in enumerate(activities))
    return Trace(case_id, events)


def make_log(variants) -> EventLog:
    """Build a log from a list of activity sequences; case ids are positional."""
    return EventLog(tuple(make_trace(f"c{i}", acts, start_minute=i)
                          for i, acts in enumerate(variants)))


@pytest.fixture
def abc_log() -> EventLog:
    return make_log([["A", "B"], ["A", "B"], ["A", "C", "B"]])


@pytest.fixture(autouse=True, scope="session")
def shared_steps_at_any_size():
    """The tests' models are small: let inference share steps at every
    hidden size, so that the sharing paths run under the 1e-12 oracles.
    ``TestSharedSteps.test_small_models_share_no_step`` checks the size
    gate itself."""
    from xnap import bilstm
    size, bilstm._SHARED_HIDDEN = bilstm._SHARED_HIDDEN, 0
    yield
    bilstm._SHARED_HIDDEN = size
