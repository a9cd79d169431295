import hashlib
import io
import math
import pickle
from datetime import timezone

import numpy as np
import pytest

from xnap.errors import InvalidSpec, NotACopyTask
from xnap.eventlog import Event, EventLog, Trace, compute_stats, serialize_log
from xnap.synthlog import (
    GrammarSpec,
    copy_task,
    generate,
    linear_grammar,
    oracle_relevant_position,
)


class TestLinearGrammar:
    def test_single_variant(self):
        log = generate(linear_grammar(["A", "B", "C"], 100, seed=1))
        assert len(log) == 100
        assert {t.activities for t in log} == {("A", "B", "C")}
        assert compute_stats(log).n_variants == 1

    def test_same_seed_identical(self):
        spec = linear_grammar(["A", "B"], 20, seed=9)
        assert generate(spec) == generate(spec)

    def test_timestamps_strictly_increase(self):
        log = generate(linear_grammar(["A", "B", "C", "D"], 10, seed=2))
        for trace in log:
            stamps = [e.timestamp for e in trace.events]
            assert all(a < b for a, b in zip(stamps, stamps[1:]))

    @pytest.mark.parametrize("activities, label", [
        (["A", "B", "A"], "A"), (["A", "B", "A", "C"], "A"), (["A", "B", "C", "C"], "C")])
    def test_repeated_activity_rejected(self, activities, label):
        # A label is one state, so a repeat would overwrite its successor.
        with pytest.raises(InvalidSpec, match=f"repeats activity '{label}'"):
            linear_grammar(activities, 5)

    def test_single_activity(self):
        assert {t.activities for t in generate(linear_grammar(["A"], 3))} == {("A",)}


class TestStochasticGrammar:
    def test_transition_frequencies_converge(self):
        spec = GrammarSpec(
            mode="markov", n_traces=2000, seed=3, start="A",
            transitions={
                "A": (("B", 0.7), ("C", 0.3)),
                "B": ((None, 1.0),),
                "C": ((None, 1.0),),
            })
        log = generate(spec)
        freq_b = sum(t.activities[1] == "B" for t in log) / len(log)
        sigma = math.sqrt(0.7 * 0.3 / len(log))
        assert abs(freq_b - 0.7) <= 3 * sigma

    def test_length_range_respected(self):
        spec = GrammarSpec(
            mode="markov", n_traces=200, seed=4, start="A",
            transitions={"A": (("A", 0.6), (None, 0.4))},
            min_length=2, max_length=5)
        log = generate(spec)
        assert all(2 <= len(t) <= 5 for t in log)

    def test_bad_probabilities_rejected(self):
        with pytest.raises(InvalidSpec):
            GrammarSpec(mode="markov", n_traces=1, seed=0, start="A",
                        transitions={"A": (("A", 0.5), (None, 0.4))})

    @pytest.mark.parametrize("bad, message", [
        (math.nan, "state 'a' has a negative or NaN probability"),
        (math.inf, "probabilities of state 'a' sum to inf"),
        (-math.inf, "probabilities of state 'a' sum to -inf"),
    ])
    def test_non_finite_probability_rejected(self, bad, message):
        # The sampler bisects a CDF, where a NaN would pass silently: the
        # spec is refused instead.
        with pytest.raises(InvalidSpec, match=message):
            GrammarSpec(mode="markov", n_traces=1, seed=0, start="a",
                        transitions={"a": ((None, 1.0), ("a", bad))})

    @pytest.mark.parametrize("make", [
        lambda seed: linear_grammar(["A", "B"], 5, seed=seed),
        lambda seed: copy_task(10, seed=seed)], ids=["markov", "copy"])
    def test_negative_seed_rejected(self, make):
        # numpy's default_rng refuses it with a bare ValueError at generate
        with pytest.raises(InvalidSpec, match="^seed must be >= 0, got -1$"):
            make(-1)
        assert generate(make(0)) == generate(make(0))  # seed 0 is the least accepted

    @pytest.mark.parametrize("n_traces, seed, name", [
        (10, 1.5, "seed"), (2.5, 0, "n_traces"), (10, True, "seed"), (True, 0, "n_traces"),
        (10, "1", "seed"), (10, np.float64(1.0), "seed")])
    def test_non_integer_count_or_seed_rejected(self, n_traces, seed, name):
        # As TrainConfig: a float or a bool is no integer, even when it equals one.
        with pytest.raises(InvalidSpec, match=f"^{name} must be an integer, got "):
            copy_task(n_traces, seed=seed)
        with pytest.raises(InvalidSpec, match=f"^{name} must be an integer, got "):
            linear_grammar(["A", "B"], n_traces, seed=seed)

    def test_numpy_integers_accepted(self):
        assert generate(copy_task(np.int64(10), seed=np.int64(3))) == \
            generate(copy_task(10, seed=3))

    @pytest.mark.parametrize("labels", [
        {"key_choices": ("X", 0)}, {"fillers": ("F1", None)}, {"key_targets": ("P", b"Q")}])
    def test_non_string_labels_rejected(self, labels):
        with pytest.raises(InvalidSpec, match="^activity labels must be non-empty strings$"):
            copy_task(10, **labels)

    def test_unreachable_terminal_rejected(self):
        with pytest.raises(InvalidSpec):
            GrammarSpec(mode="markov", n_traces=1, seed=0, start="A",
                        transitions={"A": (("B", 1.0),), "B": (("A", 1.0),)})


class TestCopyTask:
    def test_rule_holds_on_every_trace(self):
        spec = copy_task(300, seed=5)  # X->P, Y->Q at distance 3
        log = generate(spec)
        mapping = dict(zip(spec.key_choices, spec.key_targets))
        seen = set()
        for trace in log:
            acts = trace.activities
            assert len(acts) == 4
            assert acts[0] in mapping
            assert acts[3] == mapping[acts[0]]
            assert acts[1:3] == ("F1", "F2")
            seen.add(acts[0])
        assert seen == {"X", "Y"}  # both keys drawn

    def test_oracle_position(self):
        spec = copy_task(5, seed=6)
        log = generate(spec)
        assert oracle_relevant_position(spec, log.traces[0]) == 1

    def test_multi_key_variant(self):
        spec = copy_task(50, seed=7, key_choices=("X", "Y", "Z"),
                         key_targets=("P", "Q", "R"), key_position=2,
                         key_distance=2, fillers=("F",))
        log = generate(spec)
        mapping = dict(zip(spec.key_choices, spec.key_targets))
        for trace in log:
            acts = trace.activities
            assert acts[0] == "F"
            assert acts[3] == mapping[acts[1]]
        assert oracle_relevant_position(spec, log.traces[0]) == 2

    def test_not_a_copy_task(self):
        spec = linear_grammar(["A", "B"], 5, seed=8)
        log = generate(spec)
        with pytest.raises(NotACopyTask):
            oracle_relevant_position(spec, log.traces[0])

    def test_invalid_copy_specs(self):
        with pytest.raises(InvalidSpec):
            copy_task(10, key_choices=("X",), key_targets=("P", "Q"))
        with pytest.raises(InvalidSpec):
            copy_task(10, key_distance=3, fillers=())
        with pytest.raises(InvalidSpec):
            copy_task(10, fillers=("X",))  # collides with a key


# The benchmark's markov grammar, as in perfbench/workloads.py.
_HELPDESK = {
    "register": (("triage", 0.7), ("classify", 0.3)),
    "triage": (("assign", 0.6), ("classify", 0.3), ("reject", 0.1)),
    "classify": (("assign", 0.8), ("wait", 0.2)),
    "assign": (("work", 1.0),),
    "work": (("wait", 0.3), ("escalate", 0.15), ("resolve", 0.45), ("work", 0.1)),
    "wait": (("work", 0.7), ("escalate", 0.2), ("close", 0.1)),
    "escalate": (("assign", 0.5), ("work", 0.5)),
    "resolve": (("close", 0.6), ("reopen", 0.4)),
    "reopen": (("assign", 0.5), ("work", 0.5)),
    "reject": ((None, 1.0),),
    "close": ((None, 1.0),),
}


class TestSeededStream:
    """A seed names the same log bytes: the benchmark's three logs at seed 1."""

    @pytest.mark.parametrize("spec, digest", [
        (GrammarSpec(mode="markov", n_traces=2000, seed=1, start="register",
                     transitions=_HELPDESK, min_length=3, max_length=60), "1fc8f3a5f9567f59"),
        (copy_task(2000, seed=1, key_position=1, key_distance=3), "e5ad0f72470fcd53"),
        (linear_grammar(["A", "B", "C"], 200, seed=1), "5a40fe4c396a5b92"),
    ], ids=["markov", "copy", "linear"])
    def test_log_bytes_pinned(self, spec, digest):
        buf = io.StringIO()
        serialize_log(generate(spec), buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16] == digest


def checked_log(log: EventLog) -> EventLog:
    """``log`` rebuilt through the checked ``Event`` and ``Trace``
    constructors."""
    return EventLog(tuple(Trace(t.case_id, tuple(Event(e.case_id, e.activity, e.timestamp)
                                                 for e in t.events)) for t in log))


@pytest.mark.parametrize("spec", [
    GrammarSpec(mode="markov", n_traces=50, seed=2, start="register",
                transitions=_HELPDESK, min_length=3, max_length=60),
    copy_task(30, seed=2, key_position=2, key_distance=2, fillers=("F",)),
    linear_grammar(["A", "B", "C"], 20, seed=2)], ids=["markov", "copy", "linear"])
def test_generated_log_equals_the_checked_constructors(spec):
    # generate builds its events and traces without re-running their
    # checks: the same values, the same UTC tzinfo object, and they pickle
    # and compare like constructed ones.
    log = generate(spec)
    want = checked_log(log)
    assert log == want
    for got, ref in zip(log, want):
        assert got.activities == ref.activities
        assert all(e.timestamp.tzinfo is timezone.utc for e in got.events)
        assert [vars(e) for e in got.events] == [vars(e) for e in ref.events]
    again = pickle.loads(pickle.dumps(log))
    assert again == want and again.case_ids == log.case_ids
    assert [vars(e) for t in again for e in t.events] == \
        [vars(e) for t in want for e in t.events]
