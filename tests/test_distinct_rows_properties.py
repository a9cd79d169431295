"""Property tests of distinct rows: a call that holds a row more than once
(the same true length and events, under any case id) runs it once and
gives every repeat the bits of its first occurrence, the bits of a call on
the distinct rows alone."""
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from xnap import bilstm
from xnap.bilstm import _distinct_rows, predict_dataset, predict_many
from xnap.encoding import PrefixSample, occlude_event
from xnap.lrp import LrpConfig, explain_many

from oracles import distinct_rows_axis0, explain_per_sample, predict_per_sample
from test_bilstm import random_model
from test_lrp import assert_matches_oracle
from test_sharing_properties import as_dataset


def row_key(sample: PrefixSample) -> tuple:
    """What makes two rows equal: the true length and the events read."""
    return (sample.true_length, *sample.events[-sample.true_length:].tolist())


def first_occurrences(samples) -> tuple[list[int], list[int]]:
    """The index of each distinct row's first occurrence, in row order, and
    per row the position of its own among them."""
    seen: dict[tuple, int] = {}
    first, inverse = [], []
    for k, sample in enumerate(samples):
        if row_key(sample) not in seen:
            seen[row_key(sample)] = len(first)
            first.append(k)
        inverse.append(seen[row_key(sample)])
    return first, inverse


@st.composite
def repeated_rows(draw):
    """A seeded random model of padding length M and 1-4 random traces of
    2..M+2 events under their own case ids, some with their prefixes; as
    drawn, a trace with its first event occluded next to its suffix one
    event shorter (equal padded events, another true length); then 1-4
    exact repeats, each under a fresh case id or the same sample object
    again; all shuffled. Also a cap on the (row, step) cells per batch."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 4))
    h = draw(st.integers(2, 5))
    m = draw(st.integers(2, 6))
    model = random_model(rng, d, h, m)
    samples = []
    for i, n in enumerate(draw(st.lists(st.integers(2, m + 2), min_size=1, max_size=4))):
        events = np.full(max(m, n), h, dtype=np.int32)
        events[-n:] = rng.integers(h, size=n)
        full = PrefixSample(events, n, None, f"c{i}", h)
        samples.append(full)
        if n > 2 and draw(st.booleans()):
            samples += [full.prefix(k) for k in range(2, n)]
        if n > 2 and draw(st.booleans()):
            samples.append(replace(occlude_event(full, 0), case_id=f"o{i}"))
            shorter = np.full(max(m, n), h, dtype=np.int32)
            shorter[-(n - 1):] = events[-(n - 1):]
            samples.append(PrefixSample(shorter, n - 1, None, f"s{i}", h))
    for j in range(draw(st.integers(1, 4))):
        sample = samples[draw(st.integers(0, len(samples) - 1))]
        samples.append(replace(sample, case_id=f"r{j}") if draw(st.booleans()) else sample)
    order = draw(st.permutations(range(len(samples))))
    return model, [samples[k] for k in order], draw(st.integers(1, 24))


def same_result(a, b) -> bool:
    """Bit for bit equal in every field but ``case_id``."""
    return (a.raw.tobytes() == b.raw.tobytes() and a.display.tobytes() == b.display.tobytes()
            and (a.target_class, a.model_output, a.target_prob, a.initial_state_relevance,
                 a.bias_absorbed, a.gate_relevance)
            == (b.target_class, b.model_output, b.target_prob, b.initial_state_relevance,
                b.bias_absorbed, b.gate_relevance))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(repeated_rows(), st.sampled_from([LrpConfig(), LrpConfig(delta=1.0),
                                         LrpConfig(target=1)]))
def test_repeated_rows_run_once_and_equal_their_first_occurrence(case, config):
    model, samples, rows = case
    first, inverse = first_occurrences(samples)
    distinct = [samples[k] for k in first]
    assert len(distinct) < len(samples)
    seen = []

    def recording(model, events, lengths, *args, **kwargs):
        seen.extend((n, *row[len(row) - n:].tolist()) for row, n in zip(events, lengths))
        return run_batch(model, events, lengths, *args, **kwargs)

    run_batch = bilstm._run_batch
    with mock.patch.object(bilstm, "_INFERENCE_ROWS", rows):
        with mock.patch.object(bilstm, "_run_batch", recording):
            probs = predict_many(model, samples)
            assert sorted(seen) == sorted(map(row_key, distinct))
            seen.clear()
            from_dataset = predict_dataset(model, as_dataset(model, samples))
            assert sorted(seen) == sorted(map(row_key, distinct))
            seen.clear()
            results = explain_many(model, samples, config)
            assert sorted(seen) == sorted(map(row_key, distinct))
        alone = predict_many(model, distinct)
        alone_dataset = predict_dataset(model, as_dataset(model, distinct))
        alone_results = explain_many(model, distinct, config)
    # Every row has the bits of the call on the distinct rows alone, so
    # repeats have each other's bits.
    assert probs.tobytes() == alone[inverse].tobytes()
    assert from_dataset.tobytes() == alone_dataset[inverse].tobytes()
    for sample, result, j in zip(samples, results, inverse):
        assert result.case_id == sample.case_id
        assert same_result(result, alone_results[j])
    assert np.abs(probs - predict_per_sample(model, samples)).max() <= 1e-12
    for sample, result in zip(samples, results):
        want = explain_per_sample(model, sample, config)
        assert_matches_oracle(result, want)
        assert abs(result.target_prob - want.target_prob) <= 1e-12
    # A repeat's arrays are its own.
    k = next(k for k, j in enumerate(inverse) if first[j] != k)
    original, repeat = results[first[inverse[k]]], results[k]
    want = original.raw.copy()
    repeat.raw[0] += 1.0
    repeat.display[0] += 1.0
    assert original.raw.tobytes() == want.tobytes()
    assert not np.shares_memory(original.display, repeat.display)


def test_distinct_rows_of_small_and_repeat_free_calls_are_none():
    events = np.array([[3, 0, 1], [3, 3, 1], [0, 0, 1]])
    assert _distinct_rows(events[:1], np.array([2])) is None
    assert _distinct_rows(events[:0], np.array([], dtype=np.int64)) is None
    assert _distinct_rows(events, np.array([2, 1, 3])) is None
    # An occluded first event (row 1, length 2) reads the padded events of a
    # row one event shorter (row 0 of length 1 here): the rows stay apart.
    assert _distinct_rows(np.array([[3, 1], [3, 1]]), np.array([1, 2])) is None


def test_distinct_rows_map_each_row_to_its_first_occurrence():
    events = np.array([[0, 1], [2, 1], [0, 1], [3, 1], [2, 1], [0, 1]])
    lengths = np.array([2, 2, 2, 1, 2, 2])
    first, inverse = _distinct_rows(events, lengths)
    assert first.tolist() == [0, 1, 3]
    assert inverse.tolist() == [0, 1, 0, 2, 1, 0]


@st.composite
def stacked_rows(draw):
    """0-8 rows of mixed true lengths as ``_stack_events`` stacks them:
    random traces, each maybe with its prefixes, its first event occluded
    next to its suffix one event shorter (equal padded events, another
    true length), and exact repeats of drawn rows under other case ids."""
    h = draw(st.integers(1, 4))
    rows = []
    for i in range(draw(st.integers(0, 4))):
        events = draw(st.lists(st.integers(0, h), min_size=1, max_size=7))
        full = PrefixSample(np.asarray(events, dtype=np.int32), len(events), None, f"c{i}", h)
        rows.append(full)
        if len(events) > 1 and draw(st.booleans()):
            rows += [full.prefix(k) for k in range(1, len(events))]
        if len(events) > 1 and draw(st.booleans()):
            occluded = occlude_event(full, 0)
            rows += [replace(occluded, case_id=f"o{i}"),
                     replace(occluded, true_length=len(events) - 1, case_id=f"s{i}")]
    for j in range(draw(st.integers(0, 3)) if rows else 0):
        rows.append(replace(rows[draw(st.integers(0, len(rows) - 1))], case_id=f"r{j}"))
    order = draw(st.permutations(range(len(rows))))
    return h, [rows[k] for k in order][:draw(st.integers(0, 8))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(stacked_rows())
def test_distinct_rows_equal_the_axis0_oracle(case):
    # The rows compared as bytes give unique(axis=0)'s (first, inverse), or
    # None where it gives None, for n of 0, 1, 2 and more.
    h, samples = case
    events, lengths = bilstm._stack_events(mock.Mock(n_classes=h), samples)
    got, want = _distinct_rows(events, lengths), distinct_rows_axis0(events, lengths)
    assert (got is None) == (want is None)
    if got is not None:
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
