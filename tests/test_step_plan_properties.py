"""Property tests of the step plan: each direction of an inference batch
runs each distinct reading prefix of its rows once, across case ids, and
starts a row from its parent's states, which an earlier step wrote. The
results agree with the per-sample oracles, and a single sample, which
shares nothing, keeps the bits of the unshared layout."""
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from xnap import bilstm
from xnap.bilstm import predict, predict_dataset, predict_many
from xnap.encoding import PrefixSample
from xnap.lrp import LrpConfig, explain, explain_many

from oracles import (explain_per_sample, predict_per_sample, unshared_explain_many,
                     unshared_predict_many)
from test_bilstm import PoisonedWorkspace, random_model
from test_lrp import assert_matches_oracle
from test_sharing_properties import as_dataset
from test_unshared_rows_properties import assert_same_relevance

CONFIGS = [LrpConfig(), LrpConfig(delta=1.0), LrpConfig(target=1)]


@st.composite
def shared_rows(draw):
    """A seeded random model of padding length M and rows that share
    prefixes and suffixes across case ids: each row is the start of one of
    a few stems, 0-2 random events and the end of one of a few tails,
    under one of four case ids. Then, as drawn: a row with the pad index
    as its first event before a row one shorter, and repeated rows; all
    shuffled. Also a cap on the (row, step) cells per batch."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 4))
    h = draw(st.integers(2, 4))
    m = draw(st.integers(2, 7))
    model = random_model(rng, d, h, m)
    stems = [rng.integers(h, size=draw(st.integers(1, m))) for _ in range(draw(st.integers(1, 3)))]
    tails = [rng.integers(h, size=draw(st.integers(1, m))) for _ in range(draw(st.integers(1, 3)))]
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        stem = stems[draw(st.integers(0, len(stems) - 1))]
        tail = tails[draw(st.integers(0, len(tails) - 1))]
        row = np.concatenate([stem[:draw(st.integers(0, len(stem)))],
                              rng.integers(h, size=draw(st.integers(0, 2))),
                              tail[draw(st.integers(0, len(tail))):]])
        rows.append(row if len(row) else rng.integers(h, size=1))
    for _ in range(draw(st.integers(0, 2))):
        rows.append(np.r_[h, rows[draw(st.integers(0, len(rows) - 1))]])
    for _ in range(draw(st.integers(0, 2))):
        rows.append(rows[draw(st.integers(0, len(rows) - 1))])
    samples = []
    for k in draw(st.permutations(range(len(rows)))):
        n = len(rows[k])
        events = np.full(max(m, n), h, dtype=np.int32)
        events[-n:] = rows[k]
        samples.append(PrefixSample(events, n, None, f"c{draw(st.integers(0, 3))}", h))
    return model, samples, draw(st.integers(1, 24))


def idle(*workspaces):
    """Start from these idle workspaces."""
    return mock.patch.object(bilstm, "_idle_workspaces", list(workspaces))


def reading_prefixes(rows) -> int:
    """How many distinct non-empty prefixes the reading sequences have: the
    node count of their trie."""
    return len({tuple(row[:j]) for row in rows for j in range(1, len(row) + 1)})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shared_rows())
def test_each_reading_prefix_runs_once_after_its_parent(case):
    # Each run holds each distinct reading prefix of the rows that read it
    # once: a backward run, those of its batch; a forward run, those of its
    # batch or of every batch of its root chunk.
    model, samples, cap = case
    events, lengths = bilstm._stack_events(model, samples)
    width = events.shape[1]
    calls = []
    real = bilstm._run_direction

    def spy(read, p, spans, ws, key, scale, src=None):
        calls.append([key, read.shape[1], spans, src, []])
        return real(read, p, spans, ws, key, scale, src)

    want = predict_per_sample(model, samples)
    runs = []
    with mock.patch.object(bilstm, "_INFERENCE_ROWS", cap), \
            mock.patch.object(bilstm, "_run_direction", spy):
        for part, run in bilstm._inference_runs(model, events, lengths, PoisonedWorkspace()):
            assert np.abs(run.probs - want[part]).max() <= 1e-12
            assert [key for key, *_ in calls] in (["fwd", "bwd"], ["bwd"])
            runs += calls
            calls.clear()
            rows = [events[k, width - n:].tolist() for k, n in zip(part, lengths[part])]
            fwd = next(call for call in reversed(runs) if call[0] == "fwd")
            fwd[-1].extend(rows)
            runs[-1][-1].extend(row[::-1] for row in rows)
    for _, columns, spans, src, reading in runs:
        assert sum((t1 - t0) * n for t0, t1, n in spans) == reading_prefixes(reading)
        if src is None:
            continue
        first = np.empty(columns, dtype=np.intp)  # each column's first step
        started = 0
        for t0, _, n in spans:
            first[started:n] = t0
            started = n
        assert not src[first == 0].any()  # a column from step 0 has no parent
        for k in np.flatnonzero(src):
            row, parent = divmod(int(src[k]), columns)
            # the parent ran step row - 1, which wrote the states, no later
            # than the step before the child's first
            assert first[parent] <= row - 1 < first[k]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shared_rows())
def test_shared_steps_equal_the_per_sample_oracles(case):
    model, samples, cap = case
    explained = [s for s in samples if s.true_length >= 2]
    with mock.patch.object(bilstm, "_INFERENCE_ROWS", cap), idle(PoisonedWorkspace()):
        probs = predict_many(model, samples)
        from_dataset = predict_dataset(model, as_dataset(model, samples))
        results = [explain_many(model, explained, config) for config in CONFIGS]
        single = [(predict(model, s)[1], [explain(model, s, c) for c in CONFIGS])
                  for s in explained[:3]]
    assert np.abs(probs - predict_per_sample(model, samples)).max() <= 1e-12
    assert np.array_equal(from_dataset, probs)
    for config, batch in zip(CONFIGS, results):
        for sample, result in zip(explained, batch):
            want = explain_per_sample(model, sample, config)
            assert_matches_oracle(result, want)
            assert abs(result.target_prob - want.target_prob) <= 1e-12
            assert result.case_id == sample.case_id
    # A single sample shares nothing: the bits of the unshared layout.
    for sample, (alone, relevance) in zip(explained, single):
        assert alone.tobytes() == unshared_predict_many(model, [sample])[0].tobytes()
        for config, got in zip(CONFIGS, relevance):
            assert_same_relevance(got, unshared_explain_many(model, [sample], config)[0])
