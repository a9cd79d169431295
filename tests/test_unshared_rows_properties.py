"""Rows that share nothing (no two begin alike in either reading order, as
for one sample) take the identity plan: each batch runs both directions
over its own rows in ``_run_batch``, and each relevance walk reads its
run's cells in place, without a gather. These tests hold that path to
the unshared layout (the oracles in ``oracles.py``) bit for bit, and
count the work it skips."""
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from xnap import bilstm
from xnap.bilstm import Workspace, predict_many
from xnap.encoding import PrefixSample
from xnap.lrp import LrpConfig, explain, explain_many

from oracles import explain_per_sample, unshared_explain_many, unshared_predict_many
from test_bilstm import random_model
from test_lrp import assert_matches_oracle


def assert_same_relevance(got, want):
    """Every field equal, bit for bit."""
    assert np.array_equal(got.raw, want.raw)
    assert np.array_equal(got.display, want.display)
    assert got.raw.dtype == want.raw.dtype == np.float64
    for field in ("target_class", "model_output", "target_prob", "initial_state_relevance",
                  "bias_absorbed", "gate_relevance", "case_id"):
        assert getattr(got, field) == getattr(want, field), field


def apart_samples(rng, h: int, m: int, lengths, one_id: bool) -> list[PrefixSample]:
    """Samples of the given true lengths (2.. events, some longer than
    ``m``, at most ``h`` of them) that share nothing: row k's first event
    is k and its last (k + 1) % h, so no two begin alike in either
    reading order. Each is under its own case id or, with ``one_id``, all
    under one id."""
    samples = []
    for k, n in enumerate(lengths):
        events = np.full(max(m, n), h, dtype=np.int32)
        events[-n:] = rng.integers(h, size=n)
        events[-n], events[-1] = k, (k + 1) % h
        samples.append(PrefixSample(events, n, None, "c" if one_id else f"c{k}", h))
    return samples


@st.composite
def apart_sets(draw):
    """A seeded random model, samples that share nothing, and a cap on the
    (row, step) cells per batch."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 4))
    h = draw(st.integers(2, 9))
    m = draw(st.integers(2, 7))
    model = random_model(rng, d, h, m)
    lengths = draw(st.lists(st.integers(2, m + 3), min_size=1, max_size=h))
    return model, apart_samples(rng, h, m, lengths, draw(st.booleans())), draw(st.integers(1, 24))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(apart_sets(), st.sampled_from([LrpConfig(), LrpConfig(delta=1.0),
                                      LrpConfig(target=1), LrpConfig(epsilon=1e-6)]))
def test_rows_that_share_nothing_equal_the_unshared_layout(case, config):
    model, samples, rows = case
    with mock.patch.object(bilstm, "_INFERENCE_ROWS", rows):
        events, lengths = bilstm._stack_events(model, samples)
        for _, run in bilstm._inference_runs(model, events, lengths, Workspace()):
            assert run.tables == (None, None)
        assert np.array_equal(predict_many(model, samples), unshared_predict_many(model, samples))
        for got, want in zip(explain_many(model, samples, config),
                             unshared_explain_many(model, samples, config)):
            assert_same_relevance(got, want)
        for sample in samples:
            assert_same_relevance(explain(model, sample, config),
                                  unshared_explain_many(model, [sample], config)[0])


@pytest.mark.parametrize("cap, one_id", [(1024, False), (12, False), (12, True)])
def test_rows_that_share_nothing_run_each_batch_once(cap, one_id, monkeypatch):
    # Each batch runs both of its directions in _run_batch and nothing
    # else: two _run_direction calls, one _alignment, and one walk of each
    # direction's cells, under "lrp.fwd" and "lrp.bwd", read in place; no
    # cells are gathered ("lrp.cells").
    monkeypatch.setattr(bilstm, "_INFERENCE_ROWS", cap)
    rng = np.random.default_rng(31)
    model = random_model(rng, 3, 7, 6)
    samples = apart_samples(rng, 7, 6, [4, 2, 6, 3, 5] if one_id else [4, 2, 6, 3, 5, 8, 2],
                            one_id)
    events, lengths = bilstm._stack_events(model, samples)
    batches = len(list(bilstm._inference_runs(model, events, lengths, Workspace())))
    assert batches == len(list(bilstm._cut(np.argsort(-lengths, kind="stable"), lengths)))
    assert batches > (cap < 1024)  # a small cap cuts the rows into several batches
    keys = []
    take = Workspace.take
    monkeypatch.setattr(Workspace, "take", lambda ws, key, shape: keys.append(key)
                        or take(ws, key, shape))
    with mock.patch.object(bilstm, "_run_direction", wraps=bilstm._run_direction) as runs, \
            mock.patch.object(bilstm, "_alignment", wraps=bilstm._alignment) as layouts, \
            mock.patch.object(bilstm, "_run_batch", wraps=bilstm._run_batch) as own:
        for call in (lambda: predict_many(model, samples), lambda: explain_many(model, samples)):
            for counted in (runs, layouts, own):
                counted.reset_mock()
            keys.clear()
            call()
            assert runs.call_count == 2 * batches
            assert keys.count("fwd.pre") == keys.count("bwd.pre") == batches
            assert layouts.call_count == own.call_count == batches
    assert keys.count("lrp.fwd") == keys.count("lrp.bwd") == batches
    assert keys.count("lrp.cells") == 0


@pytest.mark.parametrize("cap, batches", [(1024, 1), (12, 2)])
def test_shared_batches_gather(cap, batches, monkeypatch):
    # The prefixes of one trace share their forward steps: one forward run
    # holds the trace once, and its walk cells are computed once and
    # gathered for every prefix, in one batch or, cut in two, in both.
    monkeypatch.setattr(bilstm, "_INFERENCE_ROWS", cap)
    rng = np.random.default_rng(32)
    model = random_model(rng, 3, 4, 6)
    events = np.asarray([0, 1, 2, 3, 0, 1], dtype=np.int32)
    full = PrefixSample(events, 6, None, "c", 4)
    samples = [full.prefix(k) for k in range(2, 7)]
    keys = []
    take = Workspace.take
    with mock.patch.object(Workspace, "take", lambda ws, key, shape: keys.append(key)
                           or take(ws, key, shape)), \
            mock.patch.object(bilstm, "_run_direction", wraps=bilstm._run_direction) as runs:
        results = explain_many(model, samples)
    assert runs.call_count == 1 + batches  # one forward run, one backward run per batch
    assert runs.call_args_list[0].args[0].shape == (6, 1)  # the whole trace, once
    assert keys.count("lrp.fwd") == 1 and keys.count("lrp.bwd") == batches
    # One batch gathers in both directions. Backward, the prefix of length
    # 2 reads 1 0, the start of the whole trace's 1 0 3 2 1 0: it runs no
    # step of its own either. Cut in two (rows 6 5 and 4 3 2), no two rows
    # of a batch end alike: only the forward walks gather.
    if batches == 1:
        assert runs.call_args_list[1].args[0].shape == (6, 4)
    assert keys.count("lrp.cells") == 2
    for sample, got in zip(samples, results):
        want = explain_per_sample(model, sample)
        assert_matches_oracle(got, want)
        assert np.abs(got.display - want.display).max() <= 1e-12
        assert abs(got.target_prob - want.target_prob) <= 1e-12
