"""Rows that share nothing (every row its own root, as for one sample and
for ``xnap predict``'s one prefix per case) run each batch as its own
root: both directions in ``_run_batch``, and the forward relevance walk
on the batch's own cells, without a gather. These tests hold that path
to the shared layout it replaced (the oracles in ``oracles.py``) bit for
bit, and count the work it skips."""
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from xnap import bilstm
from xnap.bilstm import Workspace, predict_many
from xnap.encoding import PrefixSample
from xnap.lrp import LrpConfig, explain, explain_many

from oracles import shared_explain_many, shared_predict_many
from test_bilstm import random_model


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
    ``m``) that share nothing: each under its own case id or, with
    ``one_id``, all under one id with a distinct first event, so that
    none is a prefix of another."""
    samples = []
    for k, n in enumerate(lengths):
        events = np.full(max(m, n), h, dtype=np.int32)
        events[-n:] = rng.integers(h, size=n)
        if one_id:
            events[-n] = k
        samples.append(PrefixSample(events, n, None, "c" if one_id else f"c{k}", h))
    return samples


@st.composite
def apart_sets(draw):
    """A seeded random model, samples that share nothing, and a cap on the
    (row, step) cells per batch."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 4))
    h = draw(st.integers(2, 5))
    m = draw(st.integers(2, 7))
    model = random_model(rng, d, h, m)
    one_id = draw(st.booleans())
    lengths = draw(st.lists(st.integers(2, m + 3), min_size=1, max_size=h if one_id else 9))
    return model, apart_samples(rng, h, m, lengths, one_id), draw(st.integers(1, 24))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(apart_sets(), st.sampled_from([LrpConfig(), LrpConfig(delta=1.0),
                                      LrpConfig(target=1), LrpConfig(epsilon=1e-6)]))
def test_own_roots_equal_the_shared_layout(case, config):
    model, samples, rows = case
    events, lengths = bilstm._stack_events(model, samples)
    order = np.argsort(-lengths, kind="stable")
    roots = bilstm._prefix_roots(events, lengths, order, [s.case_id for s in samples])
    assert roots.tolist() == list(range(len(samples)))  # every row its own root
    with mock.patch.object(bilstm, "_INFERENCE_ROWS", rows):
        assert np.array_equal(predict_many(model, samples), shared_predict_many(model, samples))
        for got, want in zip(explain_many(model, samples, config),
                             shared_explain_many(model, samples, config)):
            assert_same_relevance(got, want)
        for sample in samples:
            assert_same_relevance(explain(model, sample, config),
                                  shared_explain_many(model, [sample], config)[0])


@pytest.mark.parametrize("cap, one_id", [(1024, False), (12, False), (12, True)])
def test_own_roots_run_each_batch_once(cap, one_id, monkeypatch):
    # Each batch runs both of its directions in _run_batch and nothing
    # else: two _run_direction calls, one _alignment, one walk of each
    # direction's cells, and no gather of forward cells into "lrp.cells"
    # (the backward walk's key).
    monkeypatch.setattr(bilstm, "_INFERENCE_ROWS", cap)
    rng = np.random.default_rng(31)
    model = random_model(rng, 3, 5, 6)
    samples = apart_samples(rng, 5, 6, [4, 2, 6, 3, 5] if one_id else [4, 2, 6, 3, 5, 8, 2],
                            one_id)
    events, lengths = bilstm._stack_events(model, samples)
    case_ids = [s.case_id for s in samples]
    batches = len(list(bilstm._inference_runs(model, events, lengths, Workspace(), case_ids)))
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
            assert all(c.kwargs.get("fwd") is None for c in own.call_args_list)
    assert keys.count("lrp.root") == keys.count("lrp.cells") == batches


def test_shared_batches_still_gather():
    # Prefixes of one case read its longest row's run: their batches keep
    # the map and the gather.
    rng = np.random.default_rng(32)
    model = random_model(rng, 3, 4, 6)
    full = PrefixSample(rng.integers(4, size=6).astype(np.int32), 6, None, "c", 4)
    samples = [full.prefix(k) for k in range(2, 7)]
    keys = []
    take = Workspace.take
    with mock.patch.object(Workspace, "take", lambda ws, key, shape: keys.append(key)
                           or take(ws, key, shape)), \
            mock.patch.object(bilstm, "_run_direction", wraps=bilstm._run_direction) as runs:
        results = explain_many(model, samples)
    assert runs.call_count == 2  # one forward run over the root, one backward batch
    assert keys.count("lrp.root") == 1 and keys.count("lrp.cells") == 2
    for got, want in zip(results, shared_explain_many(model, samples)):
        assert_same_relevance(got, want)
