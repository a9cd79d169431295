"""The direction kernel gathers, biases, zero-fills and checks only the
cells a batch runs: each span's started block and the initial-state rows
of the samples that start with it. These tests hold it to the kernel that
did all of that over every (step, row) cell, padding included
(``oracles.padded_run_direction``), bit for bit, on workspaces that hand
out NaN, and check that the garbage a call leaves behind reaches no later
call's output."""
import io
import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from xnap import bilstm
from xnap.bilstm import (
    TrainConfig,
    _batch_backward,
    _run_batch,
    _zero_grads,
    predict_many,
    save_model,
    train,
)
from xnap.encoding import PrefixSample, occlude_event
from xnap.errors import NonFiniteInput
from xnap.lrp import explain_many

from oracles import padded_run_direction
from test_bilstm import PoisonedWorkspace, grammar_datasets, random_batch, random_model
from test_unshared_rows_properties import assert_same_relevance


def padded():
    """Run the parent's kernel, which fills and checks every cell."""
    return mock.patch.object(bilstm, "_run_direction", padded_run_direction)


def idle(*workspaces):
    """Start from these idle workspaces."""
    return mock.patch.object(bilstm, "_idle_workspaces", list(workspaces))


@st.composite
def mixed_batches(draw):
    """A seeded random model, a batch of 1-9 rows of lengths 1..M+3 in any
    order, some with one event occluded, with or without input dropout."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 4))
    h = draw(st.integers(2, 5))
    m = draw(st.integers(2, 7))
    lengths = draw(st.lists(st.integers(1, m + 3), min_size=1, max_size=9))
    keep = draw(st.sampled_from([None, 0.7]))
    occlude = draw(st.integers(0, len(lengths)))
    model = random_model(rng, d, h, m)
    events, lengths, labels, scale, _ = random_batch(rng, h, lengths, keep, occlude)
    return model, events, lengths, labels, scale


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mixed_batches())
def test_batches_equal_the_padded_kernel(case):
    model, events, lengths, labels, scale = case
    order = np.argsort(-lengths, kind="stable")
    got = _run_batch(model, events[order], lengths[order], PoisonedWorkspace(), scale)
    with padded():
        want = _run_batch(model, events[order], lengths[order], PoisonedWorkspace(), scale)
    assert np.array_equal(got.logits, want.logits)
    assert np.array_equal(got.probs, want.probs)
    grads = _zero_grads(model)
    losses, preds = _batch_backward(model, events, lengths, labels, grads,
                                    PoisonedWorkspace(), scale)
    want_grads = _zero_grads(model)
    with padded():
        want_losses, want_preds = _batch_backward(model, events, lengths, labels, want_grads,
                                                  PoisonedWorkspace(), scale)
    for g, w in zip(grads, want_grads):
        assert np.array_equal(g, w)
    assert np.array_equal(losses, want_losses)
    assert np.array_equal(preds, want_preds)


@st.composite
def mixed_samples(draw):
    """A seeded random model, the prefixes (1.. events) of 1-3 random traces
    under their case ids, some occluded, and rows of their own, shuffled;
    and a cap on the (row, step) cells per batch."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 4))
    h = draw(st.integers(2, 5))
    m = draw(st.integers(2, 7))
    model = random_model(rng, d, h, m)
    samples = []
    for i, n in enumerate(draw(st.lists(st.integers(1, m + 3), min_size=1, max_size=3))):
        events = np.full(max(m, n), h, dtype=np.int32)
        events[-n:] = rng.integers(h, size=n)
        full = PrefixSample(events, n, None, f"c{i}", h)
        samples += [full.prefix(k) for k in range(1, n + 1)]
    for _ in range(draw(st.integers(0, 3))):
        sample = samples[draw(st.integers(0, len(samples) - 1))]
        samples.append(occlude_event(sample, draw(st.integers(0, sample.true_length - 1))))
    for k, n in enumerate(draw(st.lists(st.integers(1, m + 3), max_size=4))):
        events = np.full(max(m, n), h, dtype=np.int32)
        events[-n:] = rng.integers(h, size=n)
        samples.append(PrefixSample(events, n, None, f"own{k}", h))
    samples = [samples[k] for k in rng.permutation(len(samples))]
    return model, samples, draw(st.integers(1, 24))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mixed_samples())
def test_predict_and_explain_many_equal_the_padded_kernel(case):
    model, samples, rows = case
    explained = [s for s in samples if s.true_length >= 2]
    with mock.patch.object(bilstm, "_INFERENCE_ROWS", rows):
        with idle(PoisonedWorkspace()):
            probs = predict_many(model, samples)
            relevance = explain_many(model, explained)
        with padded(), idle(PoisonedWorkspace()):
            want_probs = predict_many(model, samples)
            want_relevance = explain_many(model, explained)
    assert np.array_equal(probs, want_probs)
    for got, want in zip(relevance, want_relevance):
        assert_same_relevance(got, want)


def test_garbage_left_by_overflowing_calls_reaches_no_later_call():
    # Weights scaled towards overflow leave inf and NaN behind: the first
    # model's finite U, largest entry 1e308, overflows the relevance walk;
    # the second's U times 1e308 overflows the forward pass, which raises
    # after writing inf into the idle workspace. The calls after them write
    # the bytes they write from an empty pool.
    train_set, val_set = grammar_datasets(n_traces=20)
    config = TrainConfig(hidden_size=4, batch_size=16, max_epochs=2, seed=5)
    samples = [PrefixSample(val_set.events[i], int(val_set.true_lengths[i]), None,
                            val_set.case_ids[i], val_set.vocab.size)
               for i in range(len(val_set)) if val_set.true_lengths[i] >= 2]

    def outputs():
        model, history = train(train_set, val_set, config)
        buf = io.StringIO()
        save_model(model, buf)
        relevance = explain_many(model, samples)
        return (buf.getvalue(), history, predict_many(model, samples).tobytes(),
                [(r.raw.tobytes(), r.display.tobytes(), r.bias_absorbed,
                  r.initial_state_relevance) for r in relevance])

    with idle():
        clean = outputs()
    walk, kernel = (random_model(np.random.default_rng(seed), 4, val_set.vocab.size, val_set.M)
                    for seed in (0, 4))
    for p in (walk.forward_params, walk.backward_params):
        p.U *= 1e308 / np.abs(p.U).max()
    with np.errstate(over="ignore"):
        for p in (kernel.forward_params, kernel.backward_params):
            p.U *= 1e308
    with idle():
        overflowed = explain_many(walk, samples)
        assert not all(math.isfinite(r.initial_state_relevance) for r in overflowed)
        with pytest.raises(NonFiniteInput):
            explain_many(kernel, samples)
        left = [buf for ws in bilstm._idle_workspaces for buf, _ in ws._slots.values()]
        assert not all(np.isfinite(buf).all() for buf in left)
        assert outputs() == clean
