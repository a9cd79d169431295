"""Property tests of the packed batch kernel: the order of a batch's rows
changes neither its gradients nor which loss and prediction belong to
which sample, and permuting the samples of a many-sample prediction
permutes its rows."""
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from xnap import bilstm
from xnap.bilstm import _batch_backward, _named, _zero_grads, predict_many
from xnap.encoding import occlude_event

from oracles import masked_batch_backward
from test_bilstm import dense_inputs, random_batch, random_model, random_sample


@st.composite
def permuted_batches(draw):
    """A seeded random model, a batch of 1-8 samples of lengths 1..8 with
    or without input dropout, and a permutation of its rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 4))
    h = draw(st.integers(2, 5))
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=8))
    keep = draw(st.sampled_from([None, 0.7]))
    model = random_model(rng, d, h, 8)
    events, lengths, labels, scales = random_batch(rng, h, lengths, keep)
    perm = np.asarray(draw(st.permutations(range(len(lengths)))), dtype=np.intp)
    return model, events, lengths, labels, scales, perm


@settings(max_examples=60, deadline=None)
@given(permuted_batches())
def test_row_order_changes_nothing(case):
    model, events, lengths, labels, scales, perm = case
    grads = _zero_grads(model)
    losses, preds = _batch_backward(model, events, lengths, scales, labels, grads)
    permuted = _zero_grads(model)
    p_losses, p_preds = _batch_backward(model, events[perm], lengths[perm],
                                        None if scales is None else scales[perm],
                                        labels[perm], permuted)
    for (name, g), (_, p) in zip(_named(grads), _named(permuted)):
        assert np.max(np.abs(g - p)) <= 1e-12, name
    # Losses and predictions come back in the order the rows went in.
    want_losses, want_preds = masked_batch_backward(
        model, dense_inputs(events, scales, model.n_classes), lengths, labels,
        _zero_grads(model))
    assert np.max(np.abs(losses - want_losses)) <= 1e-12
    assert np.array_equal(preds, want_preds)
    assert np.max(np.abs(p_losses - want_losses[perm])) <= 1e-12
    assert np.array_equal(p_preds, want_preds[perm])


@st.composite
def permuted_samples(draw):
    """A seeded random model, 1-12 samples of lengths 1..8, some with an
    occluded event, a permutation of them and a batch row cap."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = draw(st.integers(2, 5))
    model = random_model(rng, draw(st.integers(1, 4)), h, 8)
    samples = []
    for k, n in enumerate(draw(st.lists(st.integers(1, 8), min_size=1, max_size=12))):
        sample = random_sample(rng, 8, h, n, f"s{k}")
        if draw(st.booleans()):
            sample = occlude_event(sample, int(rng.integers(n)))
        samples.append(sample)
    perm = draw(st.permutations(range(len(samples))))
    return model, samples, perm, draw(st.sampled_from([1, 9, 20, 1024]))


@settings(max_examples=60, deadline=None)
@given(permuted_samples())
def test_permuted_samples_permute_the_rows(case):
    model, samples, perm, rows = case
    with mock.patch.object(bilstm, "_INFERENCE_ROWS", rows):
        probs = predict_many(model, samples)
        permuted = predict_many(model, [samples[k] for k in perm])
    assert np.max(np.abs(permuted - probs[perm])) <= 1e-12
    assert np.array_equal(permuted.argmax(axis=1), probs[perm].argmax(axis=1))
