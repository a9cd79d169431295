"""Property tests of the packed batch kernel: the order of a batch's rows
changes neither its gradients nor which loss and prediction belong to
which sample."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from xnap.bilstm import _batch_backward, _named, _zero_grads

from oracles import masked_batch_backward
from test_bilstm import dense_inputs, random_batch, random_model


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
