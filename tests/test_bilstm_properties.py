"""Property tests of the packed batch kernel: the order of a batch's rows
changes neither its gradients nor which loss and prediction belong to
which sample, permuting the samples of a many-sample prediction
permutes its rows, a single sample's trace is its batch of one, a
saved model loads back bit for bit, the whole-row gate step computes
the bits of the strided one, and Nadam on one flat buffer steps the bits
of Nadam on the same values as separate arrays."""
import io
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from xnap import bilstm
from xnap.bilstm import (
    Nadam,
    TrainConfig,
    Workspace,
    _batch_backward,
    _gate_rows,
    _gate_step,
    _named,
    _run_batch,
    _stack_events,
    _zero_grads,
    forward,
    init_model,
    load_model,
    predict,
    predict_many,
    save_model,
)
from xnap.encoding import occlude_event

from oracles import masked_batch_backward, strided_gate_step
from test_bilstm import dummy_vocab, random_batch, random_model, random_sample


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
    batch = random_batch(rng, h, lengths, keep)
    perm = np.asarray(draw(st.permutations(range(len(lengths)))), dtype=np.intp)
    return model, *batch, perm


@settings(max_examples=60, deadline=None)
@given(permuted_batches())
def test_row_order_changes_nothing(case):
    model, events, lengths, labels, scale, xs, perm = case
    grads = _zero_grads(model)
    losses, preds = _batch_backward(model, events, lengths, labels, grads, Workspace(), scale)
    permuted = _zero_grads(model)
    p_losses, p_preds = _batch_backward(model, events[perm], lengths[perm], labels[perm],
                                        permuted, Workspace(), scale)
    for (name, g), (_, p) in zip(_named(grads), _named(permuted)):
        assert np.max(np.abs(g - p)) <= 1e-12, name
    # Losses and predictions come back in the order the rows went in.
    want_losses, want_preds = masked_batch_backward(model, xs, lengths, labels,
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


@st.composite
def single_samples(draw):
    """A seeded random model and one sample of length 1..M, padded to M."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(1, 8))
    model = random_model(rng, draw(st.integers(1, 4)), draw(st.integers(2, 5)), m)
    return model, random_sample(rng, m, model.n_classes, draw(st.integers(1, m)))


def trace_arrays(trace):
    """Every array of a ForwardTrace, both directions' fields first."""
    return [*astuple(trace.fwd), *astuple(trace.bwd), trace.hcat, trace.logits,
            trace.probs, trace.rev, trace.events]


@settings(max_examples=60, deadline=None)
@given(single_samples())
def test_forward_is_its_batch_of_one(case):
    model, sample = case
    trace = forward(model, sample)
    run = _run_batch(model, *_stack_events(model, [sample]), Workspace())
    assert trace.spans == run.spans == [(0, sample.true_length, 1)]
    for got, want in zip(trace_arrays(trace), trace_arrays(run), strict=True):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert trace.hcat.shape == (1, 2 * model.hidden_size)  # a batch axis of size 1
    assert trace.tables == run.tables == (None, None)  # each row reads its own cells
    assert trace.probs[0].tobytes() == predict(model, sample)[1].tobytes()


# Values a decimal or a float32 detour would not keep: the sign of zero,
# subnormals and the edges of the float64 range.
SPECIAL_WEIGHTS = [-0.0, 5e-324, -2.5e-310, 1e308, -1e308]


@st.composite
def stored_models(draw):
    """A model of hidden size 1-3 over 2-4 classes, every weight drawn from
    all finite float64 values, the first input weights set to
    ``SPECIAL_WEIGHTS``."""
    model = init_model(dummy_vocab(draw(st.integers(2, 4))), draw(st.integers(2, 9)),
                       TrainConfig(hidden_size=draw(st.integers(1, 3))))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    for arr in model.arrays():
        arr[...] = draw(hnp.arrays(np.float64, arr.shape, elements=finite))
    model.forward_params.W.reshape(-1)[:len(SPECIAL_WEIGHTS)] = SPECIAL_WEIGHTS
    model.trained_epochs = draw(st.integers(0, 100))
    return model


@settings(max_examples=60, deadline=None)
@given(stored_models())
def test_saved_model_loads_back_bit_for_bit(model):
    buf = io.StringIO()
    save_model(model, buf)
    loaded = load_model(io.StringIO(buf.getvalue()))
    for (name, want), (got_name, got) in zip(model.param_items(), loaded.param_items(),
                                             strict=True):
        assert got_name == name
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert loaded.vocab == model.vocab and loaded.max_len == model.max_len
    assert loaded.hyperparams == model.hyperparams
    assert loaded.trained_epochs == model.trained_epochs


# Pre-activations that test a sign or a rounding: both zeros, subnormals,
# the smallest normal, and values where tanh or tanh(x/2) saturates.
SPECIAL_GATE_INPUTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                       1e-8, -1e-8, 19.0625, -19.0625, 38.125, 1e3, -1e3]


@st.composite
def gate_inputs(draw):
    """Pre-activations (n, 4D), n 1-40 and D 1-24, starting 0-7 floats
    into their buffer: values of every magnitude up to 1e3, the special
    ones above mixed in, and some drawn by hypothesis."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = n * 4 * d
    magnitude = 10.0 ** rng.uniform(-330, 3, size)  # below 5e-324 it rounds to 0
    z = np.where(rng.random(size) < 0.5, -magnitude, magnitude)
    moderate = rng.random(size) < 0.3
    z[moderate] = rng.uniform(-10, 10, int(moderate.sum()))
    spots = rng.random(size) < 0.2
    z[spots] = rng.choice(SPECIAL_GATE_INPUTS, int(spots.sum()))
    drawn = draw(st.lists(st.floats(-1e3, 1e3), max_size=min(size, 20)))
    z[rng.permutation(size)[:len(drawn)]] = drawn
    offset = draw(st.integers(0, 7))
    buf = np.empty(offset + size)
    buf[offset:] = z
    return buf[offset:].reshape(n, 4 * d), d


@settings(max_examples=200, deadline=None)
@given(gate_inputs())
def test_gate_step_equals_the_strided_step(case):
    z, d = case
    got, want = np.full_like(z, np.nan), np.full_like(z, np.nan)
    with np.errstate(invalid="ignore", over="ignore"):  # as the kernel runs it
        _gate_step(z, got, *_gate_rows(d))
        strided_gate_step(z, want, d)
    assert got.tobytes() == want.tobytes()  # every bit, the sign of zero too


def test_gate_rows_are_read_only_and_shift_g_by_minus_zero():
    scale, shift = _gate_rows(3)
    assert scale.tolist() == [0.5] * 9 + [1.0] * 3
    assert shift.tolist() == [1.0] * 9 + [0.0] * 3 and np.signbit(shift[9:]).all()
    assert _gate_rows(3) is _gate_rows(3)
    with pytest.raises(ValueError):
        scale[0] = 1.0


@st.composite
def nadam_runs(draw):
    """1-5 arrays of 1-2 axes, a learning rate and 1-6 steps of gradients
    whose entries span many magnitudes and include zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shapes = draw(st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=2).map(tuple),
                           min_size=1, max_size=5))

    def values(shape):
        out = rng.normal(size=shape) * 10.0 ** rng.uniform(-12, 3, size=shape)
        out[rng.random(shape) < 0.2] = 0.0
        return out

    steps = [[values(shape) for shape in shapes] for _ in range(draw(st.integers(1, 6)))]
    lr = draw(st.sampled_from([1e-4, 0.002, 0.01, 0.5]))
    return [values(shape) for shape in shapes], steps, lr


@settings(max_examples=100, deadline=None)
@given(nadam_runs())
def test_nadam_on_one_flat_buffer_equals_separate_arrays(case):
    arrays, steps, lr = case
    flat = np.concatenate([arr.ravel() for arr in arrays])
    separate = [Nadam(arr.copy(), lr, Workspace()) for arr in arrays]
    joined = Nadam(flat, lr, Workspace())
    for grads in steps:
        for opt, g in zip(separate, grads):
            opt.step(g)
        joined.step(np.concatenate([g.ravel() for g in grads]))
    for name in ("params", "m", "v"):
        want = b"".join(getattr(opt, name).tobytes() for opt in separate)
        assert getattr(joined, name).tobytes() == want
