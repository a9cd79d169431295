import base64
import copy
import io
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from xnap import bilstm
from xnap.bilstm import (
    Nadam,
    TrainConfig,
    Workspace,
    _batch_backward,
    _drop_inputs,
    _named,
    _run_batch,
    _stack_events,
    _zero_grads,
    backward,
    forward,
    init_model,
    load_model,
    predict,
    predict_dataset,
    predict_many,
    save_model,
    softmax,
    train,
)
from xnap.encoding import (
    END_SYMBOL,
    ActivityVocabulary,
    PrefixSample,
    assemble_dataset,
    build_vocabulary,
    max_augmented_length,
    occlude_event,
)
from xnap.errors import (
    CorruptModel,
    EmptyDataset,
    NonFiniteInput,
    ShapeMismatch,
    VersionMismatch,
)
from xnap.lrp import explain, explain_many
from xnap.synthlog import generate, linear_grammar

from conftest import make_log
from oracles import (
    cross_entropy,
    dataset_sample,
    dropout_scales,
    masked_batch_backward,
    masked_run_batch,
    naive_bilstm_probs,
    one_hot,
    predict_per_sample,
    save_model_v1,
)


def dummy_vocab(h: int) -> ActivityVocabulary:
    return ActivityVocabulary(tuple(f"a{i}" for i in range(h - 1)) + (END_SYMBOL,))


def random_model(rng, d: int, h: int, m: int, scale: float = 0.4):
    """Seeded model with all parameters (biases included) randomized."""
    model = init_model(dummy_vocab(h), m, TrainConfig(hidden_size=d, seed=0))
    for _, arr in model.param_items():
        arr += rng.normal(scale=scale, size=arr.shape)
    return model


def random_sample(rng, m: int, h: int, length: int, case_id: str = "t") -> PrefixSample:
    events = np.full(m, h, dtype=np.int32)
    for t in range(length):
        events[m - length + t] = int(rng.integers(h))
    return PrefixSample(events=events, true_length=length,
                        label_index=int(rng.integers(h)), case_id=case_id, n_classes=h)


def random_batch(rng, h: int, lengths, keep: float | None = None, occlude: int = 0):
    """A right-aligned batch (B, T) of random activity indices in the given
    order, with its lengths, random labels, input scale and dense inputs.
    ``occlude`` rows then get one true event set to the pad index ``h``.

    With ``keep``, one input dropout draw is taken two ways: the returned
    events are the kernel's, each dropped one set to the pad index and
    the input scale 1/keep; the dense inputs (B, T, H) are the masked
    oracle's, every one-hot row times its event's own scale from
    :func:`dropout_scales`. Without it the scale is 1 and the dense inputs
    are the plain one-hot rows."""
    lengths = np.asarray(lengths)
    t_len = int(lengths.max())
    events = np.full((len(lengths), t_len), h, dtype=np.int32)
    for k, n in enumerate(lengths):
        events[k, t_len - n:] = rng.integers(h, size=n)
    dropped, scales = events.copy(), np.ones(events.shape)
    if keep is not None:
        dropped = _drop_inputs(events, lengths, h, copy.deepcopy(rng), keep)
        scales = dropout_scales(events, lengths, h, rng, keep)
    labels = rng.integers(h, size=len(lengths))
    for k in rng.choice(len(lengths), size=occlude, replace=False):
        at = t_len - int(rng.integers(1, lengths[k] + 1))
        events[k, at] = dropped[k, at] = h
    xs = one_hot(events, h) * scales[..., None]
    return dropped, lengths, labels, 1.0 if keep is None else 1.0 / keep, xs


def one_sample_run(model, sample, scale: float = 1.0):
    """The kernel's forward pass over one sample as a batch of one, its
    inputs scaled by ``scale``."""
    return _run_batch(model, *_stack_events(model, [sample]), Workspace(), scale)


def one_sample_grads(model, sample, scale: float = 1.0) -> dict:
    """The kernel's gradients of one sample's loss, as a training batch of
    one with input scale ``scale``."""
    grads = _zero_grads(model)
    _batch_backward(model, *_stack_events(model, [sample]), np.asarray([sample.label_index]),
                    grads, Workspace(), scale)
    return dict(_named(grads))


class TestForward:
    def test_zero_weights_force_uniform_output(self):
        model = init_model(dummy_vocab(3), 4, TrainConfig(hidden_size=5, seed=0))
        for _, arr in model.param_items():
            arr[...] = 0.0
        rng = np.random.default_rng(0)
        trace = forward(model, random_sample(rng, 4, 3, 3))
        assert np.allclose(trace.fwd.act[..., model.forward_params.rows("i")], 0.5)
        assert np.allclose(trace.fwd.act[..., model.forward_params.rows("g")], 0.0)
        assert np.allclose(trace.fwd.h, 0.0)
        assert np.allclose(trace.logits, 0.0)
        assert np.allclose(trace.probs, 1.0 / 3.0)

    def test_matches_naive_scalar_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            h = int(rng.integers(2, 6))
            length = int(rng.integers(1, 7))
            m = length + int(rng.integers(0, 3))
            model = random_model(rng, d, h, m)
            sample = random_sample(rng, m, h, length)
            trace = forward(model, sample)
            rows = sample.x[m - length:].tolist()
            logits, probs = naive_bilstm_probs(model, rows)
            assert np.max(np.abs(trace.logits - np.asarray(logits))) < 1e-10
            assert np.max(np.abs(trace.probs - np.asarray(probs))) < 1e-10

    def test_invariant_to_padding_length(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, 4, 3, 10)
        sample = random_sample(rng, 5, 3, 4)
        wider = PrefixSample(
            events=np.concatenate([np.full(5, 3), sample.events]),
            true_length=4, label_index=sample.label_index, case_id="t", n_classes=3)
        a = forward(model, sample)
        b = forward(model, wider)
        assert np.array_equal(a.logits, b.logits)
        assert np.array_equal(a.fwd.h, b.fwd.h)

    def test_backward_direction_reads_reversed(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 3, 4, 6)
        sample = random_sample(rng, 6, 4, 3)
        trace = forward(model, sample)
        suffix = sample.events[3:]
        assert np.array_equal(trace.fwd.events[:, 0], suffix)
        assert np.array_equal(trace.bwd.events[:, 0], suffix[::-1])

    def test_dropout_mask_applies_to_inputs(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 3, 3, 4)
        sample = random_sample(rng, 4, 3, 2)
        # Dropout at keep 0.5: the first event is dropped, the second kept
        # and doubled.
        dropped = occlude_event(sample, 0)
        half = one_sample_run(model, dropped, 2.0)
        scaled = naive_bilstm_probs(model, (sample.x[2:] * [[0.0], [2.0]]).tolist())[0]
        assert np.max(np.abs(half.logits[0] - scaled)) < 1e-12
        # With every event dropped the scale reaches nothing.
        trace = one_sample_run(model, occlude_event(dropped, 1), 2.0)
        zeroed = forward(model, PrefixSample(np.full(4, 3), 2, 0, "t", 3))
        assert np.array_equal(trace.logits, zeroed.logits)

    def test_non_finite_input_or_weight_raises(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 3, 3, 4)
        model.backward_params.U[0, 0] = np.inf  # reached through h = 0 at step one
        with pytest.raises(NonFiniteInput):
            forward(model, random_sample(rng, 4, 3, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["W_read", "W_unread", "U", "b"])
    def test_any_non_finite_weight_raises(self, where, bad):
        rng = np.random.default_rng(6)
        model = random_model(rng, 3, 4, 5)
        events = np.asarray([4, 4, 0, 2, 0])  # activity 1 and 3 never occur
        sample = PrefixSample(events, 3, 1, "t", 4)
        predict(model, sample)  # finite weights run
        p = model.forward_params
        if where == "W_read":
            p.W[5, 2] = bad
        elif where == "W_unread":
            p.W[5, 3] = bad  # a column no event reads: the gather never touches it
        elif where == "U":
            p.U[7, 1] = bad
        else:
            p.b[2] = bad
        with pytest.raises(NonFiniteInput):
            predict(model, sample)
        with pytest.raises(NonFiniteInput):
            predict_dataset(model, assemble_dataset(
                make_log([["a0", "a2", "a0"]]), model.vocab, 5))

    def test_sample_of_another_vocabulary_rejected(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 3, 3, 4)
        with pytest.raises(ShapeMismatch):
            predict(model, random_sample(rng, 4, 4, 2))


class TestPredict:
    def test_uniform_ties_break_low(self):
        model = init_model(dummy_vocab(4), 3, TrainConfig(hidden_size=3, seed=0))
        for _, arr in model.param_items():
            arr[...] = 0.0
        rng = np.random.default_rng(0)
        idx, probs = predict(model, random_sample(rng, 3, 4, 2))
        assert idx == 0
        assert np.allclose(probs, 0.25)

    def test_argmax_of_distribution(self):
        model = init_model(dummy_vocab(3), 3, TrainConfig(hidden_size=2, seed=0))
        for _, arr in model.param_items():
            arr[...] = 0.0
        model.b_out[...] = np.log([0.1, 0.7, 0.2])
        rng = np.random.default_rng(0)
        idx, probs = predict(model, random_sample(rng, 3, 3, 2))
        assert idx == 1
        assert np.allclose(probs, [0.1, 0.7, 0.2])

    def test_deterministic_at_inference(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 4, 3, 5)
        sample = random_sample(rng, 5, 3, 4)
        first = predict(model, sample)
        second = predict(model, sample)
        assert first[0] == second[0]
        assert np.array_equal(first[1], second[1])


class TestPredictMany:
    def test_matches_per_sample_oracle(self, monkeypatch):
        rng = np.random.default_rng(11)
        model = random_model(rng, 5, 4, 9)
        samples = [random_sample(rng, 9, 4, n, f"s{k}")
                   for k, n in enumerate([3, 9, 1, 5, 9, 2, 7, 4, 6, 2, 8])]
        samples[1] = occlude_event(samples[1], 0)  # pad index as the first event
        samples[3] = occlude_event(samples[3], 2)
        samples[6] = occlude_event(samples[6], 6)  # ... and as the last one
        monkeypatch.setattr(bilstm, "_INFERENCE_ROWS", 20)
        events, lengths = _stack_events(model, samples)
        ids = [s.case_id for s in samples]
        assert len(list(bilstm._inference_runs(model, events, lengths, Workspace(), ids))) > 3
        probs = predict_many(model, samples)
        want = predict_per_sample(model, samples)
        assert probs.shape == (len(samples), 4)
        assert max_diff(probs, want) <= 1e-12
        assert np.array_equal(probs.argmax(axis=1), want.argmax(axis=1))

    def test_ties_break_low(self):
        model = init_model(dummy_vocab(4), 5, TrainConfig(hidden_size=3, seed=0))
        for _, arr in model.param_items():
            arr[...] = 0.0
        rng = np.random.default_rng(0)
        probs = predict_many(model, [random_sample(rng, 5, 4, n) for n in (2, 5, 3)])
        assert np.allclose(probs, 0.25)
        assert probs.argmax(axis=1).tolist() == [0, 0, 0]

    def test_no_samples_no_rows(self):
        model = random_model(np.random.default_rng(1), 3, 4, 5)
        assert predict_many(model, []).shape == (0, 4)

    def test_sample_of_another_vocabulary_rejected(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 3, 4, 5)
        with pytest.raises(ShapeMismatch):
            predict_many(model, [random_sample(rng, 5, 4, 2), random_sample(rng, 5, 3, 2)])


def mean_loss(model, samples):
    return sum(cross_entropy(forward(model, s).probs[0], s.label_index)
               for s in samples) / len(samples)


class TestBackward:
    def test_output_bias_gradient_closed_form(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, 3, 4, 5)
        sample = random_sample(rng, 5, 4, 3)
        probs = forward(model, sample).probs[0]
        grads = backward(model, sample, sample.label_index)
        expected = probs.copy()
        expected[sample.label_index] -= 1.0
        assert np.allclose(grads["b_out"], expected, atol=1e-12)

    def test_near_zero_loss_gives_near_zero_gradient(self):
        model = init_model(dummy_vocab(3), 4, TrainConfig(hidden_size=3, seed=0))
        for _, arr in model.param_items():
            arr[...] = 0.0
        model.b_out[0] = 100.0  # p[0] -> 1 via a huge logit
        rng = np.random.default_rng(0)
        sample = random_sample(rng, 4, 3, 2)
        grads = backward(model, sample, 0)
        norm = math.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
        assert norm < 1e-20

    def test_finite_difference_agreement(self):
        # Central differences (step 1e-5) against analytic BPTT on a
        # D=4, H=3, length-4 problem; >=200 sampled coordinates.
        rng = np.random.default_rng(11)
        d, h, m = 4, 3, 5
        model = random_model(rng, d, h, m)
        samples = [random_sample(rng, m, h, 4, f"s{i}") for i in range(3)]

        grads = {name: np.zeros_like(arr) for name, arr in model.param_items()}
        for s in samples:
            for name, g in backward(model, s, s.label_index).items():
                grads[name] += g / len(samples)

        step = 1e-5
        checked = 0
        for name, arr in model.param_items():
            flat = arr.reshape(-1)
            n_coords = min(flat.size, 10)
            for pos in rng.choice(flat.size, size=n_coords, replace=False):
                orig = flat[pos]
                flat[pos] = orig + step
                up = mean_loss(model, samples)
                flat[pos] = orig - step
                down = mean_loss(model, samples)
                flat[pos] = orig
                numeric = (up - down) / (2 * step)
                analytic = grads[name].reshape(-1)[pos]
                denom = max(abs(analytic), abs(numeric), 1e-4)
                assert abs(analytic - numeric) / denom < 1e-4, \
                    f"{name}[{pos}]: analytic {analytic}, numeric {numeric}"
                checked += 1
        assert checked >= 200

    def test_gradcheck_with_dropout_mask(self):
        rng = np.random.default_rng(13)
        d, h, m = 3, 3, 4
        model = random_model(rng, d, h, m)
        sample = random_sample(rng, m, h, 3)
        kept = rng.random(3) < 0.8
        assert not kept.all()
        for k in np.flatnonzero(~kept):
            sample = occlude_event(sample, int(k))
        grads = one_sample_grads(model, sample, 1.0 / 0.8)

        def loss():
            probs = one_sample_run(model, sample, 1.0 / 0.8).probs[0]
            return cross_entropy(probs, sample.label_index)

        step = 1e-5
        for name, arr in model.param_items():
            flat = arr.reshape(-1)
            for pos in rng.choice(flat.size, size=min(flat.size, 4), replace=False):
                orig = flat[pos]
                flat[pos] = orig + step
                up = loss()
                flat[pos] = orig - step
                down = loss()
                flat[pos] = orig
                numeric = (up - down) / (2 * step)
                analytic = grads[name].reshape(-1)[pos]
                assert abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-4) < 1e-4

    def test_batched_equals_per_sample_sum(self):
        # A mixed-length batch through the packed kernel against batches
        # of one, without and with input dropout. The forward pass takes
        # the batch longest first; _batch_backward takes it in any order.
        rng = np.random.default_rng(17)
        d, h, m = 3, 4, 8
        model = random_model(rng, d, h, m)
        lengths = np.asarray([4, 1, 6, 2, 4, 6])
        samples = [random_sample(rng, m, h, int(n), f"s{i}") for i, n in enumerate(lengths)]
        labels = np.asarray([s.label_index for s in samples])
        t_len = int(lengths.max())
        events = np.stack([s.events[m - t_len:] for s in samples])
        # One dropout draw, as the dropped events the kernel reads and as
        # the old path's per-event scales: their dense inputs agree.
        kept = [rng.random(n) < 0.7 for n in lengths]
        scales = np.zeros(events.shape)
        dropped = []
        for k, (s, keep) in enumerate(zip(samples, kept)):
            scales[k, t_len - lengths[k]:] = keep / 0.7
            for i in np.flatnonzero(~keep):
                s = occlude_event(s, int(i))
            dropped.append(s)
        dropped_events = np.stack([s.events[m - t_len:] for s in dropped])
        assert np.array_equal(one_hot(dropped_events, h) * (1.0 / 0.7),
                              one_hot(events, h) * scales[..., None])
        for batch, events, scale in ((samples, events, 1.0),
                                     (dropped, dropped_events, 1.0 / 0.7)):
            total = {name: np.zeros_like(arr) for name, arr in model.param_items()}
            for s in batch:
                for name, g in one_sample_grads(model, s, scale).items():
                    total[name] += g
            order = np.argsort(-lengths, kind="stable")
            run = _run_batch(model, events[order], lengths[order], Workspace(), scale)
            for row, k in enumerate(order):
                trace = one_sample_run(model, batch[k], scale)
                assert np.max(np.abs(run.logits[row] - trace.logits[0])) <= 1e-12
                assert np.max(np.abs(run.probs[row] - trace.probs[0])) <= 1e-12
            batched = _zero_grads(model)
            _batch_backward(model, events, lengths, labels, batched, Workspace(), scale)
            for name, g in _named(batched):
                assert np.max(np.abs(total[name] - g)) <= 1e-12, name

    def test_batched_dropout_draw_matches_per_sample_draws(self):
        # The dropped events times 1/keep, and the old path's per-event
        # scales, are the dense per-sample masks at each event's active
        # unit: the values the one-hot rows kept when masked whole.
        rng = np.random.default_rng(19)
        h, m, keep = 5, 7, 0.8
        lengths = np.asarray([3, 1, 6, 2, 6])
        samples = [random_sample(rng, m, h, int(n)) for n in lengths]
        t_len = int(lengths.max())
        events = np.stack([s.events[m - t_len:] for s in samples])
        expected = one_hot(events, h)
        per_sample = np.random.default_rng(23)
        for k, n in enumerate(lengths):  # one draw per sample, in batch order
            mask = (per_sample.random((n, h)) < keep).astype(np.float64) / keep
            expected[k, t_len - n:] = expected[k, t_len - n:] * mask
        dropped = _drop_inputs(events, lengths, h, np.random.default_rng(23), keep)
        assert np.array_equal(one_hot(dropped, h) * (1.0 / keep), expected)
        scales = dropout_scales(events, lengths, h, np.random.default_rng(23), keep)
        assert np.array_equal(one_hot(events, h) * scales[..., None], expected)
        assert (dropped[events == h] == h).all()  # padding stays padding
        assert ((dropped == events) | (dropped == h)).all()  # events are dropped, not moved


# Batches the packed index kernel must agree with the dense masked oracle
# on, each in a mixed order: (lengths, rows with one event occluded).
ORACLE_BATCHES = {
    "mixed": ([4, 1, 6, 2, 4, 6, 3], 0),
    "all_equal": ([5, 5, 5, 5], 0),
    "with_length_one": ([3, 1, 2, 3], 0),
    "one_long_among_short": ([2, 1, 9, 2, 1, 2], 0),
    "pad_inside_the_window": ([4, 2, 6, 3, 6, 1], 3),
}


def max_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0))


@pytest.mark.parametrize("keep", [None, 0.7], ids=["no_dropout", "dropout"])
@pytest.mark.parametrize("batch", ORACLE_BATCHES)
class TestPackedKernelAgainstMaskedOracle:
    def setup_batch(self, batch, keep):
        rng = np.random.default_rng(sorted(ORACLE_BATCHES).index(batch))
        model = random_model(rng, 3, 4, 10)
        lengths, occlude = ORACLE_BATCHES[batch]
        return model, *random_batch(rng, 4, lengths, keep, occlude)

    def test_forward_and_started_rows_of_the_traces(self, batch, keep):
        model, events, lengths, _, scale, xs = self.setup_batch(batch, keep)
        order = np.argsort(-lengths, kind="stable")
        events, lengths, xs = events[order], lengths[order], xs[order]
        got = _run_batch(model, events, lengths, PoisonedWorkspace(), scale)
        want = masked_run_batch(model, xs, lengths)
        assert max_diff(got.logits, want.logits) <= 1e-12
        assert max_diff(got.probs, want.probs) <= 1e-12
        t_len = events.shape[1]
        for run, ref in ((got.fwd, want.fwd), (got.bwd, want.bwd)):
            assert np.array_equal(one_hot(run.events, 4) * scale, ref.inputs)
            for k, n in enumerate(lengths):
                first = t_len - n  # first step of sample k
                for name in ("pre", "act"):
                    assert max_diff(getattr(run, name)[first:, k],
                                    getattr(ref, name)[first:, k]) <= 1e-12, name
                for name in ("c", "h"):
                    assert max_diff(getattr(run, name)[first:, k],
                                    getattr(ref, name)[first:, k]) <= 1e-12, name
                assert np.array_equal(run.tanh_c[first + 1:, k], np.tanh(run.c[first + 1:, k]))
                # Before its first step a sample holds zero states and gates.
                for arr in (run.act[:first, k], run.c[:first + 1, k], run.h[:first + 1, k],
                            run.tanh_c[:first + 1, k]):
                    assert not arr.any()

    def test_gradients_losses_and_predictions(self, batch, keep):
        model, events, lengths, labels, scale, xs = self.setup_batch(batch, keep)
        grads = _zero_grads(model)
        losses, preds = _batch_backward(model, events, lengths, labels, grads,
                                        PoisonedWorkspace(), scale)
        want = _zero_grads(model)
        want_losses, want_preds = masked_batch_backward(model, xs, lengths, labels, want)
        for (name, g), (_, w) in zip(_named(grads), _named(want)):
            assert max_diff(g, w) <= 1e-12, name
        assert max_diff(losses, want_losses) <= 1e-12
        assert np.array_equal(preds, want_preds)


def test_run_carries_the_layout_of_its_batch():
    # The spans and backward order a run ran with are the ones _alignment
    # derives, so the backward pass and the relevance walk can reuse them.
    rng = np.random.default_rng(6)
    model = random_model(rng, 2, 4, 7)
    events, lengths, _, _, _ = random_batch(rng, 4, [7, 7, 5, 3, 3, 3, 1])
    run = _run_batch(model, events, lengths, Workspace())
    spans, rev = bilstm._alignment(lengths, 7)
    assert len(spans) == 4
    assert run.spans == spans
    assert np.array_equal(run.rev, rev)
    assert np.array_equal(run.bwd.events, events.T[rev, np.arange(7)])


class TestSharedForward:
    """The prefixes of one case read the forward run of its longest row."""

    def test_roots(self):
        rng = np.random.default_rng(13)
        trace = rng.integers(4, size=6).astype(np.int32)
        occluded = trace[:4].copy()
        occluded[1] = 4
        rows = [trace, trace[:3], trace[:5], trace[:5],  # c: the root, prefixes, a repeat
                occluded, trace[:2],  # d: the longer row occluded where the other reads
                np.r_[trace[:2], (trace[2] + 1) % 4],  # e: two rows, neither a prefix
                np.r_[(trace[0] + 1) % 4, trace[1]],  # of the other
                trace[:4]]  # f: one row
        events = np.full((len(rows), 6), 4, dtype=np.int32)
        for row, values in zip(events, rows):
            row[6 - len(values):] = values
        lengths = np.asarray([len(v) for v in rows])
        order = np.argsort(-lengths, kind="stable")
        ids = ["c", "c", "c", "c", "d", "d", "e", "e", "f"]
        root = bilstm._prefix_roots(events, lengths, order, ids)
        # Only c's rows share; a row that shares nothing is its own root.
        assert root.tolist() == [0, 0, 0, 0, 4, 5, 6, 7, 8]
        apart = [str(k) for k in range(9)]
        assert bilstm._prefix_roots(events, lengths, order, apart).tolist() == list(range(9))

    def test_occluded_copy_listed_first_leaves_the_trace_its_root(self):
        # Found by tests/test_sharing_properties.py: a row as long as the
        # case's trace but no prefix of it, drawn before it, took the root
        # and left the trace's prefixes sharing nothing.
        rng = np.random.default_rng(17)
        model = random_model(rng, 3, 4, 6)
        full = PrefixSample(rng.integers(4, size=6).astype(np.int32), 6, None, "c0", 4)
        samples = [occlude_event(full, 1)] + [full.prefix(k) for k in range(2, 7)]
        events, lengths = _stack_events(model, samples)
        order = np.argsort(-lengths, kind="stable")
        assert order[0] == 0  # the occluded copy comes first
        root = bilstm._prefix_roots(events, lengths, order, ["c0"] * 6)
        assert root.tolist() == [0, 5, 5, 5, 5, 5]
        runs = [run for _, run in bilstm._inference_runs(model, events, lengths, Workspace(),
                                                         ["c0"] * 6)]
        # some row reads another row's run: its last step maps before the run's last
        assert any((run.fwd_map[0] < len(run.fwd.events) - len(run.rev)).any() for run in runs)
        apart = [PrefixSample(s.events, s.true_length, None, f"{k}", 4)
                 for k, s in enumerate(samples)]
        assert np.array_equal(predict_many(model, samples), predict_many(model, apart))

    @pytest.mark.parametrize("cap", [6, 40, 1024])
    def test_batches_read_each_row_from_its_root(self, monkeypatch, cap):
        # The forward states of a row at step t are its root run's at step
        # t + offset in the row's root column, and a root reads its own
        # column; the batches stay longest first and within the cap.
        monkeypatch.setattr(bilstm, "_INFERENCE_ROWS", cap)
        rng = np.random.default_rng(14)
        model = random_model(rng, 3, 4, 9)
        log = make_log([["a0", "a1", "a2", "a0", "a1", "a1", "a2", "a0"], ["a1", "a0"],
                        ["a2", "a2", "a0", "a1"], ["a0", "a1", "a2"]])
        dataset = assemble_dataset(log, model.vocab, 9)
        root = bilstm._prefix_roots(dataset.events, dataset.true_lengths,
                                    np.argsort(-dataset.true_lengths, kind="stable"),
                                    dataset.case_ids)
        roots = set(np.flatnonzero(root == np.arange(len(dataset))).tolist())
        assert len(roots) == 4  # one per case: every other row shares
        seen, own = [], 0
        for part, run in bilstm._inference_runs(model, dataset.events, dataset.true_lengths,
                                                Workspace(), dataset.case_ids):
            lengths = dataset.true_lengths[part]
            t_len = int(lengths[0])
            assert (np.diff(lengths) <= 0).all()
            assert len(part) == 1 or len(part) * t_len <= cap
            batch = dataset.events[part, 9 - t_len:]
            assert np.array_equal(run.bwd.events, batch.T[run.rev, np.arange(len(part))])
            offset, col = run.fwd_map  # every batch carries a map
            assert offset.shape == col.shape == (len(part),)
            for k, n in enumerate(lengths):
                steps = np.arange(t_len - n, t_len)
                assert np.array_equal(run.fwd.events[steps + offset[k], col[k]],
                                      batch[k, t_len - n:])
                assert np.array_equal(run.hcat[k, :3], run.fwd.h[t_len + offset[k], col[k]])
                if part[k] in roots:  # a root reads its own column to its end:
                    own += 1  # offset 0 when its batch is as long as its run
                    assert offset[k] == len(run.fwd.events) - t_len
                    assert np.array_equal(run.fwd.events[-n:, col[k]], batch[k, t_len - n:])
            seen += part.tolist()
        assert own == 4
        assert sorted(seen) == list(range(len(dataset)))

    def test_repeated_ids_without_prefixes_run_as_before(self):
        # Rows under one id that are no prefixes of the longest are their own
        # roots, in the batches they ran in without ids: the same bits.
        rng = np.random.default_rng(15)
        model = random_model(rng, 3, 4, 6)
        rows = [[0, 1, 2, 3, 0, 1], [1, 0, 2, 3], [0, 1, 3, 3, 0], [2, 2]]
        samples = [PrefixSample(np.asarray(r, dtype=np.int32), len(r), None, "c", 4)
                   for r in rows]
        events, lengths = _stack_events(model, samples)
        order = np.argsort(-lengths, kind="stable")
        assert bilstm._prefix_roots(events, lengths, order, ["c"] * 4).tolist() == [0, 1, 2, 3]
        apart = [PrefixSample(s.events, s.true_length, None, f"{k}", 4)
                 for k, s in enumerate(samples)]
        assert np.array_equal(predict_many(model, samples), predict_many(model, apart))

    @pytest.mark.parametrize("cap", [12, 1024])
    def test_distinct_ids_equal_batches_run_on_their_own(self, monkeypatch, cap):
        # Rows that share nothing, one per case id as in xnap predict, are
        # their own roots: predict_many gives the bits of each _cut batch
        # run with its own forward pass.
        monkeypatch.setattr(bilstm, "_INFERENCE_ROWS", cap)
        rng = np.random.default_rng(16)
        model = random_model(rng, 4, 5, 9)
        samples = [random_sample(rng, 9, 5, n, f"s{k}")
                   for k, n in enumerate([4, 9, 2, 6, 3, 9, 5, 2, 7, 4, 3])]
        events, lengths = _stack_events(model, samples)
        want = np.empty((len(samples), 5))
        for part, t_len in bilstm._cut(np.argsort(-lengths, kind="stable"), lengths):
            want[part] = _run_batch(model, events[part, 9 - t_len:], lengths[part],
                                    Workspace()).probs
        assert np.array_equal(predict_many(model, samples), want)


def test_run_batch_rejects_a_batch_not_longest_first():
    rng = np.random.default_rng(5)
    model = random_model(rng, 2, 3, 5)
    events, lengths, _, _, _ = random_batch(rng, 3, [2, 4, 3])
    with pytest.raises(ValueError, match="longest first"):
        _run_batch(model, events, lengths, Workspace())
    with pytest.raises(ValueError, match="longest first"):
        _run_batch(model, np.concatenate([np.full((3, 1), 3), events], axis=1), lengths,
                   Workspace())


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax(np.zeros(3)), [1 / 3] * 3)

    def test_stability(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)

    def test_properties_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.normal(scale=10, size=rng.integers(1, 12))
            p = softmax(x)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.argmax(p) == np.argmax(x)

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteInput):
                softmax(np.array([1.0, bad]))

    def test_matches_scalar_math(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.normal(scale=4, size=int(rng.integers(1, 9)))
            top = max(x)
            exps = [math.exp(v - top) for v in x]
            soft = [e / sum(exps) for e in exps]
            assert np.max(np.abs(softmax(x) - soft)) < 1e-12


class TestCrossEntropyOracle:
    """The loss oracle behind ``mean_loss``."""

    def test_certain_prediction(self):
        assert cross_entropy(np.array([1.0, 0.0, 0.0]), 0) == 0.0

    def test_fifty_fifty(self):
        assert cross_entropy(np.array([0.5, 0.5]), 1) == pytest.approx(math.log(2))

    def test_zero_probability_clipped(self):
        loss = cross_entropy(np.array([1.0, 0.0]), 1)
        assert loss == pytest.approx(-math.log(1e-12))
        assert math.isfinite(loss)

    def test_bad_index(self):
        with pytest.raises(ShapeMismatch):
            cross_entropy(np.array([0.5, 0.5]), 2)

    def test_not_a_distribution(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([0.7, 0.7]), 0)


class TestNadam:
    def test_zero_gradient_leaves_params_unchanged(self):
        rng = np.random.default_rng(23)
        params = [rng.normal(size=(3, 2)), rng.normal(size=4)]
        before = [p.copy() for p in params]
        for p in params:
            Nadam(p, 0.002, Workspace()).step(np.zeros_like(p))
        for p, b in zip(params, before):
            assert np.array_equal(p, b)

    def test_descends_a_quadratic(self):
        theta = np.array([5.0, -3.0])
        opt = Nadam(theta, learning_rate=0.05, ws=Workspace())
        for _ in range(500):
            opt.step(2 * theta)  # gradient of ||theta||^2
        assert np.linalg.norm(theta) < 1e-2

    def test_two_steps_match_hand_computed_update(self):
        # Scalar Nadam with beta1 = 0.9, beta2 = 0.999 and epsilon = 1e-7,
        # in the kernel's order of operations, so the bits must agree. The
        # tiny gradients make epsilon and beta2 visible in the result.
        b1, b2, eps, lr = 0.9, 0.999, 1e-7, 0.01
        start = [1.0, -0.5, 0.25, 2.0]
        steps = [[0.3, -2e-7, 1.5e-8, 0.0], [-0.1, 4e-7, 0.0, 3e-8]]
        theta = np.array(start)
        opt = Nadam(theta, learning_rate=lr, ws=Workspace())
        for g in steps:
            opt.step(np.array(g))
        for i, p in enumerate(start):
            m = v = 0.0
            prod = 1.0
            for t, g in enumerate((step[i] for step in steps), start=1):
                mu_t = b1 * (1.0 - 0.5 * 0.96 ** t)
                mu_next = b1 * (1.0 - 0.5 * 0.96 ** (t + 1))
                prod *= mu_t
                m += (g - m) * (1.0 - b1)
                v += (g * g - v) * (1.0 - b2)
                m_hat = m * mu_next / (1.0 - prod * mu_next) + g * (1.0 - mu_t) / (1.0 - prod)
                p -= lr * m_hat / (math.sqrt(v / (1.0 - b2 ** t)) + eps)
            assert theta[i] == p, i


def grammar_datasets(n_traces=60, seed=3, val_traces=6):
    log = generate(linear_grammar(["A", "B", "C"], n_traces, seed=seed))
    vocab = build_vocabulary(log)
    m = max_augmented_length(log)
    cases = log.case_ids
    train_set = assemble_dataset(log.select_cases(cases[val_traces:]), vocab, m)
    val_set = assemble_dataset(log.select_cases(cases[:val_traces]), vocab, m)
    return train_set, val_set


class TestTrain:
    def test_converges_on_deterministic_grammar(self):
        train_set, val_set = grammar_datasets()
        config = TrainConfig(hidden_size=8, batch_size=32, max_epochs=60,
                             patience=10, seed=1)
        model, history = train(train_set, val_set, config)
        assert history[-1].val_accuracy >= 0.99 or \
            max(h.val_accuracy for h in history) >= 0.99
        # overfit check from the spec: A -> B
        sample = dataset_sample(train_set, 0)
        idx, _ = predict(model, sample)
        assert idx == sample.label_index

    def test_loss_strictly_decreasing_first_epochs(self):
        train_set, val_set = grammar_datasets()
        config = TrainConfig(hidden_size=8, batch_size=32, max_epochs=5,
                             patience=10, seed=2)
        _, history = train(train_set, val_set, config)
        losses = [h.train_loss for h in history]
        assert len(losses) == 5
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_early_stopping_returns_best_snapshot(self):
        # Validation labels contradict training labels, so the validation
        # loss worsens from epoch 2 onward.
        train_log = make_log([["A", "B"]] * 8)
        val_log = make_log([["A", "C"]])
        vocab = build_vocabulary(make_log([["A", "B"], ["A", "C"]]))
        train_set = assemble_dataset(train_log, vocab, 3)
        val_set = assemble_dataset(val_log, vocab, 3)
        config = TrainConfig(hidden_size=4, batch_size=8, max_epochs=50,
                             patience=1, dropout_rate=0.0, seed=5)
        model, history = train(train_set, val_set, config)
        assert len(history) == 2  # stopped right after the first bad epoch
        assert model.hyperparams["best_epoch"] == 1
        assert model.trained_epochs == 2

        one_epoch = TrainConfig(hidden_size=4, batch_size=8, max_epochs=1,
                                patience=1, dropout_rate=0.0, seed=5)
        reference, _ = train(train_set, val_set, one_epoch)
        for (_, a), (_, b) in zip(model.param_items(), reference.param_items()):
            assert np.array_equal(a, b)

    def test_same_seed_bit_identical(self):
        train_set, val_set = grammar_datasets(n_traces=20)
        config = TrainConfig(hidden_size=4, batch_size=16, max_epochs=3,
                             patience=5, seed=9)
        m1, h1 = train(train_set, val_set, config)
        m2, h2 = train(train_set, val_set, config)
        for (_, a), (_, b) in zip(m1.param_items(), m2.param_items()):
            assert np.array_equal(a, b)
        assert [s.train_loss for s in h1] == [s.train_loss for s in h2]

    def test_empty_dataset_rejected(self):
        train_set, val_set = grammar_datasets(n_traces=10)
        empty = assemble_dataset(make_log([["A"]]), train_set.vocab, train_set.M)
        with pytest.raises(EmptyDataset):
            train(empty, val_set, TrainConfig())


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("hidden_size", 2.5), ("batch_size", 4.5), ("max_epochs", 1.5), ("patience", 1.5),
        ("seed", 1.5), ("hidden_size", 2.0), ("hidden_size", True), ("seed", False),
        ("patience", "3"), ("max_epochs", None)])
    def test_non_integer_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("hidden_size", 0), ("batch_size", 0), ("max_epochs", 0), ("patience", 0),
        ("seed", -1)])
    def test_out_of_range_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= .*, got {value}$"):
            TrainConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        config = TrainConfig(hidden_size=np.int64(3), batch_size=np.int32(4),
                             max_epochs=np.int64(2), patience=np.uint8(1), seed=np.int64(0))
        assert config.hidden_size == 3 and config.seed == 0
        want = init_model(dummy_vocab(3), 4, TrainConfig(hidden_size=3, seed=0))
        got = init_model(dummy_vocab(3), 4, config)
        for (_, a), (_, b) in zip(got.param_items(), want.param_items()):
            assert np.array_equal(a, b)


class TestFlatLayout:
    """``train`` keeps its weights in one flat buffer: a trained model's
    arrays are disjoint views into it."""

    @pytest.fixture(scope="class")
    def trained(self):
        train_set, val_set = grammar_datasets(n_traces=20)
        config = TrainConfig(hidden_size=4, batch_size=16, max_epochs=2, seed=4)
        return train(train_set, val_set, config)[0], val_set

    def test_arrays_are_disjoint_views_of_one_buffer(self, trained):
        model, _ = trained
        arrays = model.arrays()
        buffer = arrays[0].base
        assert buffer is not None and buffer.size == sum(arr.size for arr in arrays)
        for k, arr in enumerate(arrays):
            assert arr.base is buffer
            assert arr.flags.c_contiguous and arr.flags.writeable
            for other in arrays[k + 1:]:
                assert not np.shares_memory(arr, other)

    def test_a_write_through_param_items_reaches_the_model(self, trained):
        model = copy.deepcopy(trained[0])
        items = dict(model.param_items())
        items["backward.U_g"][-1, -1] = 7.5
        items["b_out"][0] = -2.5
        assert model.backward_params.U[-1, -1] == 7.5
        assert model.b_out[0] == -2.5

    def test_saved_and_pickled_models_predict_the_same_bits(self, trained, tmp_path):
        model, val_set = trained
        save_model(model, tmp_path / "model.json")
        want = predict_dataset(model, val_set)
        sample = dataset_sample(val_set, 0)
        for other in (load_model(tmp_path / "model.json"), pickle.loads(pickle.dumps(model))):
            assert predict_dataset(other, val_set).tobytes() == want.tobytes()
            assert predict(other, sample)[1].tobytes() == predict(model, sample)[1].tobytes()


class PoisonedWorkspace(Workspace):
    """A workspace whose every view is NaN when handed out."""

    def take(self, key, shape):
        view = super().take(key, shape)
        view.fill(np.nan)
        return view


def assert_same_model(a, b):
    for (name, x), (_, y) in zip(a.param_items(), b.param_items()):
        assert np.array_equal(x, y), name


class TestWorkspace:
    def test_views_grow_and_keep_their_buffer(self):
        ws = Workspace()
        a = ws.take("a", (2, 3))
        assert a.shape == (2, 3) and a.flags.c_contiguous
        assert np.shares_memory(ws.take("a", (3, 2)), a)  # fits: same buffer
        big = ws.take("a", (4, 5))
        assert big.shape == (4, 5) and not np.shares_memory(big, a)
        assert np.shares_memory(ws.take("a", (6, 3)), big)  # grown at least 2x
        assert not np.shares_memory(ws.take("b", (4, 5)), big)

    def test_two_trainings_give_identical_weights(self):
        train_set, val_set = grammar_datasets(n_traces=20)
        config = TrainConfig(hidden_size=4, batch_size=16, max_epochs=3, seed=9)
        first, history = train(train_set, val_set, config)
        # A larger training in between grows the shared buffers.
        train(train_set, val_set, TrainConfig(hidden_size=7, batch_size=40,
                                              max_epochs=1, seed=1))
        again, history_again = train(train_set, val_set, config)
        assert_same_model(first, again)
        assert history == history_again

    def test_warm_training_allocates_little_beyond_its_weights(self, monkeypatch):
        # At D=64 with four classes and batches of eight the parameters
        # dominate: the gradients, the best snapshot and Nadam's moments
        # and work arrays come from the workspace, so a warm call's peak
        # is the weights and init_model's draws.
        monkeypatch.setattr(bilstm, "_idle_workspaces", [])
        train_set, val_set = grammar_datasets(n_traces=20)
        config = TrainConfig(hidden_size=64, batch_size=8, max_epochs=2, seed=2)
        train(train_set, val_set, config)
        tracemalloc.start()
        try:
            model, _ = train(train_set, val_set, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        weight_bytes = sum(arr.nbytes for arr in model.arrays())
        assert peak < 3 * weight_bytes, (peak, weight_bytes)

    def test_trained_weights_are_not_borrowed(self, monkeypatch):
        # The next call takes the idle workspace over and writes its
        # buffers: a model living in one would change under its owner.
        monkeypatch.setattr(bilstm, "_idle_workspaces", [])
        train_set, val_set = grammar_datasets(n_traces=20)
        model, _ = train(train_set, val_set, TrainConfig(hidden_size=4, batch_size=16,
                                                         max_epochs=2, seed=6))
        assert len(bilstm._idle_workspaces) == 1
        buffers = [buf for buf, _ in bilstm._idle_workspaces[0]._slots.values()]
        assert {"train.grads", "train.best", "nadam.m", "nadam.v"} <= \
            set(bilstm._idle_workspaces[0]._slots)
        for arr in model.arrays():
            assert not any(np.shares_memory(arr, buf) for buf in buffers)

    def test_garbage_in_the_workspace_changes_nothing(self, monkeypatch):
        train_set, val_set = grammar_datasets(n_traces=20)
        config = TrainConfig(hidden_size=4, batch_size=16, max_epochs=2, seed=3)
        model, history = train(train_set, val_set, config)
        probs = predict_dataset(model, val_set)
        samples = [dataset_sample(val_set, i) for i in range(len(val_set))
                   if val_set.true_lengths[i] >= 2]
        relevance = explain_many(model, samples)
        monkeypatch.setattr(bilstm, "_idle_workspaces", [PoisonedWorkspace()])
        poisoned_model, poisoned_history = train(train_set, val_set, config)
        assert_same_model(model, poisoned_model)
        assert history == poisoned_history
        assert np.array_equal(predict_dataset(model, val_set), probs)
        for want, got in zip(relevance, explain_many(model, samples)):
            assert np.array_equal(want.raw, got.raw)
            assert (want.bias_absorbed, want.initial_state_relevance) == \
                (got.bias_absorbed, got.initial_state_relevance)

    def test_chunked_predict_dataset_equals_per_sample(self, monkeypatch):
        rng = np.random.default_rng(8)
        model = random_model(rng, 5, 4, 9)
        log = make_log([["a0", "a1", "a2", "a0", "a1", "a1", "a2", "a0"],
                        ["a1", "a0"], ["a2", "a2", "a0", "a1"], ["a0", "a1", "a2"]])
        dataset = assemble_dataset(log, model.vocab, 9)
        monkeypatch.setattr(bilstm, "_INFERENCE_ROWS", 7)
        runs = bilstm._inference_runs(model, dataset.events, dataset.true_lengths, Workspace(),
                                      dataset.case_ids)
        assert len(list(runs)) > 3
        probs = predict_dataset(model, dataset)
        for i in range(len(dataset)):
            _, want = predict(model, dataset_sample(dataset, i))
            assert np.allclose(probs[i], want, rtol=0, atol=1e-12)
        # predict_many runs the same batches through the same loop: the same bits.
        samples = [dataset_sample(dataset, i) for i in range(len(dataset))]
        assert np.array_equal(predict_many(model, samples), probs)

    def test_results_do_not_alias_reused_buffers(self, monkeypatch):
        # Start from an empty pool: the first call makes the workspace that
        # every later call takes over.
        monkeypatch.setattr(bilstm, "_idle_workspaces", [])
        rng = np.random.default_rng(4)
        model = random_model(rng, 4, 5, 8)
        samples = [random_sample(rng, 8, 5, n, f"s{n}") for n in (2, 5, 8, 3)]
        trace = forward(model, samples[2])
        frozen = [arr.copy() for arr in (trace.fwd.act, trace.fwd.c, trace.bwd.h,
                                         trace.bwd.pre, trace.logits, trace.probs)]
        # The prefixes of one case share its forward run and walk cells.
        log = make_log([["a0", "a1", "a3", "a2", "a0", "a1", "a2"]])
        dataset = assemble_dataset(log, model.vocab, 8)
        prefixes = [dataset_sample(dataset, i) for i in range(1, len(dataset))]
        results = explain_many(model, samples) + [explain(model, samples[3])] \
            + explain_many(model, prefixes)
        raws = [r.raw.copy() for r in results]
        displays = [r.display.copy() for r in results]
        _, probs = predict(model, samples[0])
        shared = predict_dataset(model, dataset)
        kept, kept_shared = probs.copy(), shared.copy()
        # Later calls reuse the idle workspace with other shapes and values.
        other = random_model(rng, 4, 5, 8)
        explain_many(other, [random_sample(rng, 8, 5, 7)] * 30)
        explain(other, random_sample(rng, 8, 5, 6))
        predict(other, samples[1])
        explain_many(other, prefixes[::-1])
        predict_dataset(other, dataset)
        assert len(bilstm._idle_workspaces) == 1
        assert all(np.array_equal(a, b) for a, b in zip(
            frozen, (trace.fwd.act, trace.fwd.c, trace.bwd.h, trace.bwd.pre,
                     trace.logits, trace.probs)))
        assert all(np.array_equal(r.raw, raw) for r, raw in zip(results, raws))
        assert all(np.array_equal(r.display, d) for r, d in zip(results, displays))
        assert np.array_equal(probs, kept)
        assert np.array_equal(shared, kept_shared)
        for buf, _ in bilstm._idle_workspaces[0]._slots.values():
            assert not any(np.shares_memory(buf, r.raw) or np.shares_memory(buf, r.display)
                           for r in results)
            assert not np.shares_memory(buf, probs)
            assert not np.shares_memory(buf, shared)

    @pytest.mark.parametrize("call", [predict_many, explain_many])
    def test_forward_keeps_its_own_workspace(self, monkeypatch, call):
        # forward returns its arrays, so it must not run in a workspace
        # that a later call takes over and fills. The first call grows
        # the idle workspace's buffers, so the later one would write over
        # every array a borrowing forward had taken from them.
        rng = np.random.default_rng(12)
        model = random_model(rng, 3, 4, 6)
        samples = [random_sample(rng, 6, 4, n, f"s{n}") for n in (6, 4, 2)]
        monkeypatch.setattr(bilstm, "_idle_workspaces", [PoisonedWorkspace()])
        call(model, samples)
        trace = forward(model, samples[0])
        frozen = [arr.copy() for arr in (trace.fwd.pre, trace.fwd.act, trace.fwd.c,
                                         trace.bwd.h, trace.bwd.tanh_c, trace.logits)]
        call(model, samples)
        assert all(np.array_equal(a, b) for a, b in zip(
            frozen, (trace.fwd.pre, trace.fwd.act, trace.fwd.c, trace.bwd.h,
                     trace.bwd.tanh_c, trace.logits)))


def saved_v1_and_v2(model) -> tuple[str, str]:
    """The model file of ``model`` in format 1 (the oracle writer) and in
    format 2 (``save_model``)."""
    v1, v2 = io.StringIO(), io.StringIO()
    save_model_v1(model, v1)
    save_model(model, v2)
    return v1.getvalue(), v2.getvalue()


class TestSerialization:
    def test_round_trip_bit_identical_forward(self):
        rng = np.random.default_rng(31)
        model = random_model(rng, 5, 4, 6)
        buf = io.StringIO()
        save_model(model, buf)
        loaded = load_model(io.StringIO(buf.getvalue()))
        for (na, a), (nb, b) in zip(model.param_items(), loaded.param_items()):
            assert na == nb
            assert np.array_equal(a, b)
        assert loaded.vocab.labels == model.vocab.labels
        assert loaded.max_len == model.max_len
        sample = random_sample(rng, 6, 4, 3)
        assert np.array_equal(forward(model, sample).logits,
                              forward(loaded, sample).logits)

    def test_version_mismatch(self):
        rng = np.random.default_rng(33)
        model = random_model(rng, 2, 3, 3)
        buf = io.StringIO()
        save_model(model, buf)
        doc = json.loads(buf.getvalue())
        doc["format_version"] = 0
        with pytest.raises(VersionMismatch, match="model format 0, expected one of 1, 2"):
            load_model(io.StringIO(json.dumps(doc)))

    def test_v1_and_v2_files_load_identically(self):
        rng = np.random.default_rng(39)
        model = random_model(rng, 4, 5, 6)
        v1, v2 = saved_v1_and_v2(model)
        assert json.loads(v1)["format_version"] == 1
        assert json.loads(v2)["format_version"] == 2
        from_v1, from_v2 = load_model(io.StringIO(v1)), load_model(io.StringIO(v2))
        names = [name for name, _ in model.param_items()]
        assert [name for name, _ in from_v1.param_items()] == names
        assert [name for name, _ in from_v2.param_items()] == names
        for (_, want), (_, a), (_, b) in zip(model.param_items(), from_v1.param_items(),
                                             from_v2.param_items()):
            assert a.tobytes() == b.tobytes() == want.tobytes()
        assert from_v1.hyperparams == from_v2.hyperparams
        assert from_v1.trained_epochs == from_v2.trained_epochs
        samples = [random_sample(rng, 6, 5, n, f"t{n}") for n in range(2, 7)]
        assert np.array_equal(predict_many(from_v1, samples), predict_many(from_v2, samples))
        for a, b in zip(explain_many(from_v1, samples), explain_many(from_v2, samples)):
            assert np.array_equal(a.raw, b.raw)
            assert a.model_output == b.model_output and a.target_class == b.target_class

    @pytest.mark.parametrize("version", [1, 2])
    def test_loaded_arrays_are_writable_and_unshared(self, version):
        model = random_model(np.random.default_rng(40), 3, 4, 5)
        loaded = load_model(io.StringIO(saved_v1_and_v2(model)[version - 1]))
        arrays = loaded.arrays()
        for arr in arrays:
            assert arr.dtype == np.float64 and arr.dtype.isnative
            assert arr.flags.writeable and arr.flags.c_contiguous
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        dict(loaded.param_items())["forward.W_f"][0, 0] = 5.0  # writes reach the model
        assert loaded.forward_params.W[loaded.forward_params.rows("f")][0, 0] == 5.0

    @pytest.mark.parametrize("field, spoil", [
        ("base64", lambda v: "*" + v[1:]),
        ("base64", lambda v: v[:-1]),
        ("base64", lambda v: base64.b64encode(base64.b64decode(v) + bytes(8)).decode()),
        ("base64", lambda v: base64.b64encode(base64.b64decode(v)[:-8]).decode()),
        ("shape", lambda v: v[::-1]),
        ("shape", lambda v: v + [1]),
        ("dtype", lambda v: "<f4"),
        ("dtype", lambda v: ">f8"),
    ], ids=["bad_character", "bad_padding", "8_bytes_more", "8_bytes_fewer",
            "transposed_shape", "extra_axis", "float32", "big_endian"])
    def test_corrupt_array_rejected(self, field, spoil):
        model = random_model(np.random.default_rng(41), 2, 3, 3)
        doc = json.loads(saved_v1_and_v2(model)[1])
        entry = doc["forward"]["W"]  # (8, 3)
        entry[field] = spoil(entry[field])
        with pytest.raises(CorruptModel, match=r"forward\.W "):
            load_model(io.StringIO(json.dumps(doc)))

    def test_truncated_file(self):
        rng = np.random.default_rng(34)
        model = random_model(rng, 2, 3, 3)
        buf = io.StringIO()
        save_model(model, buf)
        with pytest.raises(CorruptModel):
            load_model(io.StringIO(buf.getvalue()[: len(buf.getvalue()) // 2]))

    def test_non_finite_weights_rejected(self):
        rng = np.random.default_rng(36)
        for bad in (np.nan, np.inf):
            model = random_model(rng, 2, 3, 3)
            model.backward_params.U[1, 0] = bad
            buf = io.StringIO()
            save_model(model, buf)
            with pytest.raises(CorruptModel):
                load_model(io.StringIO(buf.getvalue()))

    def test_failed_save_leaves_old_file(self, tmp_path):
        rng = np.random.default_rng(37)
        model = random_model(rng, 2, 3, 3)
        path = tmp_path / "model.json"
        save_model(model, path)
        before = path.read_bytes()
        # json.dump has written the leading keys when it reaches this value
        model.hyperparams["note"] = object()
        with pytest.raises(TypeError):
            save_model(model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_file_with_optimiser_settings_loads_and_predicts(self):
        # Model files once stored the Nadam settings among the hyperparameters.
        rng = np.random.default_rng(38)
        model = random_model(rng, 3, 4, 5)
        buf = io.StringIO()
        save_model(model, buf)
        doc = json.loads(buf.getvalue())
        assert not {"beta1", "beta2", "epsilon_opt"} & set(doc["hyperparams"])
        doc["hyperparams"].update(beta1=0.9, beta2=0.999, epsilon_opt=1e-7)
        loaded = load_model(io.StringIO(json.dumps(doc)))
        assert loaded.hyperparams["beta2"] == 0.999
        sample = random_sample(rng, 5, 4, 3)
        want_index, want = predict(model, sample)
        index, probs = predict(loaded, sample)
        assert index == want_index and np.array_equal(probs, want)

    def test_missing_key(self):
        rng = np.random.default_rng(35)
        model = random_model(rng, 2, 3, 3)
        buf = io.StringIO()
        save_model(model, buf)
        doc = json.loads(buf.getvalue())
        del doc["W_out"]
        with pytest.raises(CorruptModel):
            load_model(io.StringIO(json.dumps(doc)))
