import io
import json
import math

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
from xnap.lrp import explain_many
from xnap.synthlog import generate, linear_grammar

from conftest import make_log
from oracles import (
    cross_entropy,
    dataset_sample,
    masked_batch_backward,
    masked_run_batch,
    naive_bilstm_probs,
    one_hot,
    predict_per_sample,
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
    order, with its lengths, random labels, and input dropout scales when
    ``keep`` is given (else None). ``occlude`` rows then get one true event
    set to the pad index ``h``."""
    lengths = np.asarray(lengths)
    t_len = int(lengths.max())
    events = np.full((len(lengths), t_len), h, dtype=np.int32)
    for k, n in enumerate(lengths):
        events[k, t_len - n:] = rng.integers(h, size=n)
    scales = None if keep is None else _drop_inputs(events, lengths, h, rng, keep)
    labels = rng.integers(h, size=len(lengths))
    for k in rng.choice(len(lengths), size=occlude, replace=False):
        events[k, t_len - int(rng.integers(1, lengths[k] + 1))] = h
    return events, lengths, labels, scales


def dense_inputs(events, scales, h: int):
    """The one-hot input rows of an index batch, each scaled by its dropout
    scale when given: what the dense oracles take."""
    xs = one_hot(events, h)
    return xs if scales is None else xs * scales[..., None]


def one_sample_run(model, sample, mask=None):
    """The kernel's forward pass over one sample as a batch of one, its
    true events scaled by ``mask`` (one scale per event) when given."""
    return _run_batch(model, *_stack_events(model, [sample]),
                      None if mask is None else mask[None, :])


def one_sample_grads(model, sample, mask=None) -> dict:
    """The kernel's gradients of one sample's loss, as a training batch of
    one with input scales ``mask`` when given."""
    grads = _zero_grads(model)
    _batch_backward(model, *_stack_events(model, [sample]),
                    None if mask is None else mask[None, :],
                    np.asarray([sample.label_index]), grads)
    return dict(_named(grads))


class TestForward:
    def test_zero_weights_force_uniform_output(self):
        model = init_model(dummy_vocab(3), 4, TrainConfig(hidden_size=5, seed=0))
        for _, arr in model.param_items():
            arr[...] = 0.0
        rng = np.random.default_rng(0)
        trace = forward(model, random_sample(rng, 4, 3, 3))
        assert np.allclose(trace.fwd.gate_i, 0.5)
        assert np.allclose(trace.fwd.cand, 0.0)
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
        assert np.array_equal(trace.fwd.events, suffix)
        assert np.array_equal(trace.bwd.events, suffix[::-1])
        assert trace.fwd.scales is None and trace.bwd.scales is None

    def test_dropout_mask_applies_to_inputs(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 3, 3, 4)
        sample = random_sample(rng, 4, 3, 2)
        trace = one_sample_run(model, sample, np.zeros(2))
        zeroed = forward(model, PrefixSample(np.full(4, 3), 2, 0, "t", 3))
        assert np.array_equal(trace.logits[0], zeroed.logits)
        half = one_sample_run(model, sample, np.asarray([0.5, 2.0]))
        scaled = naive_bilstm_probs(model, (sample.x[2:] * [[0.5], [2.0]]).tolist())[0]
        assert np.max(np.abs(half.logits[0] - scaled)) < 1e-12

    def test_non_finite_input_or_weight_raises(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 3, 3, 4)
        sample = random_sample(rng, 4, 3, 3)
        with pytest.raises(NonFiniteInput):
            one_sample_run(model, sample, np.asarray([1.0, np.nan, 1.0]))
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
        lengths = np.asarray([s.true_length for s in samples])
        assert len(list(bilstm._inference_chunks(lengths))) > 3
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
    return sum(cross_entropy(forward(model, s).probs, s.label_index)
               for s in samples) / len(samples)


class TestBackward:
    def test_output_bias_gradient_closed_form(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, 3, 4, 5)
        sample = random_sample(rng, 5, 4, 3)
        probs = forward(model, sample).probs
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
        mask = (rng.random(3) < 0.8) / 0.8
        grads = one_sample_grads(model, sample, mask)

        def loss():
            probs = one_sample_run(model, sample, mask).probs[0]
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
        dropouts = [(rng.random(n) < 0.7) / 0.7 for n in lengths]
        for masks in ([None] * len(samples), dropouts):
            scales = None
            if masks[0] is not None:
                scales = np.zeros(events.shape)
                for k, mask in enumerate(masks):
                    scales[k, t_len - lengths[k]:] = mask
            total = {name: np.zeros_like(arr) for name, arr in model.param_items()}
            for s, mask in zip(samples, masks):
                for name, g in one_sample_grads(model, s, mask).items():
                    total[name] += g
            order = np.argsort(-lengths, kind="stable")
            run = _run_batch(model, events[order], lengths[order],
                             None if scales is None else scales[order])
            for row, k in enumerate(order):
                trace = one_sample_run(model, samples[k], masks[k])
                assert np.max(np.abs(run.logits[row] - trace.logits[0])) <= 1e-12
                assert np.max(np.abs(run.probs[row] - trace.probs[0])) <= 1e-12
            batched = _zero_grads(model)
            _batch_backward(model, events, lengths, scales, labels, batched)
            for name, g in _named(batched):
                assert np.max(np.abs(total[name] - g)) <= 1e-12, name

    def test_batched_dropout_draw_matches_per_sample_draws(self):
        # The scales are the dense per-sample masks at each event's active
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
        scales = _drop_inputs(events, lengths, h, np.random.default_rng(23), keep)
        assert np.array_equal(dense_inputs(events, scales, h), expected)
        assert not scales[events == h].any()  # nothing before a sample starts


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
        model, events, lengths, _, scales = self.setup_batch(batch, keep)
        order = np.argsort(-lengths, kind="stable")
        events, lengths = events[order], lengths[order]
        scales = None if scales is None else scales[order]
        got = _run_batch(model, events, lengths, scales, PoisonedWorkspace())
        want = masked_run_batch(model, dense_inputs(events, scales, 4), lengths)
        assert max_diff(got.logits, want.logits) <= 1e-12
        assert max_diff(got.probs, want.probs) <= 1e-12
        t_len = events.shape[1]
        for run, ref in ((got.fwd, want.fwd), (got.bwd, want.bwd)):
            assert np.array_equal(dense_inputs(run.events, run.scales, 4), ref.inputs)
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
        model, events, lengths, labels, scales = self.setup_batch(batch, keep)
        grads = _zero_grads(model)
        losses, preds = _batch_backward(model, events, lengths, scales, labels, grads,
                                        PoisonedWorkspace())
        want = _zero_grads(model)
        want_losses, want_preds = masked_batch_backward(
            model, dense_inputs(events, scales, 4), lengths, labels, want)
        for (name, g), (_, w) in zip(_named(grads), _named(want)):
            assert max_diff(g, w) <= 1e-12, name
        assert max_diff(losses, want_losses) <= 1e-12
        assert np.array_equal(preds, want_preds)


def test_run_batch_rejects_a_batch_not_longest_first():
    rng = np.random.default_rng(5)
    model = random_model(rng, 2, 3, 5)
    events, lengths, _, _ = random_batch(rng, 3, [2, 4, 3])
    with pytest.raises(ValueError, match="longest first"):
        _run_batch(model, events, lengths)
    with pytest.raises(ValueError, match="longest first"):
        _run_batch(model, np.concatenate([np.full((3, 1), 3), events], axis=1), lengths)


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
        opt = Nadam(params, 0.002)
        opt.step([np.zeros_like(p) for p in params])
        for p, b in zip(params, before):
            assert np.array_equal(p, b)

    def test_descends_a_quadratic(self):
        theta = np.array([5.0, -3.0])
        opt = Nadam([theta], learning_rate=0.05)
        for _ in range(500):
            opt.step([2 * theta])  # gradient of ||theta||^2
        assert np.linalg.norm(theta) < 1e-2

    def test_two_steps_match_hand_computed_update(self):
        # Scalar Nadam with beta1 = 0.9, beta2 = 0.999 and epsilon = 1e-7,
        # in the kernel's order of operations, so the bits must agree. The
        # tiny gradients make epsilon and beta2 visible in the result.
        b1, b2, eps, lr = 0.9, 0.999, 1e-7, 0.01
        start = [1.0, -0.5, 0.25, 2.0]
        steps = [[0.3, -2e-7, 1.5e-8, 0.0], [-0.1, 4e-7, 0.0, 3e-8]]
        theta = np.array(start)
        opt = Nadam([theta], learning_rate=lr)
        for g in steps:
            opt.step([np.array(g)])
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
        assert len(list(bilstm._inference_chunks(dataset.true_lengths))) > 3
        probs = predict_dataset(model, dataset)
        for i in range(len(dataset)):
            _, want = predict(model, dataset_sample(dataset, i))
            assert np.allclose(probs[i], want, rtol=0, atol=1e-12)
        # predict_many runs the same batches through the same loop: the same bits.
        samples = [dataset_sample(dataset, i) for i in range(len(dataset))]
        assert np.array_equal(predict_many(model, samples), probs)

    def test_results_do_not_alias_reused_buffers(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 4, 5, 8)
        samples = [random_sample(rng, 8, 5, n, f"s{n}") for n in (2, 5, 8, 3)]
        trace = forward(model, samples[2])
        frozen = [arr.copy() for arr in (trace.fwd.act, trace.fwd.c, trace.bwd.h,
                                         trace.bwd.pre, trace.logits, trace.probs)]
        results = explain_many(model, samples)
        raws = [r.raw.copy() for r in results]
        _, probs = predict(model, samples[0])
        kept = probs.copy()
        # Later calls reuse the idle workspace with other shapes and values.
        explain_many(random_model(rng, 4, 5, 8), [random_sample(rng, 8, 5, 7)] * 30)
        predict(model, samples[1])
        assert all(np.array_equal(a, b) for a, b in zip(
            frozen, (trace.fwd.act, trace.fwd.c, trace.bwd.h, trace.bwd.pre,
                     trace.logits, trace.probs)))
        assert all(np.array_equal(r.raw, raw) for r, raw in zip(results, raws))
        assert np.array_equal(probs, kept)
        for ws in bilstm._idle_workspaces:
            for buf, _ in ws._slots.values():
                assert not any(np.shares_memory(buf, r.raw) for r in results)
                assert not np.shares_memory(buf, probs)


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
        with pytest.raises(VersionMismatch):
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
