from dataclasses import replace

import numpy as np
import pytest

from xnap import bilstm, lrp
from xnap.bilstm import TrainConfig, init_model, forward
from xnap.encoding import occlude_event
from xnap.errors import ShapeMismatch, TraceTooShort
from xnap.lrp import LrpConfig, _output_relevance, _rescale_columns, explain, explain_many

import oracles
from oracles import _bias_absorption, _lrp_linear, explain_per_sample, rescale_for_display
from test_bilstm import dummy_vocab, random_model, random_sample


def assert_matches_oracle(got, want, rtol=1e-12):
    """Equal up to rounding: each difference at most ``rtol`` times the
    decomposition's scale (the model output or the largest relevance)."""
    scale = max(abs(want.model_output), float(np.abs(want.raw).max()))
    assert got.case_id == want.case_id
    assert got.target_class == want.target_class
    assert got.raw.shape == want.raw.shape
    assert np.abs(got.raw - want.raw).max() <= rtol * scale
    for name in ("model_output", "initial_state_relevance", "bias_absorbed"):
        assert abs(getattr(got, name) - getattr(want, name)) <= rtol * scale, name
    assert got.gate_relevance == want.gate_relevance == 0.0


ORACLE_CONFIGS = [
    LrpConfig(),
    LrpConfig(delta=1.0),
    LrpConfig(target=1),
    LrpConfig(target=2),
    LrpConfig(epsilon=1e-6, delta=1.0),
]


class TestLrpLinear:
    # The per-sample epsilon rule of the oracles, and the package's
    # output-layer rule from the target logit against it.
    def test_symmetric_split(self):
        r = _lrp_linear(np.array([1.0, 1.0]), np.array([[0.5, 0.5]]),
                        np.array([0.0]), np.array([1.0]), np.array([1.0]),
                        epsilon=0.0, delta=0.0)
        assert np.allclose(r, [0.5, 0.5])

    def test_bias_share_hand_example(self):
        # z_upper = 0.5 + 0.5 + 1 = 2; delta=1 routes the bias evenly:
        # each message = (0.5 + 1/2) / 2 = 0.5, and the total is conserved.
        r = _lrp_linear(np.array([1.0, 1.0]), np.array([[0.5, 0.5]]),
                        np.array([1.0]), np.array([2.0]), np.array([1.0]),
                        epsilon=0.0, delta=1.0)
        assert np.allclose(r, [0.5, 0.5])
        assert r.sum() == pytest.approx(1.0)

    def test_conservation_random_instances(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            n, m = 6, 4
            z_lower = rng.normal(size=n)
            w = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            z_upper = w @ z_lower + b
            r_upper = rng.normal(size=m)
            # delta=1: conserved to float precision (1e-6 required)
            r = _lrp_linear(z_lower, w, b, z_upper, r_upper, epsilon=0.001, delta=1.0)
            assert abs(r.sum() - r_upper.sum()) < 1e-6
            # delta=0: the gap is exactly the closed-form bias absorption
            r0 = _lrp_linear(z_lower, w, b, z_upper, r_upper, epsilon=0.001, delta=0.0)
            absorbed = _bias_absorption(b, z_upper, r_upper, epsilon=0.001, delta=0.0)
            assert abs((r_upper.sum() - r0.sum()) - absorbed) < 1e-9

    def test_exact_conservation_without_stabiliser(self):
        # eps=0, delta=1: the rule conserves relevance exactly (1e-9).
        rng = np.random.default_rng(20)
        for _ in range(30):
            z_lower = rng.normal(size=5)
            w = rng.normal(size=(3, 5))
            b = rng.normal(size=3)
            z_upper = w @ z_lower + b
            r_upper = rng.normal(size=3)
            r = _lrp_linear(z_lower, w, b, z_upper, r_upper, epsilon=0.0, delta=1.0)
            assert abs(r.sum() - r_upper.sum()) < 1e-9

    def test_sign_zero_is_positive(self):
        # z_upper = 0 exactly: the stabilised denominator must be +epsilon.
        r = _lrp_linear(np.array([1.0]), np.array([[0.0]]), np.array([0.0]),
                        np.array([0.0]), np.array([1.0]), epsilon=0.5, delta=0.0)
        # message = (0 + 0.5/1) / 0.5 = 1.0
        assert np.allclose(r, [1.0])

    def test_equals_summed_dense_messages(self):
        # The message matrix, summed one scalar message at a time.
        rng = np.random.default_rng(30)
        for delta in (0.0, 1.0):
            for _ in range(20):
                z_lower = rng.normal(size=7)
                w = rng.normal(size=(5, 7))
                b = rng.normal(size=5)
                z_upper = w @ z_lower + b
                r_upper = rng.normal(size=5)
                want = np.zeros(7)
                for j in range(5):
                    stab = 0.01 if z_upper[j] >= 0 else -0.01
                    for i in range(7):
                        want[i] += (w[j, i] * z_lower[i] + (stab + delta * b[j]) / 7) \
                            * r_upper[j] / (z_upper[j] + stab)
                got = _lrp_linear(z_lower, w, b, z_upper, r_upper, 0.01, delta)
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_batch_rows_equal_single_calls(self):
        # The output layer's rule from each row's target logit gives every
        # row the bits of the oracle's dense rule from a one-hot relevance.
        rng = np.random.default_rng(31)
        hcat = rng.normal(size=(6, 4))
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        logits = hcat @ w.T + b
        targets = np.array([0, 1, 2, 2, 1, 0])
        z = logits[np.arange(6), targets]
        r_hcat, absorbed = _output_relevance(hcat, w, b, z, targets, LrpConfig())
        assert r_hcat.shape == (6, 4) and absorbed.shape == (6,)
        for k in range(6):
            r_upper = np.zeros(3)
            r_upper[targets[k]] = z[k]
            assert np.array_equal(r_hcat[k], _lrp_linear(hcat[k], w, b, logits[k], r_upper,
                                                         0.001, 0.0))
            assert absorbed[k] == _bias_absorption(b, logits[k], r_upper, 0.001, 0.0)


class TestLrpMultiplicative:
    # The oracle walk's product rule; the package applies it in place.
    def test_rule_is_literal(self):
        gate, source = oracles._lrp_multiplicative(np.array([1.0, -2.0]))
        assert np.array_equal(gate, [0.0, 0.0])
        assert np.array_equal(source, [1.0, -2.0])

    def test_zero_input(self):
        gate, source = oracles._lrp_multiplicative(np.zeros(3))
        assert not gate.any() and not source.any()

    def test_conservation(self):
        rng = np.random.default_rng(4)
        r = rng.normal(size=5)
        gate, source = oracles._lrp_multiplicative(r)
        assert np.array_equal(gate + source, r)


class TestExplain:
    def test_zero_weight_model_yields_neutral_relevance(self):
        model = init_model(dummy_vocab(3), 5, TrainConfig(hidden_size=4, seed=0))
        for _, arr in model.param_items():
            arr[...] = 0.0
        rng = np.random.default_rng(0)
        sample = random_sample(rng, 5, 3, 4)
        result = explain(model, sample)
        assert np.allclose(result.raw, 0.0)
        assert np.allclose(result.display, 0.5)
        assert result.model_output == 0.0

    def test_conservation_delta_one(self):
        rng = np.random.default_rng(21)
        config = LrpConfig(epsilon=1e-6, delta=1.0)
        for _ in range(20):
            model = random_model(rng, 4, 3, 6)
            sample = random_sample(rng, 6, 3, 4)
            result = explain(model, sample, config)
            assert abs(result.model_output) > 1e-4  # non-degenerate draw
            total = result.raw.sum() + result.initial_state_relevance
            assert abs(total - result.model_output) / abs(result.model_output) < 1e-9
            assert result.bias_absorbed == 0.0

    def test_delta_zero_gap_is_reconstructable_bias_absorption(self):
        rng = np.random.default_rng(22)
        config = LrpConfig(epsilon=1e-3, delta=0.0)
        for _ in range(20):
            model = random_model(rng, 4, 3, 6)
            sample = random_sample(rng, 6, 3, 4)
            result = explain(model, sample, config)
            total = result.raw.sum() + result.initial_state_relevance
            gap = result.model_output - total
            scale = max(abs(result.model_output), 1.0)
            assert abs(gap - result.bias_absorbed) / scale < 1e-9

    def test_gate_relevance_is_exactly_zero(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            model = random_model(rng, 3, 4, 5)
            sample = random_sample(rng, 5, 4, 3)
            result = explain(model, sample, LrpConfig(delta=float(rng.integers(2))))
            assert result.gate_relevance == 0.0

    def test_bit_deterministic(self):
        rng = np.random.default_rng(24)
        model = random_model(rng, 4, 3, 5)
        sample = random_sample(rng, 5, 3, 4)
        a = explain(model, sample)
        b = explain(model, sample)
        assert np.array_equal(a.raw, b.raw)
        assert np.array_equal(a.display, b.display)

    def test_guards(self):
        rng = np.random.default_rng(25)
        model = random_model(rng, 3, 3, 4)
        short = random_sample(rng, 4, 3, 1)
        with pytest.raises(TraceTooShort):
            explain(model, short)
        sample = random_sample(rng, 4, 3, 2)
        with pytest.raises(ShapeMismatch):
            explain(model, sample, LrpConfig(target=3))

    def test_explicit_target_starts_from_its_logit(self):
        rng = np.random.default_rng(26)
        model = random_model(rng, 3, 3, 4)
        sample = random_sample(rng, 4, 3, 3)
        trace = forward(model, sample)
        by_logit = explain(model, sample, LrpConfig(target=1))
        assert by_logit.target_class == 1
        assert by_logit.model_output == pytest.approx(float(trace.logits[0, 1]))
        assert by_logit.target_prob == pytest.approx(float(trace.probs[0, 1]))

    def test_relevance_length_matches_events(self):
        rng = np.random.default_rng(27)
        model = random_model(rng, 4, 3, 8)
        for length in (2, 3, 5, 8):
            sample = random_sample(rng, 8, 3, length)
            assert len(explain(model, sample)) == length

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LrpConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            LrpConfig(delta=0.5)

    @pytest.mark.parametrize("target", [1.5, 2.0, True, False, "1", np.float64(1.0)])
    def test_non_integer_target_rejected(self, target):
        with pytest.raises(ValueError, match="^target must be an integer or None"):
            LrpConfig(target=target)

    def test_numpy_integer_target_equals_int(self):
        rng = np.random.default_rng(28)
        model = random_model(rng, 3, 3, 4)
        sample = random_sample(rng, 4, 3, 3)
        for target in (np.int64(2), np.int32(2), np.uint8(2)):
            got = explain(model, sample, LrpConfig(target=target))
            want = explain(model, sample, LrpConfig(target=2))
            assert got.target_class == 2 and type(got.target_class) is int
            assert np.array_equal(got.raw, want.raw)
            assert got.model_output == want.model_output
        with pytest.raises(ShapeMismatch):  # the range check stays with the model
            explain(model, sample, LrpConfig(target=np.int64(3)))


class TestExplainMany:
    @pytest.mark.parametrize("config", ORACLE_CONFIGS)
    def test_mixed_lengths_match_oracle_in_input_order(self, config):
        rng = np.random.default_rng(40)
        model = random_model(rng, 4, 5, 9)
        lengths = rng.permutation(np.repeat(np.arange(2, 10), 2))
        samples = [random_sample(rng, 9, 5, int(n), f"s{i}")
                   for i, n in enumerate(lengths)]
        results = explain_many(model, samples, config)
        assert [r.case_id for r in results] == [s.case_id for s in samples]
        for sample, result in zip(samples, results):
            assert_matches_oracle(result, explain_per_sample(model, sample, config))

    @pytest.mark.parametrize("config", ORACLE_CONFIGS[:2])
    def test_chunk_split_matches_oracle(self, monkeypatch, config):
        # 10 rows per chunk: several chunks, and length-12 samples run alone.
        monkeypatch.setattr(bilstm, "_INFERENCE_ROWS", 10)
        rng = np.random.default_rng(41)
        model = random_model(rng, 3, 4, 12)
        samples = [random_sample(rng, 12, 4, int(n), f"s{i}")
                   for i, n in enumerate([3, 12, 2, 5, 12, 4, 2, 7, 3])]
        results = explain_many(model, samples, config)
        assert [len(r) for r in results] == [s.true_length for s in samples]
        for sample, result in zip(samples, results):
            assert_matches_oracle(result, explain_per_sample(model, sample, config))

    @pytest.mark.parametrize("config", ORACLE_CONFIGS[:2])
    def test_occluded_samples_match_oracle(self, config):
        # A pad index inside the window: the step runs on a zero input row,
        # and the event's own relevance is only its share of the stabiliser.
        rng = np.random.default_rng(44)
        model = random_model(rng, 4, 5, 8)
        samples = [random_sample(rng, 8, 5, n, f"s{n}") for n in (6, 3, 8, 2)]
        occluded = [occlude_event(s, k) for s, k in zip(samples, (2, 0, 7, 1))]
        occluded.append(occlude_event(occluded[0], 5))
        results = explain_many(model, samples + occluded, config)
        for sample, result in zip(samples + occluded, results):
            assert_matches_oracle(result, explain_per_sample(model, sample, config))
        assert not np.array_equal(results[0].raw, results[len(samples)].raw)

    def test_batches_equal_their_members_explained_alone(self, monkeypatch):
        # Explaining walks the prediction batches of one stacked index array:
        # a batch's members explained on their own, stacked apart, give the
        # same bits, and target_prob is the probability predict_many gives
        # the target class.
        monkeypatch.setattr(bilstm, "_INFERENCE_ROWS", 12)
        rng = np.random.default_rng(45)
        model = random_model(rng, 3, 5, 9)
        samples = [random_sample(rng, 9, 5, int(n), f"s{i}")
                   for i, n in enumerate([4, 9, 2, 6, 3, 9, 5, 2, 7, 4, 3])]
        events, lengths = bilstm._stack_events(model, samples)
        parts = [part for part, _ in
                 bilstm._inference_runs(model, events, lengths, bilstm.Workspace())]
        assert len(parts) >= 3
        assert any(len(part) > 1 for part in parts)
        results = explain_many(model, samples)
        probs = bilstm.predict_many(model, samples)
        for part in parts:
            alone = explain_many(model, [samples[k] for k in part])
            for k, want in zip(part, alone):
                got = results[k]
                assert np.array_equal(got.raw, want.raw)
                assert np.array_equal(got.display, want.display)
                for name in ("target_class", "model_output", "target_prob", "case_id",
                             "initial_state_relevance", "bias_absorbed", "gate_relevance"):
                    assert getattr(got, name) == getattr(want, name), name
        for k, result in enumerate(results):
            assert result.target_prob == probs[k, result.target_class]

    def test_walks_read_their_cells_through_the_tables(self, monkeypatch):
        # Each walk gets, span by span, the started cells (the walk reads no
        # other): its run's _walk_cells at the cells its table names, bit
        # for bit, or in place when the direction shares nothing; and up to
        # rounding the cells of the batch run without sharing. With the
        # prefixes of one trace, the forward runs of root chunks serve
        # several batches.
        rng = np.random.default_rng(46)
        model = random_model(rng, 3, 5, 9)
        samples = [random_sample(rng, 9, 5, n, f"s{i}")
                   for i, n in enumerate([4, 9, 2, 6, 3, 9, 5, 2, 7])]
        trace = samples[1]
        samples += [replace(trace, events=np.r_[[5] * (9 - n), trace.events[:n]],
                            true_length=n) for n in range(2, 9)]
        monkeypatch.setattr(bilstm, "_INFERENCE_ROWS", 12)
        seen = []
        walk = lrp._propagate_direction

        def spy(cells, *args):
            seen.append([block.copy() for block in cells])
            return walk(cells, *args)

        monkeypatch.setattr(lrp, "_propagate_direction", spy)
        explain_many(model, samples)
        events, lengths = bilstm._stack_events(model, samples)
        width = events.shape[1]
        d = model.hidden_size
        shared = 0
        fwd_runs = []
        for k, (part, run) in enumerate(
                bilstm._inference_runs(model, events, lengths, bilstm.Workspace())):
            fwd_runs.append(run.fwd)
            t_len = int(lengths[part].max())
            alone = bilstm._run_batch(model, events[part, width - t_len:], lengths[part],
                                      bilstm.Workspace())
            directions = zip((run.fwd, run.bwd), (alone.fwd, alone.bwd), run.tables,
                             (model.forward_params, model.backward_params))
            for j, (trace, own, table, params) in enumerate(directions):
                with np.errstate(over="ignore", invalid="ignore"):
                    want = lrp._walk_cells(trace, params, LrpConfig(), bilstm.Workspace(), "c")
                    near = lrp._walk_cells(own, params, LrpConfig(), bilstm.Workspace(), "c")
                if table is not None:
                    want = want.reshape(6, -1, d)[:, table]
                    shared += 1
                for (t0, t1, n), got in zip(run.spans, seen[2 * k + j], strict=True):
                    assert np.array_equal(got, want[:, t0:t1, :n])
                    assert np.abs(got - near[:, t0:t1, :n]).max() <= 1e-12
        assert len(seen) == 2 * (k + 1) >= 6
        assert shared >= 2
        # a forward run read by more than one batch
        assert any(a is b for a, b in zip(fwd_runs, fwd_runs[1:]))

    def test_empty_and_guards(self):
        rng = np.random.default_rng(43)
        model = random_model(rng, 3, 3, 4)
        assert explain_many(model, []) == []
        assert explain_many(model, [], LrpConfig(target=2)) == []
        samples = [random_sample(rng, 4, 3, 3), random_sample(rng, 4, 3, 1)]
        with pytest.raises(TraceTooShort):
            explain_many(model, samples)


class TestRescale:
    def test_extremes_and_zero(self):
        assert np.allclose(rescale_for_display([2.0, -1.0, 0.0]), [1.0, 0.0, 0.5])

    def test_positive_affine_map(self):
        assert np.allclose(rescale_for_display([1.0, 2.0, 4.0]), [0.625, 0.75, 1.0])

    def test_all_zero(self):
        assert np.allclose(rescale_for_display([0.0, 0.0]), [0.5, 0.5])

    def test_one_sided(self):
        assert np.allclose(rescale_for_display([3.0, 1.0]), [1.0, 2 / 3])
        assert np.allclose(rescale_for_display([-4.0, -1.0]), [0.0, 0.375])

    def test_columns_rescale_like_single_traces(self):
        # One vectorised pass over a batch's (T, B) relevances gives each
        # column's own steps the bits rescale_for_display gives them alone;
        # the zeros before a column's first step change nothing.
        rng = np.random.default_rng(30)
        lengths = [7, 5, 5, 3, 2, 1]
        raw = np.zeros((7, len(lengths)))
        for k, n in enumerate(lengths):
            raw[7 - n:, k] = rng.normal(size=n) * 10.0 ** rng.integers(-3, 3)
        raw[-2:, 2] = np.abs(raw[-2:, 2])  # only positives
        raw[-3:, 3] = -np.abs(raw[-3:, 3])  # only negatives
        raw[-2:, 4] = 0.0
        display = _rescale_columns(raw)
        for k, n in enumerate(lengths):
            assert np.array_equal(display[7 - n:, k], rescale_for_display(raw[7 - n:, k]))

    def test_order_and_sign_preserved(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            raw = rng.normal(size=rng.integers(1, 10))
            d = rescale_for_display(raw)
            assert np.all((d >= 0) & (d <= 1))
            assert np.array_equal(np.sign(d - 0.5), np.sign(raw))
            order = np.argsort(raw)
            assert np.all(np.diff(d[order]) >= -1e-15)
