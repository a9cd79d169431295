"""Property tests of the batched relevance walk on random small models
and random mixed-length batches."""
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from xnap import bilstm, lrp
from xnap.bilstm import Workspace
from xnap.lrp import LrpConfig, _output_relevance, _stabilise, explain_many

from oracles import (_bias_absorption, _lrp_linear, explain_per_sample,
                     propagate_direction_gate_arrays, stabilise_two_pass)
from test_bilstm import random_model, random_sample
from test_lrp import assert_matches_oracle
from test_sharing_properties import prefix_sets


@st.composite
def models_and_batches(draw):
    """A seeded random model, 1-8 samples of lengths 2..M, and a chunk cap."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 4))
    h = draw(st.integers(2, 5))
    m = draw(st.integers(2, 8))
    lengths = draw(st.lists(st.integers(2, m), min_size=1, max_size=8))
    model = random_model(rng, d, h, m)
    samples = [random_sample(rng, m, h, n, f"s{i}") for i, n in enumerate(lengths)]
    return model, samples, draw(st.integers(1, 40))


@settings(max_examples=60, deadline=None)
@given(models_and_batches())
def test_conservation_at_delta_one(case):
    model, samples, rows = case
    with mock.patch.object(bilstm, "_INFERENCE_ROWS", rows):
        results = explain_many(model, samples, LrpConfig(delta=1.0))
    for result in results:
        total = result.raw.sum() + result.initial_state_relevance
        scale = max(abs(result.model_output), float(np.abs(result.raw).max()))
        assert abs(total - result.model_output) <= 1e-9 * scale
        assert result.bias_absorbed == 0.0


@settings(max_examples=60, deadline=None)
@given(models_and_batches(),
       st.sampled_from([LrpConfig(), LrpConfig(delta=1.0),
                        LrpConfig(target=1)]))
def test_batched_walk_equals_per_sample_oracle(case, config):
    model, samples, rows = case
    with mock.patch.object(bilstm, "_INFERENCE_ROWS", rows):
        results = explain_many(model, samples, config)
    for sample, result in zip(samples, results):
        assert_matches_oracle(result, explain_per_sample(model, sample, config))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(prefix_sets(), st.booleans(), st.sampled_from([LrpConfig(), LrpConfig(delta=1.0)]))
def test_in_place_product_rule_equals_gate_array_walk(case, unshared, config):
    # Every walk of explain_many, run again on copies of its inputs by the
    # walk that built, copied and summed the zero gate arrays: the same
    # bytes. The prefixes share steps whatever their case ids, so
    # ``unshared``, which gives each its own id, changes no walk; mixed
    # lengths leave rows unstarted in a span.
    model, samples, rows = case
    if unshared:
        samples = [replace(s, case_id=f"u{k}") for k, s in enumerate(samples)]
    walk = lrp._propagate_direction
    calls = []

    def spy(cells, params, r_h_final, events, spans, config, ws):
        args = ([block.copy() for block in cells], params, r_h_final.copy(), events.copy(),
                list(spans), config)
        got = walk(cells, params, r_h_final, events, spans, config, ws)
        calls.append((args, [a.copy() for a in got]))
        return got

    with mock.patch.object(bilstm, "_INFERENCE_ROWS", rows), \
            mock.patch.object(lrp, "_propagate_direction", spy):
        explain_many(model, samples, config)
    assert calls and len(calls) % 2 == 0  # both directions of every batch
    for args, got in calls:
        want = propagate_direction_gate_arrays(*args, Workspace())
        for a, b in zip(got, want):  # rx, leftover, absorbed, gate total
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


# Finite floats with the edge cases drawn often: both zeros, subnormals
# and the largest magnitudes.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e308, -1e308,
          1.7976931348623157e308, -1.7976931348623157e308]
_finite = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(_finite, min_size=1, max_size=24),
       st.sampled_from([1e-3, 1e-6, 0.5, 5e-324, 1e308]),
       st.booleans())
def test_stabilise_equals_two_pass_oracle(values, epsilon, into):
    z = np.asarray(values).reshape(-1, 2) if len(values) % 2 == 0 else np.asarray(values)
    with np.errstate(over="ignore"):  # z + stabiliser may overflow, in both forms alike
        if into:  # written to given arrays, as _walk_cells calls it
            got = _stabilise(z, epsilon, np.full(z.shape, np.nan), np.full(z.shape, np.nan))
            want = stabilise_two_pass(z, epsilon, np.empty(z.shape), np.empty(z.shape))
        else:
            got, want = _stabilise(z, epsilon), stabilise_two_pass(z, epsilon)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()  # bit for bit, the signs of zeros too
    assert (got[0] > 0).tolist() == (z >= 0.0).tolist()  # sign(0) = +1, -0.0 included


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(2, 6), st.integers(1, 4),
       st.one_of(st.none(), st.integers(0, 5)), st.sampled_from([0.0, 1.0]),
       st.sampled_from([1e-3, 1e-6, 0.5]))
def test_output_layer_rule_equals_dense_oracle(seed, b, h, d, target, delta, epsilon):
    # The output layer's rule from each row's target logit against the
    # oracle's dense rule from a one-hot output relevance, row by row. The
    # logits are drawn, not computed, so that negative and zero ones come
    # up; one output row of weights is zero.
    rng = np.random.default_rng(seed)
    hcat = rng.normal(size=(b, 2 * d))
    w_out = rng.normal(size=(h, 2 * d))
    w_out[rng.integers(h)] = 0.0
    b_out = rng.normal(size=h)
    logits = rng.normal(size=(b, h)) * 10.0 ** rng.integers(-3, 3)
    logits[rng.random((b, h)) < 0.25] = 0.0
    targets = np.full(b, min(target, h - 1)) if target is not None else rng.integers(h, size=b)
    z = logits[np.arange(b), targets]
    config = LrpConfig(epsilon=epsilon, delta=delta)
    r_hcat, absorbed = _output_relevance(hcat, w_out, b_out, z, targets, config)
    for k in range(b):
        r_out = np.zeros(h)
        r_out[targets[k]] = z[k]
        assert np.array_equal(r_hcat[k], _lrp_linear(hcat[k], w_out, b_out, logits[k], r_out,
                                                     epsilon, delta))
        assert absorbed[k] == _bias_absorption(b_out, logits[k], r_out, epsilon, delta)
