"""Property tests of the batched relevance walk on random small models
and random mixed-length batches."""
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from xnap import bilstm
from xnap.lrp import LrpConfig, explain_many

from oracles import explain_per_sample
from test_bilstm import random_model, random_sample
from test_lrp import assert_matches_oracle


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
