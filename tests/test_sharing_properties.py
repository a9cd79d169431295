"""Property tests of shared steps: the prefixes of a case read their
forward states, and the forward walk cells of the relevance
decomposition, from the run of a longer row that begins like them, in
their batch or in their root's chunk, and agree with the per-prefix
oracles, which run every prefix on its own."""
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from xnap import bilstm
from xnap.bilstm import Workspace, predict_dataset, predict_many
from xnap.encoding import PrefixDataset, PrefixSample, occlude_event
from xnap.lrp import LrpConfig, explain_many

from oracles import explain_per_sample, predict_per_sample
from test_bilstm import dummy_vocab, random_model
from test_lrp import assert_matches_oracle


@st.composite
def prefix_sets(draw):
    """A seeded random model of padding length M, every prefix of length
    >= 2 of 1-4 random traces of 3..M+3 events (so some are longer than
    M), each under its trace's case id, then, as drawn: occluded prefixes
    under their trace's id, a shorter trace under a repeated id that is no
    prefix of that id's trace, and duplicated samples; all shuffled. Also
    a cap on the (row, step) cells per batch. A batch that holds two
    prefixes of a trace shares their forward steps."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 4))
    h = draw(st.integers(2, 5))
    m = draw(st.integers(2, 7))
    model = random_model(rng, d, h, m)
    fulls = []
    for i, n in enumerate(draw(st.lists(st.integers(3, m + 3), min_size=1, max_size=4))):
        events = np.full(max(m, n), h, dtype=np.int32)
        events[-n:] = rng.integers(h, size=n)
        fulls.append(PrefixSample(events, n, None, f"c{i}", h))
    samples = [full.prefix(k) for full in fulls for k in range(2, full.true_length + 1)]
    for _ in range(draw(st.integers(0, 2))):
        full = fulls[draw(st.integers(0, len(fulls) - 1))]
        sample = full.prefix(draw(st.integers(2, full.true_length - 1)))
        samples.append(occlude_event(sample, draw(st.integers(0, sample.true_length - 1))))
    if draw(st.booleans()):  # first event differs: no prefix of c0's trace
        other = fulls[0].prefix(draw(st.integers(2, fulls[0].true_length - 1))).events.copy()
        other[0] = (other[0] + 1) % h
        samples.append(PrefixSample(other, len(other), None, "c0", h))
    for _ in range(draw(st.integers(0, 2))):
        samples.append(samples[draw(st.integers(0, len(samples) - 1))])
    order = draw(st.permutations(range(len(samples))))
    return model, [samples[k] for k in order], draw(st.integers(1, 24))


def as_dataset(model, samples) -> PrefixDataset:
    """The samples as a dataset's rows, in order, under their case ids."""
    events, lengths = bilstm._stack_events(model, samples)
    return PrefixDataset(events=events, true_lengths=lengths,
                         label_indices=np.zeros(len(samples), dtype=np.int64),
                         case_ids=tuple(s.case_id for s in samples), M=events.shape[1],
                         vocab=dummy_vocab(model.n_classes))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(prefix_sets(), st.sampled_from([LrpConfig(), LrpConfig(delta=1.0),
                                       LrpConfig(target=1)]))
def test_shared_runs_equal_per_prefix_oracles(case, config):
    model, samples, rows = case
    dataset = as_dataset(model, samples)
    with mock.patch.object(bilstm, "_INFERENCE_ROWS", rows):
        runs = list(bilstm._inference_runs(model, dataset.events, dataset.true_lengths,
                                           Workspace()))
        probs = predict_many(model, samples)
        from_dataset = predict_dataset(model, dataset)
        results = explain_many(model, samples, config)
    # A direction shares steps, and reads its cells through a table, when
    # two rows of its batch begin alike in its reading order. The backward
    # direction runs each batch; the forward one may run a root chunk that
    # several batches read, and reads in place only a run of the batch.
    for part, run in runs:
        cols = np.arange(len(part))
        firsts = run.events[len(run.events) - dataset.true_lengths[part], cols]
        table_f, table_b = run.tables
        assert (table_b is not None) == (len(set(run.events[-1].tolist())) < len(part))
        if len(set(firsts.tolist())) < len(part):
            assert table_f is not None
        if table_f is None:
            assert np.array_equal(run.fwd.events, run.events)
    assert np.abs(probs - predict_per_sample(model, samples)).max() <= 1e-12
    assert np.array_equal(from_dataset, probs)  # the same groups, the same batches
    for sample, result in zip(samples, results):
        want = explain_per_sample(model, sample, config)
        assert_matches_oracle(result, want)  # gate_relevance exactly 0 included
        assert abs(result.target_prob - want.target_prob) <= 1e-12
