import numpy as np
import pytest

from xnap import bilstm
from xnap.encoding import (
    END_SYMBOL,
    ActivityVocabulary,
    PrefixSample,
    assemble_dataset,
    augment_with_end,
    build_vocabulary,
    encode_running_trace,
    max_augmented_length,
    occlude_event,
)
from xnap.errors import (
    PrefixTooLong,
    ReservedLabelCollision,
    ShapeMismatch,
    TraceTooShort,
    UnknownActivity,
)

from conftest import make_log, make_trace
from oracles import dataset_sample, dense_dataset, generate_prefixes, one_hot, pad_one_hot


class TestVocabulary:
    def test_sorted_with_end_symbol_last(self):
        vocab = build_vocabulary(make_log([["B", "A"]]))
        assert vocab.labels == ("A", "B", END_SYMBOL)
        assert vocab.size == 3
        assert vocab.end_index == 2

    def test_single_activity(self):
        vocab = build_vocabulary(make_log([["A"]]))
        assert vocab.labels == ("A", END_SYMBOL)
        assert vocab.size == 2

    def test_bijection(self):
        vocab = build_vocabulary(make_log([["C", "A", "B"]]))
        for i, label in enumerate(vocab.labels):
            assert vocab.index_of(label) == i
            assert vocab.label_of(i) == label

    def test_reserved_collision(self):
        with pytest.raises(ReservedLabelCollision):
            build_vocabulary(make_log([["A", END_SYMBOL]]))


class TestAugmentAndPrefixes:
    def test_augment_appends_end(self):
        vocab = ActivityVocabulary(("A", "B", END_SYMBOL))
        assert augment_with_end(make_trace("c", ["A", "B"]), vocab) == [0, 1, 2]
        assert augment_with_end(make_trace("c", ["A"]), vocab) == [0, 2]

    def test_augment_unknown_activity(self):
        vocab = ActivityVocabulary(("A", END_SYMBOL))
        with pytest.raises(UnknownActivity) as exc:
            augment_with_end(make_trace("c9", ["A", "Z"]), vocab)
        assert exc.value.activity == "Z"
        assert exc.value.case_id == "c9"

    # generate_prefixes lists the prefixes the dense dataset oracle pads.
    def test_three_element_sequence(self):
        assert generate_prefixes([7, 8, 9]) == [([7], 8), ([7, 8], 9)]

    def test_two_element_sequence(self):
        assert generate_prefixes([3, 4]) == [([3], 4)]

    def test_degenerate_sequence(self):
        assert generate_prefixes([3]) == []


class TestAssembleDataset:
    def test_hand_enumerated_single_trace(self):
        # Trace <A,B> with vocab [A,B,END] and M=3: two samples, left-padded.
        log = make_log([["A", "B"]])
        vocab = build_vocabulary(log)
        ds = assemble_dataset(log, vocab, m=3)
        assert np.array_equal(ds.events, [[3, 3, 0], [3, 0, 1]])  # 3 pads
        x = one_hot(ds.events, 3)
        assert x.shape == (2, 3, 3)
        assert np.array_equal(x[0], [[0, 0, 0], [0, 0, 0], [1, 0, 0]])
        assert np.array_equal(one_hot(ds.label_indices[0], 3), [0, 1, 0])  # label B
        assert np.array_equal(x[1], [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert np.array_equal(one_hot(ds.label_indices[1], 3), [0, 0, 1])  # label END
        assert list(ds.true_lengths) == [1, 2]
        assert ds.case_ids == ("c0", "c0")

    def test_all_length_one_traces_give_empty_dataset(self):
        log = make_log([["A"], ["B"]])
        vocab = build_vocabulary(log)
        ds = assemble_dataset(log, vocab, m=2)
        assert len(ds) == 0
        assert ds.events.shape == (0, 2)
        assert one_hot(ds.events, 3).shape == (0, 2, 3)

    def test_sample_count_is_augmented_length_minus_one(self):
        # n - 1 samples from augmented length n, except single-event traces
        # which are skipped entirely.
        rng = np.random.default_rng(2)
        alphabet = ["A", "B", "C", "D"]
        for _ in range(10):
            sizes = [int(rng.integers(1, 7)) for _ in range(int(rng.integers(1, 6)))]
            log = make_log([[alphabet[int(rng.integers(4))] for _ in range(s)]
                            for s in sizes])
            vocab = build_vocabulary(log)
            ds = assemble_dataset(log, vocab, max_augmented_length(log))
            assert len(ds) == sum((s + 1) - 1 for s in sizes if s >= 2)

    def test_row_sums_equal_true_length(self):
        log = make_log([["A", "B", "C"], ["B", "A"]])
        vocab = build_vocabulary(log)
        ds = assemble_dataset(log, vocab, max_augmented_length(log))
        for i in range(len(ds)):
            x = dataset_sample(ds, i).x
            assert x.sum() == ds.true_lengths[i]
            lead = ds.M - ds.true_lengths[i]
            assert not x[:lead].any()
            assert np.array_equal(x[lead:].sum(axis=1), np.ones(ds.true_lengths[i]))

    def test_decode_round_trip(self):
        log = make_log([["C", "A", "B", "A"]])
        vocab = build_vocabulary(log)
        ds = assemble_dataset(log, vocab, max_augmented_length(log))
        seq = augment_with_end(log.traces[0], vocab)
        for i in range(len(ds)):
            lead = ds.M - ds.true_lengths[i]
            decoded = [int(np.argmax(row)) for row in dataset_sample(ds, i).x[lead:]]
            assert decoded == seq[:int(ds.true_lengths[i])]
            assert ds.events[i, lead:].tolist() == seq[:int(ds.true_lengths[i])]

    def test_prefix_too_long(self):
        log = make_log([["A", "B", "C"]])
        vocab = build_vocabulary(log)
        with pytest.raises(PrefixTooLong):
            assemble_dataset(log, vocab, m=2)


def assert_matches_dense(log, vocab, m):
    """The index-encoded dataset of ``log`` densifies to the dense oracle's
    tensor bit for bit, whole and row by row."""
    x, y, lengths, labels, cases = dense_dataset(log, vocab, m)
    ds = assemble_dataset(log, vocab, m)
    assert np.issubdtype(ds.events.dtype, np.integer)
    dense = one_hot(ds.events, vocab.size)
    assert dense.dtype == x.dtype == np.float64
    assert np.array_equal(dense, x)
    assert np.array_equal(one_hot(ds.label_indices, vocab.size), y)
    assert np.array_equal(ds.true_lengths, lengths)
    assert np.array_equal(ds.label_indices, labels)
    assert ds.case_ids == cases
    for i in range(len(ds)):
        sample = dataset_sample(ds, i)
        assert np.array_equal(sample.events, ds.events[i])
        assert np.array_equal(sample.x, x[i])
        assert (sample.true_length, sample.label_index, sample.case_id) == \
            (lengths[i], labels[i], cases[i])
    return ds, x


class TestIndexEncoding:
    """The integer dataset against the dense one-hot assembly it replaced."""

    def test_pad_index_is_a_zero_row(self):
        sample = PrefixSample(np.array([3, 2, 0]), 2, None, "c", 3)
        assert sample.x.dtype == np.float64
        assert np.array_equal(sample.x, [[0, 0, 0], [0, 0, 1], [1, 0, 0]])

    def test_random_logs_match_dense_oracle(self):
        rng = np.random.default_rng(5)
        alphabet = ["A", "B", "C", "D", "E"]
        for _ in range(10):
            log = make_log([[alphabet[int(rng.integers(5))]
                             for _ in range(int(rng.integers(1, 9)))]
                            for _ in range(int(rng.integers(1, 8)))])
            vocab = build_vocabulary(log)
            assert_matches_dense(log, vocab, max_augmented_length(log) + int(rng.integers(3)))

    def test_inference_chunks_match_dense_oracle(self, monkeypatch):
        log = make_log([["A", "B", "C", "B", "A"], ["B", "C"], ["C", "A", "A"],
                        ["A", "B", "B", "B", "C", "A", "C"]])
        vocab = build_vocabulary(log)
        ds, x = assert_matches_dense(log, vocab, max_augmented_length(log))
        monkeypatch.setattr(bilstm, "_INFERENCE_ROWS", 9)
        model = bilstm.init_model(vocab, ds.M, bilstm.TrainConfig(hidden_size=2))
        parts = []
        for part, run in bilstm._inference_runs(model, ds.events, ds.true_lengths,
                                                bilstm.Workspace()):
            parts.append(part)
            t_len = int(ds.true_lengths[part[0]])
            batch = ds.events[part, ds.M - t_len:]
            assert np.array_equal(run.events, batch.T)  # the batch the run read
            assert np.array_equal(one_hot(batch, vocab.size), x[part, ds.M - t_len:])
        assert len(parts) > 3  # the cap splits the dataset
        assert sorted(np.concatenate(parts).tolist()) == list(range(len(ds)))

    def test_training_batches_match_dense_oracle(self):
        log = make_log([["A", "B", "C", "B"], ["B", "C", "A"], ["C", "A"]])
        vocab = build_vocabulary(log)
        ds, x = assert_matches_dense(log, vocab, max_augmented_length(log) + 2)
        order = np.random.default_rng(0).permutation(len(ds))
        for start in range(0, len(ds), 3):
            batch = order[start:start + 3]
            t_len = int(ds.true_lengths[batch].max())
            events = ds.events[batch, ds.M - t_len:]
            assert np.array_equal(one_hot(events, vocab.size), x[batch, ds.M - t_len:])

    def test_running_trace_matches_dense_oracle(self):
        vocab = ActivityVocabulary(("A", "B", "C", END_SYMBOL))
        for acts in (["A", "B"], ["C", "C", "A", "B"], ["B"] * 6):
            sample = encode_running_trace(make_trace("c", acts), vocab, m=6)
            want = pad_one_hot([vocab.index_of(a) for a in acts], 6, vocab.size, "c")
            assert sample.events.dtype == np.int32
            assert np.array_equal(sample.x, want)

    def test_memory_is_integers_per_step(self):
        log = make_log([["A", "B", "C"] * 4, ["B", "A"]])
        vocab = build_vocabulary(log)
        m = max_augmented_length(log)
        ds = assemble_dataset(log, vocab, m)
        assert ds.events.nbytes == len(ds) * m * ds.events.itemsize
        assert not any(isinstance(v, np.ndarray) and v.dtype.kind == "f"
                       for v in vars(ds).values())

class TestEncodeRunningTrace:
    def test_too_short(self):
        vocab = ActivityVocabulary(("A", END_SYMBOL))
        with pytest.raises(TraceTooShort):
            encode_running_trace(make_trace("c", ["A"]), vocab, m=4)

    def test_padded_sample_without_label(self):
        vocab = ActivityVocabulary(("A", "B", END_SYMBOL))
        sample = encode_running_trace(make_trace("c", ["A", "B"]), vocab, m=4)
        assert sample.true_length == 2
        assert sample.label_index is None
        assert sample.events.tolist() == [3, 3, 0, 1]
        assert not sample.x[:2].any()
        assert np.array_equal(sample.x[2:], [[1, 0, 0], [0, 1, 0]])

    def test_pads_to_its_own_length(self):
        # A running trace longer than the training traces still encodes:
        # the recurrence runs at any length, so nothing is cut off.
        vocab = ActivityVocabulary(("A", "B", END_SYMBOL))
        sample = encode_running_trace(make_trace("c", ["A", "B", "B", "A", "B"]), vocab, m=4)
        assert sample.max_len == 5 and sample.true_length == 5
        assert sample.events.tolist() == [0, 1, 1, 0, 1]
        assert encode_running_trace(make_trace("c", ["B", "A"]), vocab, m=4).max_len == 4


class TestPrefixSample:
    """A sample's events must be indices the network can read: anything
    else would be clamped to the last class by the input gather."""

    def test_accepts_the_pad_index_anywhere(self):
        sample = PrefixSample(np.array([2, 2, 0, 2], dtype=np.int64), 2, 1, "c", 2)
        assert sample.events.dtype == np.int32 and sample.max_len == 4

    @pytest.mark.parametrize("events", [
        np.array([0.0, 1.0]),  # floats, even integral ones
        np.array([True, False]),
        np.array([[0, 1]]),  # not one row of steps
        np.array([0, -1]),
        np.array([0, 4]),  # past the pad index 3
    ], ids=["float", "bool", "two_dimensional", "negative", "above_pad"])
    def test_rejects_events_that_are_not_indices(self, events):
        with pytest.raises(ShapeMismatch):
            PrefixSample(events, 1, None, "c", 3)

    @pytest.mark.parametrize("length", [0, -1, 3])
    def test_rejects_true_length_outside_the_steps(self, length):
        with pytest.raises(ShapeMismatch):
            PrefixSample(np.array([3, 0]), length, None, "c", 3)

    def test_prefix_equals_a_checked_sample(self):
        sample = PrefixSample(np.array([3, 3, 1, 3, 0, 2]), 4, 2, "c", 3)
        for length in range(1, 5):
            prefix = sample.prefix(length)
            want = PrefixSample(np.array([1, 3, 0, 2][:length]), length, None, "c", 3)
            assert prefix.events.dtype == np.int32
            assert np.array_equal(prefix.events, want.events)
            assert (prefix.true_length, prefix.label_index, prefix.case_id, prefix.n_classes,
                    prefix.max_len) == (length, None, "c", 3, length)
            assert np.shares_memory(prefix.events, sample.events)

    @pytest.mark.parametrize("length", [0, 5])
    def test_prefix_outside_the_true_events_rejected(self, length):
        sample = PrefixSample(np.array([3, 3, 1, 3, 0, 2]), 4, 2, "c", 3)
        with pytest.raises(ShapeMismatch):
            sample.prefix(length)

    def test_bad_index_rejected_before_any_prefix(self):
        # A prefix skips the index scan: only a checked sample can make one.
        with pytest.raises(ShapeMismatch):
            PrefixSample(np.array([3, 1, 4, 0]), 3, None, "c", 3).prefix(2)


class TestOcclusion:
    def test_zeroes_one_event_row(self):
        vocab = ActivityVocabulary(("A", "B", END_SYMBOL))
        sample = encode_running_trace(make_trace("c", ["A", "B"]), vocab, m=4)
        occluded = occlude_event(sample, 0)
        assert occluded.events.tolist() == [3, 3, 3, 1]  # the pad index
        assert not occluded.x[2].any()
        assert np.array_equal(occluded.x[3], sample.x[3])
        assert sample.x[2].any()  # original untouched

    def test_bad_index(self):
        vocab = ActivityVocabulary(("A", "B", END_SYMBOL))
        sample = encode_running_trace(make_trace("c", ["A", "B"]), vocab, m=4)
        with pytest.raises(IndexError):
            occlude_event(sample, 2)
