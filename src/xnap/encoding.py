"""One-hot trace encoding: vocabulary, prefix generation, padded tensors.

Every trace is augmented with a reserved end symbol so that trace
termination is itself a predictable class. Prefixes are left-padded with
zero rows up to a common length M; the network keeps a sample's state at
zero over its padding, so the zeros are a storage convention only.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    PrefixTooLong,
    ReservedLabelCollision,
    TraceTooShort,
    UnknownActivity,
)
from .eventlog import EventLog, Trace

END_SYMBOL = "__END__"


@dataclass(frozen=True)
class ActivityVocabulary:
    """Bijection between activity labels and one-hot indices.

    Data labels are sorted lexicographically for run-to-run determinism;
    the reserved end symbol always sits at the last index.
    """
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.labels[-1] != END_SYMBOL:
            raise ValueError(f"vocabulary must end with {END_SYMBOL}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("vocabulary labels are not unique")
        object.__setattr__(self, "_index", {label: i for i, label in enumerate(self.labels)})

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def end_index(self) -> int:
        return len(self.labels) - 1

    def index_of(self, label: str, case_id: str = "?") -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownActivity(label, case_id) from None

    def label_of(self, index: int) -> str:
        return self.labels[index]


@dataclass(frozen=True)
class PrefixSample:
    """One padded input: prefix rows occupy the last ``true_length`` rows of ``x``.

    ``label_index`` is None for running traces, where the next activity is
    the thing being predicted.
    """
    x: np.ndarray  # (M, H) float64
    true_length: int
    label_index: int | None
    case_id: str

    @property
    def max_len(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class PrefixDataset:
    """Stacked prefix samples: inputs X (n, M, H), one-hot labels Y (n, H)."""
    X: np.ndarray
    Y: np.ndarray
    true_lengths: np.ndarray  # (n,) int
    label_indices: np.ndarray  # (n,) int
    case_ids: tuple[str, ...]
    M: int
    vocab: ActivityVocabulary

    def __len__(self) -> int:
        return self.X.shape[0]

    def sample(self, i: int) -> PrefixSample:
        return PrefixSample(self.X[i], int(self.true_lengths[i]),
                            int(self.label_indices[i]), self.case_ids[i])


def build_vocabulary(log: EventLog) -> ActivityVocabulary:
    """Sorted data labels plus the end symbol; collides loudly, never silently."""
    labels = sorted(log.activity_labels())
    if END_SYMBOL in labels:
        raise ReservedLabelCollision(f"activity label {END_SYMBOL!r} is reserved")
    return ActivityVocabulary(tuple(labels) + (END_SYMBOL,))


def augment_with_end(trace: Trace, vocab: ActivityVocabulary) -> list[int]:
    """Trace as label indices with the end symbol appended."""
    seq = [vocab.index_of(a, trace.case_id) for a in trace.activities]
    seq.append(vocab.end_index)
    return seq


def generate_prefixes(index_seq: list[int]) -> list[tuple[list[int], int]]:
    """All proper prefixes with their next-activity label.

    A sequence of length n yields n-1 pairs; length-1 sequences yield none.
    """
    return [(index_seq[:k], index_seq[k]) for k in range(1, len(index_seq))]


def max_augmented_length(log: EventLog) -> int:
    """Longest trace length in the log after end-symbol augmentation."""
    return max(len(t) for t in log) + 1


def _pad_one_hot(prefix: list[int], m: int, h: int, case_id: str) -> np.ndarray:
    if len(prefix) > m:
        raise PrefixTooLong(
            f"prefix of length {len(prefix)} in case {case_id!r} exceeds padding length {m}")
    x = np.zeros((m, h), dtype=np.float64)
    offset = m - len(prefix)
    for t, idx in enumerate(prefix):
        x[offset + t, idx] = 1.0
    return x


def assemble_dataset(log: EventLog, vocab: ActivityVocabulary, m: int) -> PrefixDataset:
    """Concatenate the prefix samples of all traces, in log order.

    Traces with a single event contribute nothing: one event is too little
    history to learn from, mirroring the online-phase guard.
    """
    xs, labels, lengths, cases = [], [], [], []
    for trace in log:
        if len(trace) < 2:
            continue
        seq = augment_with_end(trace, vocab)
        for prefix, label in generate_prefixes(seq):
            xs.append(_pad_one_hot(prefix, m, vocab.size, trace.case_id))
            labels.append(label)
            lengths.append(len(prefix))
            cases.append(trace.case_id)
    n = len(xs)
    x_tensor = np.stack(xs) if n else np.zeros((0, m, vocab.size))
    label_arr = np.asarray(labels, dtype=np.int64)
    y = np.zeros((n, vocab.size), dtype=np.float64)
    if n:
        y[np.arange(n), label_arr] = 1.0
    return PrefixDataset(X=x_tensor, Y=y,
                         true_lengths=np.asarray(lengths, dtype=np.int64),
                         label_indices=label_arr, case_ids=tuple(cases),
                         M=m, vocab=vocab)


def encode_running_trace(trace: Trace, vocab: ActivityVocabulary, m: int) -> PrefixSample:
    """Encode a running trace as one unlabeled padded sample.

    No end symbol is appended; traces of length <= 1 are rejected because
    there is too little history to predict from.
    """
    if len(trace) <= 1:
        raise TraceTooShort(f"running trace {trace.case_id!r} has fewer than 2 events")
    indices = [vocab.index_of(a, trace.case_id) for a in trace.activities]
    x = _pad_one_hot(indices, m, vocab.size, trace.case_id)
    return PrefixSample(x=x, true_length=len(indices), label_index=None, case_id=trace.case_id)


def occlude_event(sample: PrefixSample, event_index: int) -> PrefixSample:
    """Counterfactual copy of a sample with one event's input row zeroed.

    ``event_index`` counts from 0 over the true (unpadded) events. The
    recurrence still visits the zeroed step, so this deletes the event's
    content while keeping every other event at its original position.
    """
    if not 0 <= event_index < sample.true_length:
        raise IndexError(f"event index {event_index} out of range")
    x = sample.x.copy()
    x[sample.max_len - sample.true_length + event_index, :] = 0.0
    return replace(sample, x=x)
