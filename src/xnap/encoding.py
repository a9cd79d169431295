"""Trace encoding: vocabulary, prefix generation, padded index arrays and
their one-hot rows.

Every trace is augmented with a reserved end symbol so that trace
termination is itself a predictable class. Prefixes are stored as
activity indices, left-padded with a pad index up to a common length M;
the pad index densifies to a zero row. The network keeps a sample's state
at zero over its padding, so the zeros are a storage convention only.
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
    """Stacked prefix samples as activity indices.

    ``events`` (n, M) holds each prefix right-aligned and left-padded with
    the pad index ``vocab.size``; :meth:`one_hot` densifies the rows of one
    batch only, so a dataset costs n*M small integers instead of n*M*H
    floats.
    """
    events: np.ndarray  # (n, M) int32
    true_lengths: np.ndarray  # (n,) int
    label_indices: np.ndarray  # (n,) int
    case_ids: tuple[str, ...]
    M: int
    vocab: ActivityVocabulary

    def __len__(self) -> int:
        return self.events.shape[0]

    def one_hot(self, rows, steps: int | None = None) -> np.ndarray:
        """Float64 one-hot inputs of the samples ``rows`` (an index or an
        index array), cropped to their last ``steps`` rows (default M)."""
        steps = self.M if steps is None else steps
        return one_hot(self.events[rows, self.M - steps:], self.vocab.size)

    def sample(self, i: int) -> PrefixSample:
        return PrefixSample(self.one_hot(i), int(self.true_lengths[i]),
                            int(self.label_indices[i]), self.case_ids[i])


def one_hot(events: np.ndarray, size: int) -> np.ndarray:
    """Rows of a ``size``-class one-hot code for an index array; the pad
    index ``size`` maps to a zero row. Adds a trailing axis of ``size``."""
    return np.eye(size + 1, size)[events]


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


def _check_fits(length: int, m: int, case_id: str) -> None:
    if length > m:
        raise PrefixTooLong(
            f"prefix of length {length} in case {case_id!r} exceeds padding length {m}")


def assemble_dataset(log: EventLog, vocab: ActivityVocabulary, m: int) -> PrefixDataset:
    """Concatenate the prefix samples of all traces, in log order.

    Traces with a single event contribute nothing: one event is too little
    history to learn from, mirroring the online-phase guard.
    """
    traces = [trace for trace in log if len(trace) >= 2]
    n = sum(len(trace) for trace in traces)  # one prefix per event
    events = np.full((n, m), vocab.size, dtype=np.int32)
    labels = np.empty(n, dtype=np.int64)
    lengths = np.empty(n, dtype=np.int64)
    cases = []
    row = 0
    for trace in traces:
        seq = np.asarray(augment_with_end(trace, vocab))
        _check_fits(len(trace), m, trace.case_id)  # the longest prefix
        for k in range(1, len(seq)):
            events[row + k - 1, m - k:] = seq[:k]
        count = len(trace)
        labels[row:row + count] = seq[1:]
        lengths[row:row + count] = np.arange(1, count + 1)
        cases += [trace.case_id] * count
        row += count
    return PrefixDataset(events=events, true_lengths=lengths, label_indices=labels,
                         case_ids=tuple(cases), M=m, vocab=vocab)


def encode_running_trace(trace: Trace, vocab: ActivityVocabulary, m: int) -> PrefixSample:
    """Encode a running trace as one unlabeled padded sample.

    No end symbol is appended; traces of length <= 1 are rejected because
    there is too little history to predict from.
    """
    if len(trace) <= 1:
        raise TraceTooShort(f"running trace {trace.case_id!r} has fewer than 2 events")
    indices = [vocab.index_of(a, trace.case_id) for a in trace.activities]
    _check_fits(len(indices), m, trace.case_id)
    x = np.zeros((m, vocab.size))
    for t, idx in enumerate(indices, start=m - len(indices)):
        x[t, idx] = 1.0
    return PrefixSample(x=x, true_length=len(indices), label_index=None,
                        case_id=trace.case_id)


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
