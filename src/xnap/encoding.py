"""Trace encoding: vocabulary, prefix generation and padded index arrays.

Every trace is augmented with a reserved end symbol so that trace
termination is itself a predictable class. Prefixes are stored as
activity indices, left-padded with a pad index up to a common length M.
The network reads an index as the one-hot input row of that activity and
the pad index H (the vocabulary size) as a zero row; it keeps a sample's
state at zero over its padding, so the padding is a storage convention
only.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    PrefixTooLong,
    ReservedLabelCollision,
    ShapeMismatch,
    TraceTooShort,
    UnknownActivity,
)
from .eventlog import EventLog, Trace

END_SYMBOL = "__END__"


@dataclass(frozen=True)
class ActivityVocabulary:
    """Bijection between activity labels and activity indices.

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
    """One padded input as activity indices: the prefix fills the last
    ``true_length`` entries of ``events``, every other entry holds the pad
    index ``n_classes``. A pad index inside the prefix is an event whose
    input row is zero (see :func:`occlude_event`).

    ``label_index`` is None for running traces, where the next activity is
    the thing being predicted.
    """
    events: np.ndarray  # (M,) int32, values in [0, n_classes]
    true_length: int
    label_index: int | None
    case_id: str
    n_classes: int

    def __post_init__(self):
        events = np.asarray(self.events)
        if events.ndim != 1 or events.dtype.kind not in "iu":
            raise ShapeMismatch(
                f"events must be a 1-D integer array, got {events.dtype} {events.shape}")
        # Viewed as unsigned, a negative index is huge: one max checks both ends.
        if events.size and np.maximum.reduce(events.view(f"u{events.itemsize}")) > self.n_classes:
            raise ShapeMismatch(f"event indices must lie in [0, {self.n_classes}]")
        if not 1 <= self.true_length <= events.shape[0]:
            raise ShapeMismatch(
                f"true_length {self.true_length} out of range for {events.shape[0]} steps")
        object.__setattr__(self, "events", events.astype(np.int32, copy=False))

    @property
    def max_len(self) -> int:
        return self.events.shape[0]

    @property
    def x(self) -> np.ndarray:
        """The one-hot input rows (M, H), padding as zero rows."""
        return np.eye(self.n_classes + 1, self.n_classes)[self.events]

    def prefix(self, length: int) -> "PrefixSample":
        """The unlabeled sample of this one's first ``length`` true events,
        cropped to them. Its events are a view of these, which passed the
        index check already, so it skips that scan."""
        if not 1 <= length <= self.true_length:
            raise ShapeMismatch(
                f"prefix length {length} out of range for {self.true_length} true events")
        first = self.max_len - self.true_length
        sample = object.__new__(PrefixSample)
        sample.__dict__.update(events=self.events[first:first + length], true_length=length,
                               label_index=None, case_id=self.case_id,
                               n_classes=self.n_classes)
        return sample


@dataclass(frozen=True)
class PrefixDataset:
    """Stacked prefix samples as activity indices.

    ``events`` (n, M) holds each prefix right-aligned and left-padded with
    the pad index ``vocab.size``, so a dataset costs n*M small integers.
    """
    events: np.ndarray  # (n, M) int32
    true_lengths: np.ndarray  # (n,) int
    label_indices: np.ndarray  # (n,) int
    case_ids: tuple[str, ...]
    M: int
    vocab: ActivityVocabulary

    def __len__(self) -> int:
        return self.events.shape[0]


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


def max_augmented_length(log: EventLog) -> int:
    """Longest trace length in the log after end-symbol augmentation."""
    return max(len(t) for t in log) + 1


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
        if len(trace) > m:  # the longest prefix
            raise PrefixTooLong(f"prefix of length {len(trace)} in case {trace.case_id!r} "
                                f"exceeds padding length {m}")
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
    """Encode a running trace as one unlabeled sample, padded to ``m`` or
    to its own length if longer: the recurrence runs at any length.

    No end symbol is appended; traces of length <= 1 are rejected because
    there is too little history to predict from.
    """
    if len(trace) <= 1:
        raise TraceTooShort(f"running trace {trace.case_id!r} has fewer than 2 events")
    indices = [vocab.index_of(a, trace.case_id) for a in trace.activities]
    events = np.full(max(m, len(indices)), vocab.size, dtype=np.int32)
    events[len(events) - len(indices):] = indices
    return PrefixSample(events, len(indices), None, trace.case_id, vocab.size)


def occlude_event(sample: PrefixSample, event_index: int) -> PrefixSample:
    """Counterfactual copy of a sample with one event set to the pad index.

    ``event_index`` counts from 0 over the true (unpadded) events. The
    recurrence still visits the step and reads a zero input row there, so
    this deletes the event's content while keeping every other event at
    its original position.
    """
    if not 0 <= event_index < sample.true_length:
        raise IndexError(f"event index {event_index} out of range")
    events = sample.events.copy()
    events[sample.max_len - sample.true_length + event_index] = sample.n_classes
    return replace(sample, events=events)
