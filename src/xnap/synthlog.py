"""Synthetic event logs with known causal structure.

Two generators: a Markov activity grammar (states emit activities, walk
until a stop transition) and a copy task, where the activity at one key
position determines the activity a fixed distance later. The copy task
gives attribution tests a ground truth: the key position is the one event
that causally decides the later prediction.
"""
from __future__ import annotations

import numbers
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidSpec, NotACopyTask
from .eventlog import Event, EventLog, Trace, _trusted

_BASE_TIME = datetime(2024, 1, 1, tzinfo=timezone.utc)
_SECOND = timedelta(seconds=1)

# Transition target None means "stop here".
Choices = tuple[tuple[str | None, float], ...]


@dataclass(frozen=True)
class GrammarSpec:
    """Either a Markov grammar ("markov") or a key/target copy task ("copy")."""
    mode: str
    n_traces: int
    seed: int
    # markov mode
    start: str | None = None
    transitions: Mapping[str, Choices] = field(default_factory=dict)
    min_length: int = 1
    max_length: int = 1000
    # copy mode: the key at key_position (1-based) fixes the activity at
    # key_position + key_distance; other positions cycle through fillers.
    key_choices: tuple[str, ...] = ()
    key_targets: tuple[str, ...] = ()
    key_position: int = 1
    key_distance: int = 1
    fillers: tuple[str, ...] = ()

    def __post_init__(self):
        for name, low in (("n_traces", 1), ("seed", 0)):
            value = getattr(self, name)  # a numbers.Integral such as np.int64, no bool
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidSpec(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise InvalidSpec(f"{name} must be >= {low}, got {value}")
        labels = [*self.transitions, *self.key_choices, *self.key_targets, *self.fillers,
                  *(nxt for choices in self.transitions.values() for nxt, _ in choices
                    if nxt is not None)]
        if not all(isinstance(label, str) and label for label in labels):
            raise InvalidSpec("activity labels must be non-empty strings")
        if self.mode == "markov":
            self._check_markov()
        elif self.mode == "copy":
            self._check_copy()
        else:
            raise InvalidSpec(f"unknown grammar mode {self.mode!r}")

    def _check_markov(self):
        if self.start is None or self.start not in self.transitions:
            raise InvalidSpec(f"start state {self.start!r} has no transitions")
        for state, choices in self.transitions.items():
            total = sum(p for _, p in choices)
            if abs(total - 1.0) > 1e-9:
                raise InvalidSpec(f"probabilities of state {state!r} sum to {total}")
            if not all(p >= 0 for _, p in choices):  # a NaN fails this, an infinity the sum
                raise InvalidSpec(f"state {state!r} has a negative or NaN probability")
        # every reachable state must still be able to reach a stop
        reachable = {self.start}
        frontier = [self.start]
        while frontier:
            state = frontier.pop()
            for nxt, p in self.transitions.get(state, ()):
                if nxt is not None and p > 0 and nxt not in reachable:
                    reachable.add(nxt)
                    frontier.append(nxt)
        can_stop = {s for s in reachable
                    if any(nxt is None and p > 0 for nxt, p in self.transitions.get(s, ()))}
        changed = True
        while changed:
            changed = False
            for s in reachable - can_stop:
                if any(nxt in can_stop and p > 0
                       for nxt, p in self.transitions.get(s, ())):
                    can_stop.add(s)
                    changed = True
        if reachable - can_stop:
            raise InvalidSpec(f"states {sorted(reachable - can_stop)} cannot terminate")

    def _check_copy(self):
        if not self.key_choices or len(self.key_choices) != len(self.key_targets):
            raise InvalidSpec("copy task needs matching key_choices and key_targets")
        if len(set(self.key_choices)) != len(self.key_choices):
            raise InvalidSpec("key_choices must be unique")
        if self.key_position < 1 or self.key_distance < 1:
            raise InvalidSpec("key_position and key_distance must be >= 1")
        fill_needed = self.key_position - 1 + self.key_distance - 1
        if fill_needed > 0 and not self.fillers:
            raise InvalidSpec("copy task with gaps needs filler activities")
        overlap = set(self.key_choices) & set(self.fillers)
        if overlap:
            raise InvalidSpec(f"fillers overlap keys: {sorted(overlap)}")

    @property
    def trace_length(self) -> int:
        """Fixed trace length of a copy task."""
        return self.key_position + self.key_distance


def linear_grammar(activities: Sequence[str], n_traces: int, seed: int = 0) -> GrammarSpec:
    """Deterministic chain: every trace is exactly ``activities``. Each
    label is a state with one successor, so no label may repeat."""
    if not activities:
        raise InvalidSpec("need at least one activity")
    transitions = {}
    for a, b in zip(activities, [*activities[1:], None]):
        if a in transitions:
            raise InvalidSpec(f"linear grammar repeats activity {a!r}")
        transitions[a] = ((b, 1.0),)
    return GrammarSpec(mode="markov", n_traces=n_traces, seed=seed,
                       start=activities[0], transitions=transitions)


def copy_task(n_traces: int, seed: int = 0, key_choices: Sequence[str] = ("X", "Y"),
              key_targets: Sequence[str] = ("P", "Q"), key_position: int = 1,
              key_distance: int = 3, fillers: Sequence[str] = ("F1", "F2")) -> GrammarSpec:
    return GrammarSpec(mode="copy", n_traces=n_traces, seed=seed,
                       key_choices=tuple(key_choices), key_targets=tuple(key_targets),
                       key_position=key_position, key_distance=key_distance,
                       fillers=tuple(fillers))


def _markov_table(spec: GrammarSpec) -> dict[str, tuple[list[str | None], list[float]]]:
    """Per state, its successors and their cumulative distribution, built
    with the arithmetic of ``Generator.choice``: a bisection of one
    ``rng.random()`` draw into this CDF picks what ``rng.choice`` picks."""
    table = {}
    for state, choices in spec.transitions.items():
        probs = np.asarray([p for _, p in choices], dtype=np.float64)
        cdf = (probs / probs.sum()).cumsum()
        cdf /= cdf[-1]
        table[state] = ([nxt for nxt, _ in choices], cdf.tolist())
    return table


def _walk_markov(spec: GrammarSpec, table, rng: np.random.Generator) -> list[str]:
    """One walk of one ``rng.random()`` draw per transition, a
    single-choice state included; ``table`` is :func:`_markov_table`."""
    for _ in range(10_000):
        walk = [spec.start]
        while len(walk) <= spec.max_length:
            labels, cdf = table[walk[-1]]
            nxt = labels[bisect_right(cdf, rng.random())]
            if nxt is None:
                break
            walk.append(nxt)
        else:
            continue  # hit the cap: resample
        if len(walk) >= spec.min_length:
            return walk
    raise InvalidSpec("grammar cannot produce a trace within the length range")


def _walk_copy(spec: GrammarSpec, rng: np.random.Generator) -> list[str]:
    key_idx = int(rng.integers(len(spec.key_choices)))
    walk = []
    filler_cursor = 0
    for pos in range(1, spec.trace_length + 1):
        if pos == spec.key_position:
            walk.append(spec.key_choices[key_idx])
        elif pos == spec.key_position + spec.key_distance:
            walk.append(spec.key_targets[key_idx])
        else:
            walk.append(spec.fillers[filler_cursor % len(spec.fillers)])
            filler_cursor += 1
    return walk


def generate(spec: GrammarSpec) -> EventLog:
    """Seeded, reproducible log; timestamps strictly increase within a case.

    A Markov grammar consumes one uniform draw of ``default_rng(seed)``
    per transition, a copy task one integer draw per trace, so a seed
    names the same log on every numpy version that keeps these streams.
    """
    rng = np.random.default_rng(spec.seed)
    table = _markov_table(spec) if spec.mode == "markov" else None
    # The spec has checked every label and the walks are non-empty; the
    # times are UTC and rise within a case: what Event and Trace would check.
    event, trace = _trusted(Event), _trusted(Trace)
    traces = []
    for i in range(spec.n_traces):
        activities = _walk_markov(spec, table, rng) if table is not None \
            else _walk_copy(spec, rng)
        case_id = f"case_{i:05d}"
        start = _BASE_TIME + timedelta(minutes=i)
        events = tuple(event(case_id, a, start + t * _SECOND)
                       for t, a in enumerate(activities))
        traces.append(trace(case_id, events))
    return EventLog(tuple(traces))


def oracle_relevant_position(spec: GrammarSpec, trace: Trace) -> int:
    """Ground-truth key position (1-based) whose activity determines the
    prediction at the copy task's target position."""
    if spec.mode != "copy":
        raise NotACopyTask(f"grammar mode {spec.mode!r} has no key position")
    if len(trace) < spec.key_position:
        raise ValueError(f"trace {trace.case_id!r} shorter than the key position")
    return spec.key_position
