"""Bidirectional LSTM next-activity model: forward pass, exact BPTT,
Nadam training with early stopping, and JSON serialization.

Cell equations are the standard ("vanilla") formulation:

    i = sigm(W_i x + U_i h' + b_i)      f = sigm(W_f x + U_f h' + b_f)
    o = sigm(W_o x + U_o h' + b_o)      g = tanh(W_g x + U_g h' + b_g)
    c = f * c' + i * g                  h = o * tanh(c)

Both directions start from zero states and consume only the true
(unpadded) suffix of each sample; the backward direction reads it newest
to oldest. Their final hidden states are concatenated and fed through a
dense softmax layer over activity classes.

Inputs are activity indices: x is the one-hot row of an activity, so
W x is one column of W. A direction gathers its steps' input projection
by index from an (H+1, 4D) table, W transposed (times the input scale)
plus a zero row for the pad index. The four gates stay stacked in the
order i, f, o, g, so one (B, D) @ (D, 4D) matmul per step serves them
all, and a step's contiguous (B, 4D) activations take four calls with a
per-column scale and shift: sigm(x) = (1 + tanh(x/2)) / 2 on i, f, o and
tanh(x) * 1 + -0.0 on g, the bits of computing the blocks apart. The
finiteness check covers the table, so ``NonFiniteInput`` also catches an
input weight that no event of the batch reads. Input dropout sets a
dropped event to the pad index and scales the table by 1/keep; its masks
are drawn per unit of each one-hot row, so the seeded weights are those
of a dense implementation. The input weight gradient is one dense product
of the packed gate gradients with the started steps' scaled one-hot rows.

Training, validation, evaluation and single-sample prediction all run
the same batched recurrence. A batch is cropped to its longest sample,
right-aligned and ordered longest first (training sorts each batch after
drawing its dropout masks), so the samples that have started by a step
are its leading rows, and each step runs those rows only, like a packed
sequence. The kernel gathers, biases and checks only started cells and
zeroes each sample's initial state as it starts; a trace leaves the
cells before it unspecified, since nothing reads them. BPTT stores its
gate gradients packed, one row per started (step, sample) cell. The
backward direction reads each window reversed through one index gather,
so both directions share the kernel and the per-step row counts.

Inference batches hold at most ``_INFERENCE_ROWS`` (row, step) cells. A
call runs the first occurrence of each distinct row (true length and
events, under any case id) and gives each repeat its results
(:func:`_distinct_rows`). Within a batch, each direction then runs each
distinct reading prefix of its rows once, across case ids: the forward
direction reads each row oldest first, the backward one newest first, and
the pad index of an occluded event is a symbol like any other
(:func:`_step_plan`). A row runs only the steps that no row before it in
the batch (longest first) reads alike, the last ones of its window, from
the states of the parent row it shares the others with, and reads all
its cells through a (T, B) table. When no two rows begin alike in a
direction, as for a single sample, the plan is the identity: the run is
the batch itself, read in place. Training keeps the identity, since
every row draws its own dropout mask, and so does inference below a
hidden size of ``_SHARED_HIDDEN``, where a plan costs more than the cells
it spares.

Across the batches of a call, a row whose events begin another row's
reads its forward cells from the run of its root, the longest such row
(:func:`_forward_roots`), so the prefixes of a trace, which a
longest-first cut spreads over many batches, read one run. The roots run
forward in chunks cut like batches, each with its own plan, and each
chunk's rows follow it in batches that run the backward direction only.
:func:`_inference_runs` keeps the longest-first batches, each running
both directions, below ``_SHARED_HIDDEN``, when they are one batch, when
every row is its own root, or when the rows they put apart from their
root hold no more cells than the batches the chunks would add can hold.
The large per-batch arrays come from a grow-only :class:`Workspace`,
which waits in the process for the next call.
"""
from __future__ import annotations

import base64
import binascii
import functools
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Union

import numpy as np

from .encoding import ActivityVocabulary, PrefixDataset, PrefixSample
from .errors import (
    CorruptModel,
    EmptyDataset,
    NonFiniteInput,
    NonFiniteLoss,
    ShapeMismatch,
    VersionMismatch,
)

MODEL_FORMAT_VERSION = 2
# Version 1 stored every gate block as nested decimal lists; it is still read.
_READABLE_VERSIONS = (1, 2)
_STORED_DTYPE = "<f8"
GATES = ("i", "f", "o", "g")
# Probabilities are clipped at this floor before taking logs.
LOSS_CLIP = 1e-12
# Inference batches are cut so that their per-step tensors hold at most
# this many (sample, step) rows: long prefixes must not blow up memory.
_INFERENCE_ROWS = 1024
# Inference shares steps (see _step_plan) only at this hidden size or
# above. A plan costs about 50 us per batch and direction at any size, and
# spares cells that cost about 4.5 us each at D=100 but a few percent of
# that at D=16, where the plans made a 200-trace predict_many ~20% slower.
_SHARED_HIDDEN = 32


@dataclass
class TrainConfig:
    hidden_size: int = 100
    dropout_rate: float = 0.2
    batch_size: int = 128
    max_epochs: int = 100
    patience: int = 10
    learning_rate: float = 0.002
    seed: int = 42

    def __post_init__(self):
        for name, low in (("hidden_size", 1), ("batch_size", 1), ("max_epochs", 1),
                          ("patience", 1), ("seed", 0)):
            value = getattr(self, name)  # a numbers.Integral such as np.int64, no bool
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not 0 <= self.dropout_rate < 1:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not 0 < self.learning_rate < math.inf:  # NaN fails too
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass
class LstmWeights:
    """Weights of one LSTM direction, gate blocks stacked in the order
    i, f, o, g: W (4D, H) reads the input, U (4D, D) the recurrence."""
    W: np.ndarray
    U: np.ndarray
    b: np.ndarray  # (4D,)

    @property
    def hidden_size(self) -> int:
        return self.b.shape[0] // 4

    def rows(self, gate: str) -> slice:
        """Row block of one gate in W, U and b."""
        d = self.hidden_size
        k = GATES.index(gate)
        return slice(k * d, (k + 1) * d)

    def items(self):
        """Per-gate views W_i, U_i, b_i, W_f, ... (the keys of format 1 files)."""
        for gate in GATES:
            rows = self.rows(gate)
            yield f"W_{gate}", self.W[rows]
            yield f"U_{gate}", self.U[rows]
            yield f"b_{gate}", self.b[rows]


def _named(arrays: list[np.ndarray]) -> list[tuple[str, np.ndarray]]:
    """Name arrays laid out like ``BiLstmModel.arrays()`` per gate, as views."""
    out = [(f"forward.{n}", a) for n, a in LstmWeights(*arrays[0:3]).items()]
    out += [(f"backward.{n}", a) for n, a in LstmWeights(*arrays[3:6]).items()]
    out += [("W_out", arrays[6]), ("b_out", arrays[7])]
    return out


@dataclass
class BiLstmModel:
    forward_params: LstmWeights
    backward_params: LstmWeights
    W_out: np.ndarray  # (H, 2D)
    b_out: np.ndarray  # (H,)
    vocab: ActivityVocabulary
    max_len: int
    hyperparams: dict
    trained_epochs: int = 0

    @property
    def hidden_size(self) -> int:
        return self.forward_params.hidden_size

    @property
    def n_classes(self) -> int:
        return self.vocab.size

    @classmethod
    def of(cls, arrays: list[np.ndarray], *args, **kwargs) -> BiLstmModel:
        """A model over ``arrays`` laid out like :meth:`arrays`, then its other fields."""
        return cls(LstmWeights(*arrays[0:3]), LstmWeights(*arrays[3:6]), *arrays[6:8],
                   *args, **kwargs)

    def arrays(self) -> list[np.ndarray]:
        """The trainable arrays as stored: W, U, b of the forward and the
        backward direction, then W_out and b_out."""
        f, b = self.forward_params, self.backward_params
        return [f.W, f.U, f.b, b.W, b.U, b.b, self.W_out, self.b_out]

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """All trainable arrays in a fixed, documented order, split per
        gate; the per-gate entries are views, so writes reach the model."""
        return _named(self.arrays())


@dataclass
class DirectionTrace:
    """Per-timestep quantities of one direction over a batch, time first,
    in its own reading order (the backward one reads each window reversed
    in place, see ``ForwardTrace.rev``). The input at a step is the
    one-hot row of ``events`` (the pad index H reads a zero row; training
    reads it for a dropped event too), times the run's one input scale
    (1/keep in training, else 1). State row t holds the state before step
    t: a sample's ``c``, ``h`` and ``tanh_c`` at its first step are its
    zero initial state. Its cells before that (the state rows before it,
    the ``pre`` and ``act`` rows of the steps before its first) are
    unspecified: the kernel writes none of them, and no result reads them.
    The gate blocks of ``pre`` and ``act`` are the row blocks of
    :meth:`LstmWeights.rows`."""
    events: np.ndarray  # (T, B) int activity indices as read, H for a zero input
    pre: np.ndarray  # (T, B, 4D) gate pre-activations, blocks i, f, o, g
    act: np.ndarray  # (T, B, 4D) gate activations, same blocks
    c: np.ndarray  # (T+1, B, D), row t the state before step t
    h: np.ndarray  # (T+1, B, D)
    tanh_c: np.ndarray  # (T+1, B, D), tanh(c), kept for BPTT


@dataclass
class ForwardTrace:
    """One forward pass over a batch: both directions, their final hidden
    states ``hcat``, the output logits and class probabilities, and the
    ``spans`` and backward order ``rev`` of the batch layout it ran in, as
    :func:`_alignment` derives them, and the batch's time-major ``events``.

    Each direction's ``tables`` entry says where a row reads its cells:
    None when the run is the batch itself, else a (T, B) table whose entry
    at step t of row k, in the direction's reading order, is the flat
    (step, column) index of the run that holds that cell (see
    :func:`_step_plan`). The forward run may be a root chunk's, which
    other batches read too (see :func:`_inference_runs`)."""
    fwd: DirectionTrace
    bwd: DirectionTrace
    hcat: np.ndarray  # (B, 2D): forward then backward
    logits: np.ndarray  # (B, H)
    probs: np.ndarray  # (B, H)
    spans: list[tuple[int, int, int]]
    rev: np.ndarray  # (T, B)
    events: np.ndarray  # (T, B), oldest first
    tables: tuple[np.ndarray | None, np.ndarray | None]


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float
    val_accuracy: float


# --- initialization -------------------------------------------------------

def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def _init_direction(rng: np.random.Generator, d: int, h: int) -> list[np.ndarray]:
    ws, us = [], []
    for _ in GATES:  # draw order W_i, U_i, W_f, U_f, ... fixes the seeded weights
        ws.append(_glorot(rng, d, h))
        us.append(_glorot(rng, d, d))
    b = np.zeros(4 * d)
    b[d:2 * d] = 1.0  # forget bias 1 helps early gradient flow
    return [np.vstack(ws), np.vstack(us), b]


def init_model(vocab: ActivityVocabulary, max_len: int, config: TrainConfig) -> BiLstmModel:
    """Fresh model with Glorot-uniform weights, seeded by the config."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    d, h = config.hidden_size, vocab.size
    arrays = _init_direction(rng, d, h) + _init_direction(rng, d, h)
    return BiLstmModel.of(arrays + [_glorot(rng, h, 2 * d), np.zeros(h)], vocab, max_len,
                          asdict(config))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis``, computed with max subtraction for stability."""
    if not np.isfinite(x).all():
        raise NonFiniteInput("softmax input contains NaN or infinity")
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


# --- batched recurrence core ----------------------------------------------

class Workspace:
    """Grow-only float64 work memory for the batch kernels. Every call
    that runs the kernels runs all its batches in one workspace, taken
    over from the previous call when one is idle; only :func:`forward`,
    which returns its arrays, runs in a new one of its own.

    ``take(key, shape)`` returns a C-contiguous view of that shape into the
    buffer kept under ``key``. A buffer only grows, at least doubling, so a
    loop over batches keeps touching the same pages instead of mapping
    fresh ones for every batch. A view holds garbage until written and
    stays valid only until the next ``take`` of its key; nothing a
    borrowing call returns may be one.
    """

    def __init__(self):
        self._slots: dict[str, tuple[np.ndarray, np.ndarray]] = {}  # key -> (buffer, last view)

    def take(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        buf, view = self._slots.get(key, (None, None))
        if view is not None and view.shape == shape:
            return view
        size = math.prod(shape)
        if buf is None or buf.size < size:
            buf = np.empty(size if buf is None else max(size, 2 * buf.size))
        view = buf[:size].reshape(shape)
        self._slots[key] = (buf, view)
        return view


# Workspaces between calls: the next call takes one over, so the pages an
# earlier call touched serve it instead of being mapped and faulted in
# afresh. Each running call holds its own, so there are never more idle
# ones than calls ever ran at once.
_idle_workspaces: list[Workspace] = []


class _borrowed_workspace:
    """``with _borrowed_workspace() as ws``: an idle workspace, or a new one
    when none is idle, given back on leaving. A class, not a generator: every
    ``predict`` and ``explain`` call pays for the borrow."""

    __slots__ = ("ws",)

    def __enter__(self) -> Workspace:
        try:
            self.ws = _idle_workspaces.pop()
        except IndexError:
            self.ws = Workspace()
        return self.ws

    def __exit__(self, *exc_info) -> None:
        _idle_workspaces.append(self.ws)

# A batch is right-aligned and ordered longest first: sample k's events
# fill the last lengths[k] of its T rows, T being the longest length, so
# the samples that have started by a step are the batch's leading rows.
# Both directions see this layout (the backward one with each window
# reversed in place), so one rule serves both: a step runs its started
# rows only. A span (t0, t1, n) is a run of steps t0..t1-1 at which the
# first n samples have started; a batch's spans come oldest first and
# the last one runs every sample.

@functools.cache
def _gate_rows(d: int) -> np.ndarray:
    """Read-only per-column (scale, shift) rows of :func:`_gate_step` at
    hidden size ``d``: 0.5 and 1 on i, f, o; 1 and -0.0 on g."""
    rows = np.repeat([[0.5, 1.0], [1.0, -0.0]], [3 * d, d], axis=1)
    rows.flags.writeable = False
    return rows


def _gate_step(z: np.ndarray, a: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> None:
    """Gate activations ``a`` of the contiguous rows ``z`` (n, 4D): sigm(x) = (1 +
    tanh(x/2)) / 2 on i, f, o; tanh(x) * 1 + -0.0 on g (adding -0.0 keeps -0.0)."""
    np.multiply(z, scale, out=a)
    np.tanh(a, out=a)
    a += shift
    a *= scale


def _run_direction(events: np.ndarray, p: LstmWeights, spans: list[tuple[int, int, int]],
                   ws: Workspace, key: str, scale: float,
                   src: np.ndarray | None = None) -> DirectionTrace:
    """One direction over time-major activity indices ``events`` (T, B),
    every input scaled by ``scale``, its arrays taken from ``ws`` under
    ``key``. Each step runs the started rows its span names; a sample's
    cells before its initial-state row are never written. A sample starts
    from zero states, or with ``src`` (B,) from the states at flat index
    ``src[k]`` of this run's (T+1, B) state grid, written at an earlier
    step; index 0, the first sample's initial state, holds zeros."""
    t_len, b = events.shape
    d = p.hidden_size
    s = 3 * d  # sigmoid gates i, f, o come first
    # W x of a one-hot x is a column of W, so the input projection gathers
    # rows of a table holding W.T (times the input scale) and a zero row
    # for the pad index. The table sits behind the pre-activations in one
    # buffer, so the last span's finiteness check covers every input
    # weight, read or not, in the same call.
    h_dim = p.W.shape[1]
    checked = ws.take(key + ".pre", (t_len * b + h_dim + 1, 4 * d))
    pre, table = checked[:t_len * b].reshape(t_len, b, 4 * d), checked[t_len * b:]
    table[:h_dim] = p.W.T
    if scale != 1.0:  # only training scales; a multiply by 1 costs a D=16 predict ~3%
        table[:h_dim] *= scale
    table[h_dim] = 0.0
    act = ws.take(key + ".act", (t_len, b, 4 * d))
    states = ws.take(key + ".states", (3, t_len + 1, b, d))
    rec = ws.take("step.rec", (b, 4 * d))
    prod = ws.take("step.prod", (b, d))
    u_t = p.U.T
    gate_scale, gate_shift = _gate_rows(d)
    flat = states.reshape(3, -1, d)
    # Non-finite values run through a span and are reported after it.
    with np.errstate(invalid="ignore", over="ignore"):
        started = 0
        for t0, t1, n in spans:
            zs, acts = pre[t0:t1, :n], act[t0:t1, :n]
            table.take(events[t0:t1, :n], axis=0, out=zs, mode="clip")
            zs += p.b
            if src is None or t0 == 0:  # the samples that start at t0
                states[:, t0, started:n] = 0.0
            else:
                states[:, t0, started:n] = flat[:, src[started:n]]
            started = n
            cs, hs, tcs = states[:, t0:t1 + 1, :n]
            rec_n, prod_n = rec[:n], prod[:n]
            for t in range(t1 - t0):
                z, a = zs[t], acts[t]
                z += np.matmul(hs[t], u_t, out=rec_n)
                _gate_step(z, a, gate_scale, gate_shift)
                c_next, tanh_c = cs[t + 1], tcs[t + 1]
                np.multiply(a[:, d:2 * d], cs[t], out=c_next)
                c_next += np.multiply(a[:, :d], a[:, s:], out=prod_n)
                np.tanh(c_next, out=tanh_c)
                np.multiply(tanh_c, a[:, 2 * d:s], out=hs[t + 1])
            # The last span runs every row: its steps and the table are one block.
            if not np.isfinite(checked[t0 * b:] if n == b else zs).all():
                raise NonFiniteInput(
                    "LSTM input weights or gate pre-activations contain NaN or infinity")
    return DirectionTrace(events, pre, act, *states)


def _direction_backward(run: DirectionTrace, p: LstmWeights,
                        spans: list[tuple[int, int, int]], dh_last: np.ndarray,
                        grads: list[np.ndarray], ws: Workspace, scale: float) -> None:
    """Accumulate one direction's gradients, summed over the batch, into
    ``grads`` = [dW, dU, db], its inputs scaled by ``scale`` as the run
    read them. Each step runs the rows its span names; the gate gradients
    of those rows are stored packed, step after step."""
    t_len, b = run.events.shape
    d = p.hidden_size
    s = 3 * d
    end = sum((t1 - t0) * n for t0, t1, n in spans)
    dpre = ws.take("dpre", (end, 4 * d))
    dh = dh_last
    dc = np.zeros((b, d))
    for t0, t1, n in reversed(spans):
        first = end - (t1 - t0) * n
        dzs = dpre[first:end].reshape(t1 - t0, n, 4 * d)
        end = first
        acts, cs, tcs = run.act[t0:t1, :n], run.c[t0:t1, :n], run.tanh_c[t0 + 1:t1 + 1, :n]
        dh, dc = dh[:n], dc[:n]
        for t in reversed(range(t1 - t0)):
            a = acts[t]
            i_t, f_t, o_t, g_t = a[:, :d], a[:, d:2 * d], a[:, 2 * d:s], a[:, s:]
            tanh_c = tcs[t]
            dc = dc + dh * o_t * (1.0 - tanh_c ** 2)
            dz = dzs[t]
            dz[:, :d] = dc * g_t * i_t * (1.0 - i_t)
            dz[:, d:2 * d] = dc * cs[t] * f_t * (1.0 - f_t)
            dz[:, 2 * d:s] = dh * tanh_c * o_t * (1.0 - o_t)
            dz[:, s:] = dc * i_t * (1.0 - g_t ** 2)
            dh = dz @ p.U
            dc = dc * f_t
    # The started (step, sample) rows, in the packed order of dpre.
    counts = np.repeat([n for _, _, n in spans], [t1 - t0 for t0, t1, _ in spans])
    rows = np.flatnonzero(np.arange(b) < counts[:, None])
    events, hs = run.events.reshape(t_len * b)[rows], run.h[:-1].reshape(t_len * b, d)[rows]
    # The started rows' scaled one-hot inputs: one dense product sums the
    # gradients of every column of W, which beats scattering them by index.
    h_dim = p.W.shape[1]
    xs = (np.eye(h_dim + 1, h_dim) * scale).take(events, axis=0)
    grads[0] += np.matmul(dpre.T, xs, out=ws.take("grad.W", grads[0].shape))
    grads[1] += np.matmul(dpre.T, hs, out=ws.take("grad.U", grads[1].shape))
    grads[2] += dpre.sum(axis=0)


def _zero_grads(model: BiLstmModel) -> list[np.ndarray]:
    return [np.zeros_like(arr) for arr in model.arrays()]


def _views(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Consecutive C-contiguous views of ``flat`` shaped like ``like``."""
    ends = np.cumsum([arr.size for arr in like]).tolist()
    return [flat[end - arr.size:end].reshape(arr.shape) for arr, end in zip(like, ends)]


def _alignment(lengths: np.ndarray, t_len: int
               ) -> tuple[list[tuple[int, int, int]], np.ndarray]:
    """Spans and backward reading order of a right-aligned batch of
    ``t_len`` steps, ordered longest first.

    ``rev`` (T, B) is the backward reading order: each sample's window
    reversed in place, still right-aligned; it is its own inverse, so it
    also maps backward steps back to event order.
    """
    start = t_len - lengths  # first step of each sample
    if start[0] != 0 or (len(lengths) > 1 and (np.diff(start) < 0).any()):
        raise ValueError("a batch must be cropped to its longest sample "
                         "and ordered longest first")
    steps = np.arange(t_len)[:, None]
    rev = np.where(steps >= start, t_len - 1 + start - steps, steps)
    return _spans(start, t_len), rev


def _spans(start: np.ndarray, t_len: int) -> list[tuple[int, int, int]]:
    """The spans of a run of ``t_len`` steps whose samples start at the
    non-decreasing steps ``start``, the first at step 0."""
    if start[-1] == 0:  # every sample runs every step
        return [(0, t_len, len(start))]
    firsts, counts = np.unique(start, return_counts=True)
    ends = np.append(firsts[1:], t_len)
    return list(zip(firsts.tolist(), ends.tolist(), np.cumsum(counts).tolist()))


def _owners(tops: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """Per cell (T, B) of a right-aligned batch of true lengths ``lengths``
    (B,), ordered longest first, the row that runs it in one direction;
    None when no two rows begin alike. ``tops`` (T, B) holds each row's
    reading sequence in that direction from its top (entries past its
    length are ignored): the other direction's time-major events flipped in
    time.

    Each reading prefix (a node of the trie of the rows' reading sequences;
    the pad index is a symbol like any other) is run by the first row in
    batch order, so the longest, that reads it. A row owns its cells
    before its first step."""
    t_len, b = tops.shape
    steps = np.arange(t_len)[:, None]
    cols = np.arange(b)
    # The reading sequences, each ending in a symbol of its own (-1 - k);
    # the rows lexically sorted, and the common prefix of each sorted pair.
    seq = np.where(steps < lengths, tops, -1 - cols)
    srt = np.lexsort(seq[::-1])
    seq = seq[:, srt]
    common = np.logical_and.accumulate(seq[:, 1:] == seq[:, :-1]).sum(0)
    if not common.any():
        return None
    # The rows reading one prefix of depth j + 1 are a run of the sorted
    # rows whose common prefixes are all longer than j; its owner is the
    # run's smallest batch row. Batch cell (t, k) lies at depth t - start[k];
    # a negative depth wraps to a depth past the row's end, which it owns.
    new = np.ones((t_len, b), dtype=bool)
    np.less_equal(common, steps, out=new[:, 1:])
    flags = new.ravel()
    mins = np.minimum.reduceat(np.tile(srt, t_len), np.flatnonzero(flags))
    place = np.empty(b, dtype=np.intp)
    place[srt] = cols
    return mins[np.cumsum(flags)[(steps - t_len + lengths) * b + place] - 1]


def _step_plan(tops: np.ndarray, lengths: np.ndarray):
    """The steps one direction runs of a right-aligned batch of true lengths
    ``lengths`` (B,), ordered longest first, each reading prefix once (see
    :func:`_owners`, which reads ``tops``); None when no two rows begin
    alike. A row runs the steps it owns, the last ones of its window, and
    starts from its parent's states: those after the steps it shares.

    Returns (rows, owned, src, table): the batch rows that own a step, by
    owned steps, most first, each one column of the run; their owned step
    counts; per column the flat index of its parent's states in the run's
    (T+1, B') state grid, or 0 (the first column's zero initial state) for
    none; and (T, B) per batch cell the flat index of the run's (T, B')
    step grid that holds it (any index in range before a row's first
    step). Each column's parent started before it, and every row keeps its
    step positions, so a parent's states are written before its children
    start."""
    owner = _owners(tops, lengths)
    if owner is None:
        return None
    t_len, b = tops.shape
    steps = np.arange(t_len)[:, None]
    owned = lengths - t_len + (owner == np.arange(b)).sum(0)  # the last steps a row reads
    rows = np.argsort(-owned, kind="stable")[:np.count_nonzero(owned)]
    width = len(rows)
    # Batch cell (t, k) is step t + L[k] - L[o] of its owner o's column.
    base = np.zeros(b, dtype=np.intp)
    base[rows] = np.arange(width)
    base -= lengths * width
    table = (steps + lengths) * width + base[owner]
    first = t_len - owned[rows]  # each column's first step, its parent's states just before
    src = np.where(first > t_len - lengths[rows], table[first - 1, rows] + width, 0)
    return rows, owned[rows], src, table


def _shared_run(read: np.ndarray, tops: np.ndarray, lengths: np.ndarray,
                spans: list[tuple[int, int, int]], p: LstmWeights, ws: Workspace, key: str,
                scale: float = 1.0, share: bool = True):
    """One direction over the batch ``read`` (T, B) of true lengths
    ``lengths``, laid out by ``spans``, as :func:`_run_batch` runs it; with
    ``share``, each reading prefix of its rows once (see :func:`_step_plan`,
    which reads ``tops``). Returns the run and the batch's cell table, None
    when the run is the batch itself."""
    plan = _step_plan(tops, lengths) if share and len(lengths) > 1 else None
    if plan is None:
        return _run_direction(read, p, spans, ws, key, scale), None
    rows, owned, src, table = plan
    t_len = len(read)
    return _run_direction(read[:, rows], p, _spans(t_len - owned, t_len), ws, key, scale,
                          src), table


def _run_batch(model: BiLstmModel, events: np.ndarray, lengths: np.ndarray,
               ws: Workspace, scale: float = 1.0, share: bool = False,
               fwd: tuple[DirectionTrace, np.ndarray] | None = None) -> ForwardTrace:
    """Both directions and the output layer over a right-aligned batch of
    activity indices ``events`` (B, T), ordered longest first, every input
    scaled by ``scale``; the traces carry the batch axis. Their arrays
    come from ``ws``.

    With ``share``, each direction runs each reading prefix of the batch
    once (see :func:`_step_plan`) and every row reads its cells through
    that direction's table (see :class:`ForwardTrace`). With ``fwd`` =
    (run, table), the forward direction is not run: the rows read their
    cells from ``run``, a run of other rows, through ``table``."""
    b, t_len = events.shape
    spans, rev = _alignment(lengths, t_len)
    # Time-major, the backward direction with each window reversed in place.
    reads = events.T, events.T[rev, np.arange(b)]
    if fwd is None:
        fwd = _shared_run(reads[0], reads[1][::-1], lengths, spans, model.forward_params, ws,
                          "fwd", scale, share)
    bwd = _shared_run(reads[1], reads[0][::-1], lengths, spans, model.backward_params, ws,
                      "bwd", scale, share)
    # Each row's state after its last step.
    finals = [run.h[-1] if table is None else
              run.h[1:].reshape(-1, model.hidden_size).take(table[-1], axis=0)
              for run, table in (fwd, bwd)]
    hcat = np.concatenate(finals, axis=1)
    logits = hcat @ model.W_out.T + model.b_out
    return ForwardTrace(fwd[0], bwd[0], hcat, logits, softmax(logits, axis=-1), spans, rev,
                        events.T, (fwd[1], bwd[1]))


def _batch_backward(model: BiLstmModel, events: np.ndarray, lengths: np.ndarray,
                    labels: np.ndarray, grads: list[np.ndarray], ws: Workspace,
                    scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate summed gradients of per-sample cross-entropy into
    ``grads`` (laid out like ``model.arrays()``) over a right-aligned
    batch in any order, as :func:`_run_batch` takes it; it runs longest
    first.

    Returns (per-sample losses, predicted indices) in input order.
    """
    order = np.argsort(-lengths, kind="stable")
    events, lengths, labels = events[order], lengths[order], labels[order]
    run = _run_batch(model, events, lengths, ws, scale)
    b = events.shape[0]
    d = model.hidden_size
    dlogits = run.probs.copy()
    dlogits[np.arange(b), labels] -= 1.0
    grads[6] += dlogits.T @ run.hcat
    grads[7] += dlogits.sum(axis=0)
    dhcat = dlogits @ model.W_out
    _direction_backward(run.fwd, model.forward_params, run.spans, dhcat[:, :d], grads[0:3],
                        ws, scale)
    _direction_backward(run.bwd, model.backward_params, run.spans, dhcat[:, d:], grads[3:6],
                        ws, scale)
    losses = np.empty(b)
    preds = np.empty(b, dtype=np.intp)
    losses[order] = -np.log(np.maximum(run.probs[np.arange(b), labels], LOSS_CLIP))
    preds[order] = np.argmax(run.probs, axis=1)
    return losses, preds


def predict_dataset(model: BiLstmModel, dataset: PrefixDataset) -> np.ndarray:
    """Class distributions (n, H) of every sample of a dataset, in order.

    Samples run in batches cropped to their longest sample and capped at
    ``_INFERENCE_ROWS`` (sample, step) rows; each direction of a batch runs
    each distinct reading prefix once, across case ids, a prefix of a
    longer row may read that row's forward run in another batch (see
    :func:`_inference_runs`), and a repeated row runs once.
    """
    if dataset.vocab.size != model.n_classes:
        raise ShapeMismatch(
            f"dataset rows have {dataset.vocab.size} classes, model expects {model.n_classes}")
    with _borrowed_workspace() as ws:
        return _predict_probs(model, dataset.events, dataset.true_lengths, ws)


def predict_many(model: BiLstmModel, samples: list[PrefixSample]) -> np.ndarray:
    """Class distributions (n, H) of many samples, in input order, batched
    like :func:`predict_dataset`. A row can differ from :func:`predict`'s
    in its last bits: the batch shape changes the rounding."""
    events, lengths = _stack_events(model, samples)
    with _borrowed_workspace() as ws:
        return _predict_probs(model, events, lengths, ws)


def _predict_probs(model: BiLstmModel, events: np.ndarray, lengths: np.ndarray,
                   ws: Workspace) -> np.ndarray:
    """Class distributions of the right-aligned rows ``events`` (n, T) of
    true lengths ``lengths``, in row order; a repeated row is run once
    (see :func:`_distinct_rows`)."""
    distinct = _distinct_rows(events, lengths)
    if distinct is not None:
        first = distinct[0]
        events, lengths = events[first], lengths[first]
    probs = np.empty((len(lengths), model.n_classes))
    for part, run in _inference_runs(model, events, lengths, ws):
        probs[part] = run.probs
    return probs if distinct is None else probs[distinct[1]]


def _cut(rows: np.ndarray, lengths: np.ndarray):
    """Consecutive runs of ``rows``, ordered longest first, each holding
    at most ``_INFERENCE_ROWS`` (row, step) cells or one row; yields each
    with its longest length."""
    start = 0
    while start < len(rows):
        t_len = int(lengths[rows[start]])
        part = rows[start:start + max(1, _INFERENCE_ROWS // t_len)]
        yield part, t_len
        start += len(part)


def _distinct_rows(events: np.ndarray, lengths: np.ndarray):
    """(first, inverse) of the right-aligned rows ``events`` (n, T): the
    first occurrence of each distinct (true length, events) row, in row
    order, and per row the position of its own in ``first``, so a padded
    row matching another at another length (an occluded first event) stays
    apart. None when n < 2 or no row repeats: those calls keep their bits."""
    if len(lengths) < 2:
        return None
    rows = np.column_stack([lengths, events])  # each row compared as one run of bytes
    _, first, inverse = np.unique(rows.view(np.dtype((np.void, rows[0].nbytes)))[:, 0],
                                  return_index=True, return_inverse=True)
    if len(first) == len(lengths):
        return None
    by_row = np.argsort(first)  # distinct rows in row order
    return first[by_row], np.argsort(by_row)[inverse]


def _forward_roots(events: np.ndarray, lengths: np.ndarray, order: np.ndarray):
    """Per row of the distinct right-aligned rows ``events`` (n, T) of true
    lengths ``lengths``, its forward root: the longest row whose events
    begin with its own, the first in ``order`` (longest first) among
    equals, so the row itself when its events begin no longer row's. None
    when every row is its own root."""
    # Each row's events from its first; the longest row that begins with a
    # row's events owns its last cell.
    width = events.shape[1]
    steps = np.arange(lengths[order[0]])[:, None]
    at = np.minimum(steps + width - lengths[order], width - 1)  # past a row's end: any
    owner = _owners(events[order, at], lengths[order])
    if owner is None or (owner[-1] == np.arange(len(order))).all():
        return None
    root = np.empty(len(order), dtype=np.intp)
    root[order] = order[owner[-1]]
    return root


def _inference_runs(model: BiLstmModel, events: np.ndarray, lengths: np.ndarray,
                    ws: Workspace):
    """Yield (row indices, :class:`ForwardTrace`) per inference batch of
    the distinct right-aligned rows ``events`` (n, T) of true lengths
    ``lengths``, each batch ordered longest first, cropped to its longest
    row and holding at most ``_INFERENCE_ROWS`` (row, step) cells or one
    row. The traces live in ``ws``, each valid until the next one is drawn.
    The batches are a longest-first cut, each running both directions and
    each reading prefix and suffix of a batch once, or the batches of the
    root chunks, which run the backward direction only and read their
    forward cells from their chunk's run: the layout paragraph of the
    module docstring says when each is chosen."""
    n, width = events.shape
    order = np.argsort(-lengths, kind="stable")
    batches = list(_cut(order, lengths))
    share = model.hidden_size >= _SHARED_HIDDEN
    # One batch already runs each reading prefix of the call once.
    root = _forward_roots(events, lengths, order) if share and len(batches) > 1 else None
    if root is not None:
        chunks = list(_cut(order[root[order] == order], lengths))
        # Per root its chunk and column there, per row its batch in the cut.
        chunk_of, col, batch_of = np.empty((3, n), dtype=np.intp)
        for k, (chunk, _) in enumerate(chunks):
            chunk_of[chunk], col[chunk] = k, np.arange(len(chunk))
        for k, (part, _) in enumerate(batches):
            batch_of[part] = k
        # Each chunk's rows, its roots among them, longest first.
        key = chunk_of[root[order]]
        rows = np.split(order[np.argsort(key, kind="stable")], np.cumsum(np.bincount(key))[:-1])
        parts = [list(_cut(chunk_rows, lengths)) for chunk_rows in rows]
        # The chunks spare at most the forward cells of the rows that the
        # longest-first cut puts apart from their root; each batch they add
        # costs about what a batch of cells does.
        apart = lengths[batch_of[root] != batch_of].sum()
        added = sum(map(len, parts)) - len(batches)
    if root is None or apart <= added * _INFERENCE_ROWS:
        for part, t_len in batches:
            yield part, _run_batch(model, events[part, width - t_len:], lengths[part], ws,
                                   share=share)
        return
    lag = lengths[root] - lengths
    for (chunk, t_root), chunk_parts in zip(chunks, parts):
        spans, rev = _alignment(lengths[chunk], t_root)
        read = events[chunk, width - t_root:].T
        run, table = _shared_run(read, read[rev, np.arange(len(chunk))][::-1], lengths[chunk],
                                 spans, model.forward_params, ws, "fwd")
        for part, t_len in chunk_parts:
            # Batch cell (t, k) is its root's cell at step t + t_root - t_len
            # - lag[k] of the chunk; any cell before the row's first step.
            at = np.maximum(np.arange(t_len)[:, None] + (t_root - t_len - lag[part]), 0)
            cols = col[root[part]]
            cells = at * len(chunk) + cols if table is None else table[at, cols]
            yield part, _run_batch(model, events[part, width - t_len:], lengths[part], ws,
                                   share=True, fwd=(run, cells))


# --- public per-sample operations -----------------------------------------

def _stack_events(model: BiLstmModel, samples) -> tuple[np.ndarray, np.ndarray]:
    """Right-aligned batch (B, T) of the samples' true events, T the
    longest of them, padded with the pad index; and their lengths (B,)."""
    h = model.n_classes
    for sample in samples:
        if sample.n_classes != h:
            raise ShapeMismatch(
                f"sample has {sample.n_classes} classes, model expects {h}")
    if len(samples) == 1:  # a single prediction reads a view of its events
        n = samples[0].true_length
        return samples[0].events[None, samples[0].max_len - n:], np.asarray([n])
    lengths = np.asarray([sample.true_length for sample in samples], dtype=np.int64)
    t_len = int(lengths.max(initial=0))
    events = np.full((len(samples), t_len), h, dtype=np.int32)
    for row, sample, n in zip(events, samples, lengths):
        row[t_len - n:] = sample.events[sample.max_len - n:]
    return events, lengths


def forward(model: BiLstmModel, sample: PrefixSample) -> ForwardTrace:
    """Run the network over one sample as a batch of one, recording every
    intermediate value: every array of the trace keeps a batch axis of
    size 1.

    Only the true-length suffix enters the recurrence; padding is never
    touched. The trace's arrays live in a workspace of their own.
    """
    return _run_batch(model, *_stack_events(model, [sample]), Workspace())


def predict(model: BiLstmModel, sample: PrefixSample) -> tuple[int, np.ndarray]:
    """Most likely next activity index and the full class distribution.

    Ties break toward the lowest index.
    """
    with _borrowed_workspace() as ws:
        probs = _run_batch(model, *_stack_events(model, [sample]), ws).probs[0]
    return int(np.argmax(probs)), probs


def backward(model: BiLstmModel, sample: PrefixSample, label_index: int) -> dict:
    """Analytic gradients of this sample's cross-entropy loss, keyed like
    ``model.param_items()``."""
    if not 0 <= label_index < model.n_classes:
        raise ShapeMismatch(f"label index {label_index} out of range")
    events, lengths = _stack_events(model, [sample])
    grads = _zero_grads(model)
    with _borrowed_workspace() as ws:
        _batch_backward(model, events, lengths, np.asarray([label_index]), grads, ws)
    return dict(_named(grads))


# --- Nadam optimizer --------------------------------------------------------

class Nadam:
    """Adam with Nesterov momentum at the usual framework defaults (incl. the 0.96-based
    momentum schedule), stepping ``params`` in place; its moments and work arrays are ``ws``'s."""

    beta1 = 0.9
    beta2 = 0.999
    epsilon = 1e-7

    def __init__(self, params: np.ndarray, learning_rate: float, ws: Workspace):
        self.params = params
        self.lr = learning_rate
        self.m, self.v, *self._work = (ws.take(f"nadam.{k}", params.shape) for k in "mvab")
        self.m.fill(0.0)
        self.v.fill(0.0)
        self.t = 0
        self.mu_product = 1.0

    def step(self, grads: np.ndarray) -> None:
        """One update, computed in place in the order of
        m_hat = mu' m / (1 - prod mu') + (1 - mu) g / (1 - prod mu),
        p -= lr m_hat / (sqrt(v / (1 - beta2^t)) + epsilon)."""
        self.t += 1
        mu_t = self.beta1 * (1.0 - 0.5 * 0.96 ** self.t)
        mu_next = self.beta1 * (1.0 - 0.5 * 0.96 ** (self.t + 1))
        self.mu_product *= mu_t
        mu_product_next = self.mu_product * mu_next
        p, g, m, v, (a, b) = self.params, grads, self.m, self.v, self._work
        m += np.multiply(np.subtract(g, m, out=a), 1.0 - self.beta1, out=a)
        np.multiply(g, g, out=a)
        a -= v
        v += np.multiply(a, 1.0 - self.beta2, out=a)
        np.multiply(m, mu_next, out=a)
        a /= 1.0 - mu_product_next
        np.multiply(g, 1.0 - mu_t, out=b)
        b /= 1.0 - self.mu_product
        a += b  # m_hat
        np.divide(v, 1.0 - self.beta2 ** self.t, out=b)
        np.sqrt(b, out=b)
        b += self.epsilon
        a *= self.lr
        a /= b
        p -= a


# --- training ---------------------------------------------------------------

def _drop_inputs(events: np.ndarray, lengths: np.ndarray, n_classes: int,
                 rng: np.random.Generator, keep: float) -> np.ndarray:
    """The right-aligned batch ``events`` (B, T) under input dropout: a
    new array with each dropped event set to the pad index ``n_classes``.

    A keep mask is drawn for every unit of every true input row, in one
    call, sample after sample in time order: the same values from the
    stream as one ``(length, H)`` draw per sample in turn. A one-hot row
    keeps only its active unit, so an event is dropped when its mask at
    that unit is; the kept ones all share the inverted-dropout scale
    1/keep, which the kernels apply.
    """
    t_len = events.shape[1]
    started = np.arange(t_len) >= (t_len - lengths)[:, None]
    kept = rng.random((int(lengths.sum()), n_classes)) < keep
    read = events[started]
    dropped = events.copy()
    dropped[started] = np.where(kept[np.arange(len(kept)), read], read, n_classes)
    return dropped


def _dataset_loss(model: BiLstmModel, dataset: PrefixDataset,
                  ws: Workspace) -> tuple[float, float]:
    """Mean loss and accuracy over a dataset, no dropout."""
    probs = _predict_probs(model, dataset.events, dataset.true_lengths, ws)
    labels = dataset.label_indices
    picked = np.maximum(probs[np.arange(len(dataset)), labels], LOSS_CLIP)
    accuracy = float((np.argmax(probs, axis=1) == labels).mean())
    return float(-np.log(picked).mean()), accuracy


def train(dataset: PrefixDataset, val_dataset: PrefixDataset,
          config: TrainConfig) -> tuple[BiLstmModel, list[EpochStats]]:
    """Mini-batch Nadam training with input dropout and early stopping.

    Input dropout is drawn fresh every epoch: a dropped event reads the
    pad index, and the kept ones are scaled by 1/keep. After
    each epoch the validation loss is computed without dropout; training
    stops once it has not improved for ``config.patience`` consecutive
    epochs (or at ``config.max_epochs``), and the parameter snapshot with
    the lowest validation loss is restored.
    """
    if len(dataset) == 0 or len(val_dataset) == 0:
        raise EmptyDataset("training and validation datasets must be non-empty")
    if val_dataset.vocab.labels != dataset.vocab.labels:
        raise ShapeMismatch("training and validation vocabularies differ")

    model = init_model(dataset.vocab, dataset.M, config)
    # Weights, gradients, Nadam state and best snapshot sit in one flat buffer each, so a
    # batch updates each in one call. Only the weights are new: the model keeps them.
    weights = np.concatenate([arr.ravel() for arr in model.arrays()])
    model = BiLstmModel.of(_views(weights, model.arrays()), model.vocab, model.max_len,
                           model.hyperparams)
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    shuffle_rng = np.random.default_rng(seeds[1])
    dropout_rng = np.random.default_rng(seeds[2])
    keep = 1.0 - config.dropout_rate

    history: list[EpochStats] = []
    best_loss = math.inf
    best_epoch = 0
    epochs_since_best = 0
    n = len(dataset)

    with _borrowed_workspace() as ws:
        grad_buf = ws.take("train.grads", weights.shape)
        grads = _views(grad_buf, model.arrays())
        best_snapshot = ws.take("train.best", weights.shape)
        optimizer = Nadam(weights, config.learning_rate, ws)
        for epoch in range(1, config.max_epochs + 1):
            order = shuffle_rng.permutation(n)
            epoch_loss = 0.0
            epoch_correct = 0
            for start in range(0, n, config.batch_size):
                batch = order[start:start + config.batch_size]
                lengths = dataset.true_lengths[batch]
                labels = dataset.label_indices[batch]
                events = dataset.events[batch, dataset.M - int(lengths.max()):]
                if config.dropout_rate > 0.0:
                    events = _drop_inputs(events, lengths, model.n_classes, dropout_rng, keep)
                grad_buf.fill(0.0)
                losses, preds = _batch_backward(model, events, lengths, labels, grads, ws,
                                                1.0 / keep)
                epoch_loss += float(losses.sum())
                epoch_correct += int((preds == labels).sum())
                grad_buf *= 1.0 / len(batch)
                optimizer.step(grad_buf)

            train_loss = epoch_loss / n
            val_loss, val_acc = _dataset_loss(model, val_dataset, ws)
            if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
                raise NonFiniteLoss(epoch)
            history.append(EpochStats(epoch, train_loss, epoch_correct / n,
                                      val_loss, val_acc))

            if val_loss < best_loss:
                best_loss = val_loss
                best_epoch = epoch
                np.copyto(best_snapshot, weights)
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                if epochs_since_best >= config.patience:
                    break
        np.copyto(weights, best_snapshot)

    model.trained_epochs = len(history)
    model.hyperparams = dict(model.hyperparams, best_epoch=best_epoch)
    return model, history


# --- serialization ----------------------------------------------------------

def _write_json(doc: dict, f: IO) -> None:
    json.dump(doc, f)
    f.write("\n")


def _encode_array(arr: np.ndarray) -> dict:
    """An array as stored: its little-endian float64 bytes in base64."""
    raw = arr.astype(_STORED_DTYPE, copy=False).tobytes()  # C order
    return {"dtype": _STORED_DTYPE, "shape": list(arr.shape),
            "base64": base64.b64encode(raw).decode("ascii")}


def save_model(model: BiLstmModel, sink: Union[str, Path, IO]) -> None:
    """Write the model as versioned JSON; floats round-trip exactly.

    Each direction holds its stacked ``W``, ``U`` and ``b``; every array
    is stored as ``{"dtype": "<f8", "shape": [...], "base64": "..."}``.
    A path is written through a temporary file in the same directory and
    renamed over the target, so a failed write leaves any old file intact.
    """
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "hidden_size": model.hidden_size,
        "vocab": list(model.vocab.labels),
        "max_len": model.max_len,
        "hyperparams": dict(model.hyperparams, trained_epochs=model.trained_epochs),
    }
    for key, p in (("forward", model.forward_params), ("backward", model.backward_params)):
        doc[key] = {"W": _encode_array(p.W), "U": _encode_array(p.U), "b": _encode_array(p.b)}
    doc["W_out"] = _encode_array(model.W_out)
    doc["b_out"] = _encode_array(model.b_out)
    if not isinstance(sink, (str, Path)):
        _write_json(doc, sink)
        return
    path = Path(sink)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            _write_json(doc, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _decode_array(doc: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """A stored array of format 2 as a new, writable, native float64 array."""
    if doc["dtype"] != _STORED_DTYPE:
        raise CorruptModel(f"{name} has dtype {doc['dtype']!r}, expected {_STORED_DTYPE!r}")
    if doc["shape"] != list(shape):
        raise CorruptModel(f"{name} has shape {doc['shape']}, expected {list(shape)}")
    try:
        raw = base64.b64decode(doc["base64"], validate=True)
    except (binascii.Error, ValueError) as exc:
        raise CorruptModel(f"{name} is not valid base64: {exc}") from None
    size = 8 * math.prod(shape)
    if len(raw) != size:
        raise CorruptModel(f"{name} holds {len(raw)} bytes, expected {size}")
    return np.frombuffer(raw, dtype=_STORED_DTYPE).astype(np.float64).reshape(shape)


def _arrays_v2(doc: dict, d: int, h: int) -> list[np.ndarray]:
    """The arrays of a format 2 file, laid out like ``BiLstmModel.arrays()``."""
    shapes = {"W": (4 * d, h), "U": (4 * d, d), "b": (4 * d,)}
    arrays = [_decode_array(doc[key][kind], f"{key}.{kind}", shape)
              for key in ("forward", "backward") for kind, shape in shapes.items()]
    return arrays + [_decode_array(doc["W_out"], "W_out", (h, 2 * d)),
                     _decode_array(doc["b_out"], "b_out", (h,))]


def _direction_v1(doc: dict, d: int, h: int) -> list[np.ndarray]:
    blocks = {"W": [], "U": [], "b": []}
    for gate in GATES:
        for kind, shape in (("W", (d, h)), ("U", (d, d)), ("b", (d,))):
            name = f"{kind}_{gate}"
            arr = np.asarray(doc[name], dtype=np.float64)
            if arr.shape != shape:
                raise CorruptModel(f"{name} has shape {arr.shape}, expected {shape}")
            blocks[kind].append(arr)
    return [np.vstack(blocks["W"]), np.vstack(blocks["U"]), np.concatenate(blocks["b"])]


def _arrays_v1(doc: dict, d: int, h: int) -> list[np.ndarray]:
    """The arrays of a format 1 file, which names every gate block."""
    return (_direction_v1(doc["forward"], d, h) + _direction_v1(doc["backward"], d, h)
            + [np.asarray(doc["W_out"], dtype=np.float64),
               np.asarray(doc["b_out"], dtype=np.float64)])


def _header_size(doc: dict, key: str) -> int:
    value = doc[key]
    if type(value) is not int or value < 1:  # a JSON true is a bool, not a size
        raise CorruptModel(f"{key} must be an integer >= 1, got {value!r}")
    return value


def _header_vocab(doc: dict) -> ActivityVocabulary:
    labels = doc["vocab"]
    if not (isinstance(labels, list) and labels and all(isinstance(x, str) for x in labels)):
        raise CorruptModel("vocab must be a non-empty list of strings")
    return ActivityVocabulary(tuple(labels))


def load_model(source: Union[str, Path, IO]) -> BiLstmModel:
    """Read a model written by :func:`save_model`, in format 2 or 1. A path
    is read as bytes and decoded as UTF-8 in one call (a text-mode read
    costs a D=100 model's load about as much as its JSON parse); a stream
    is parsed as it reads."""
    try:
        if isinstance(source, (str, Path)):
            doc = json.loads(Path(source).read_bytes().decode("utf-8"))
        else:
            doc = json.load(source)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptModel(f"model file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CorruptModel("model file does not hold a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version not in _READABLE_VERSIONS:  # not 2.0, not true
        raise VersionMismatch(f"model format {version!r}, expected one of "
                              f"{', '.join(map(str, _READABLE_VERSIONS))}")
    try:
        d, max_len = _header_size(doc, "hidden_size"), _header_size(doc, "max_len")
        vocab = _header_vocab(doc)
        h = vocab.size
        hyper = doc["hyperparams"]  # parsed for this call alone: popping from it is safe
        if not isinstance(hyper, dict):
            raise CorruptModel(f"hyperparams must be a JSON object, got {type(hyper).__name__}")
        trained = hyper.pop("trained_epochs", 0)
        if type(trained) is not int or trained < 0:  # not 1e400 (inf), 2.7 or true
            raise CorruptModel(f"trained_epochs must be an integer >= 0, got {trained!r}")
        arrays = (_arrays_v2 if version == 2 else _arrays_v1)(doc, d, h)
        model = BiLstmModel.of(arrays, vocab, max_len, hyper, trained)
    except CorruptModel:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptModel(f"model file is structurally broken: {exc}") from None
    if model.W_out.shape != (h, 2 * d) or model.b_out.shape != (h,):
        raise CorruptModel(
            f"output layer has shapes {model.W_out.shape}/{model.b_out.shape}")
    if not all(np.isfinite(arr).all() for arr in model.arrays()):
        raise CorruptModel("model file holds NaN or infinite weights")
    return model
