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
W x is one column of W, read by an index gather; the pad index reads a
zero input. Each direction keeps its four gates stacked in the order
i, f, o, g, so one matmul per step serves all of them. Training,
validation, evaluation and single-sample prediction all run the same
batched recurrence. A batch is right-aligned and ordered longest first,
so the samples that have started by a step are its leading rows: each
step runs those rows only, like a packed sequence.
"""
from __future__ import annotations

import base64
import binascii
import functools
import json
import math
import numbers
import os
from contextlib import nullcontext
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
    (1/keep in training, else 1). At the steps before a sample's first
    event its rows of ``act``, ``c``, ``h`` and ``tanh_c`` are zero, and
    its ``pre`` rows hold the bias alone. The gate blocks of ``pre`` and
    ``act`` are the row blocks of :meth:`LstmWeights.rows`."""
    events: np.ndarray  # (T, B) int activity indices as read, H for a zero input
    pre: np.ndarray  # (T, B, 4D) gate pre-activations, blocks i, f, o, g
    act: np.ndarray  # (T, B, 4D) gate activations, same blocks
    c: np.ndarray  # (T+1, B, D), c[0] is the zero initial state
    h: np.ndarray  # (T+1, B, D)
    tanh_c: np.ndarray  # (T+1, B, D), tanh(c), kept for BPTT


@dataclass
class ForwardTrace:
    """One forward pass over a batch: both directions, their final hidden
    states ``hcat``, the output logits and class probabilities, and the
    ``spans`` and backward order ``rev`` of the batch layout it ran in, as
    :func:`_alignment` derives them.

    Every row reads its forward states from ``fwd``, the run over its
    root rows (see :func:`_inference_runs`), through ``fwd_map`` (step
    offset, root column): row k's step t is the root run's step
    t + offset[k] in column col[k]. A batch that ran its own forward
    direction is its own root, with offset 0 and column k."""
    fwd: DirectionTrace
    bwd: DirectionTrace
    hcat: np.ndarray  # (B, 2D): forward then backward
    logits: np.ndarray  # (B, H)
    probs: np.ndarray  # (B, H)
    spans: list[tuple[int, int, int]]
    rev: np.ndarray  # (T, B)
    fwd_map: tuple[np.ndarray, np.ndarray]


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
                   ws: Workspace, key: str, scale: float) -> DirectionTrace:
    """One direction over time-major activity indices ``events`` (T, B),
    every input scaled by ``scale``, its arrays taken from ``ws`` under
    ``key``. Each step runs the started rows its span names; the other
    rows keep zero states and activations."""
    t_len, b = events.shape
    d = p.hidden_size
    s = 3 * d  # sigmoid gates i, f, o come first
    # W x of a one-hot x is a column of W, so the input projection gathers
    # rows of a table holding W.T (times the input scale) and a zero row
    # for the pad index. The table sits in front of the pre-activations in
    # one buffer, so the one finiteness check below covers every input
    # weight, read or not.
    h_dim = p.W.shape[1]
    checked = ws.take(key + ".pre", (h_dim + 1 + t_len * b, 4 * d))
    table, pre = checked[:h_dim + 1], checked[h_dim + 1:].reshape(t_len, b, 4 * d)
    table[:h_dim] = p.W.T
    if scale != 1.0:  # only training scales; a multiply by 1 costs a D=16 predict ~3%
        table[:h_dim] *= scale
    table[h_dim] = 0.0
    act = ws.take(key + ".act", (t_len, b, 4 * d))
    states = ws.take(key + ".states", (3, t_len + 1, b, d))
    states[:, 0] = 0.0
    rec = ws.take("step.rec", (b, 4 * d))
    prod = ws.take("step.prod", (b, d))
    u_t = p.U.T
    gate_scale, gate_shift = _gate_rows(d)
    # Non-finite values run through and are reported once, below.
    with np.errstate(invalid="ignore", over="ignore"):
        table.take(events, axis=0, out=pre, mode="clip")
        pre += p.b
        for t0, t1, n in spans:
            if n < b:
                states[:, t0 + 1:t1 + 1, n:] = 0.0
                act[t0:t1, n:] = 0.0
            zs, acts = pre[t0:t1, :n], act[t0:t1, :n]
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
    if not np.isfinite(checked).all():
        raise NonFiniteInput("LSTM input weights or gate pre-activations contain NaN or infinity")
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
    b = len(lengths)
    start = t_len - lengths  # first step of each sample
    if start[0] != 0 or (b > 1 and (np.diff(start) < 0).any()):
        raise ValueError("a batch must be cropped to its longest sample "
                         "and ordered longest first")
    steps = np.arange(t_len)[:, None]
    rev = np.where(steps >= start, t_len - 1 + start - steps, steps)
    if start[-1] == 0:  # every sample runs every step
        return [(0, t_len, b)], rev
    firsts, counts = np.unique(start, return_counts=True)
    ends = np.append(firsts[1:], t_len)
    return list(zip(firsts.tolist(), ends.tolist(), np.cumsum(counts).tolist())), rev


def _run_batch(model: BiLstmModel, events: np.ndarray, lengths: np.ndarray,
               ws: Workspace, scale: float = 1.0,
               fwd: tuple[DirectionTrace, tuple[np.ndarray, np.ndarray]] | None = None
               ) -> ForwardTrace:
    """Both directions and the output layer over a right-aligned batch of
    activity indices ``events`` (B, T), ordered longest first, every input
    scaled by ``scale``; the traces carry the batch axis. Their arrays
    come from ``ws``.

    ``fwd`` is (root run, map): the forward run the rows are prefixes of
    and where each row reads it (see :class:`ForwardTrace`). Without it
    the batch runs its forward direction and is its own root."""
    b, t_len = events.shape
    spans, rev = _alignment(lengths, t_len)
    if fwd is None:
        fwd = (_run_direction(events.T, model.forward_params, spans, ws, "fwd", scale),
               (np.zeros(b, dtype=np.intp), np.arange(b)))
    root, (offset, col) = fwd
    reverse = (rev, np.arange(b))  # time-major, each window reversed in place
    run_b = _run_direction(events.T[reverse], model.backward_params, spans, ws, "bwd", scale)
    # Each row's forward state after its last step, then the backward one.
    hcat = np.concatenate([root.h[t_len + offset, col], run_b.h[-1]], axis=1)
    logits = hcat @ model.W_out.T + model.b_out
    return ForwardTrace(root, run_b, hcat, logits, softmax(logits, axis=-1), spans, rev,
                        (offset, col))


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

    Samples run longest first, in batches cropped to their longest sample
    and capped at ``_INFERENCE_ROWS`` (sample, step) rows; the prefixes of
    one case share its forward run (see :func:`_inference_runs`).
    """
    if dataset.vocab.size != model.n_classes:
        raise ShapeMismatch(
            f"dataset rows have {dataset.vocab.size} classes, model expects {model.n_classes}")
    with _borrowed_workspace() as ws:
        return _predict_probs(model, dataset.events, dataset.true_lengths, ws, dataset.case_ids)


def predict_many(model: BiLstmModel, samples: list[PrefixSample]) -> np.ndarray:
    """Class distributions (n, H) of many samples, in input order, batched
    like :func:`predict_dataset`. A row can differ from :func:`predict`'s
    in its last bits: the batch shape changes the rounding."""
    events, lengths = _stack_events(model, samples)
    with _borrowed_workspace() as ws:
        return _predict_probs(model, events, lengths, ws, [s.case_id for s in samples])


def _predict_probs(model: BiLstmModel, events: np.ndarray, lengths: np.ndarray,
                   ws: Workspace, case_ids) -> np.ndarray:
    """Class distributions of the right-aligned rows ``events`` (n, T) of
    true lengths ``lengths`` and case ids ``case_ids``, in row order."""
    probs = np.empty((len(lengths), model.n_classes))
    for part, run in _inference_runs(model, events, lengths, ws, case_ids):
        probs[part] = run.probs
    return probs


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


def _prefix_roots(events: np.ndarray, lengths: np.ndarray, order: np.ndarray,
                  case_ids) -> np.ndarray:
    """Per row of ``events`` (n, T), the row whose forward run it reads:
    its case id's root when its events are a prefix of the root's, else
    the row itself.

    An id's root is the one of its longest rows that the most of its rows
    are prefixes of, the first in ``order`` (longest first) among equals.
    So a row as long as the case's trace that is no prefix of it (an
    occluded copy, or another trace under the same id) does not take the
    trace's prefixes from it, whichever comes first.
    """
    n, width = events.shape
    root = np.arange(n)
    if len(set(case_ids)) == n:  # no case id repeats
        return root
    code = np.unique(np.asarray(case_ids), return_inverse=True)[1].ravel()
    longest = np.zeros(code.max() + 1, dtype=lengths.dtype)
    np.maximum.at(longest, code, lengths)
    cand = order[lengths[order] == longest[code[order]]]
    # Pair every candidate root with every row of its id: the id's rows
    # are a run of ``by_id``, from ``start`` on.
    by_id = np.argsort(code, kind="stable")
    size = np.bincount(code)
    per = size[code[cand]]
    start = (np.cumsum(size) - size)[code[cand]]
    pair = np.repeat(np.arange(len(cand)), per)
    rows = by_id[np.arange(per.sum()) + np.repeat(start - np.cumsum(per) + per, per)]
    q = cand[pair]
    # A right-aligned row's column j holds the candidate's column j - shift,
    # counted over the row's own steps only.
    steps = np.arange(width)
    shift = (lengths[q] - lengths[rows])[:, None]
    same = events[q[:, None], np.maximum(steps - shift, 0)] == events[rows]
    same |= steps < width - lengths[rows][:, None]
    prefix = same.all(axis=1)
    # Per id, the candidate with the most prefixes, the first among equals.
    count = np.bincount(pair, weights=prefix, minlength=len(cand))
    best = np.lexsort((np.arange(len(cand)), -count, code[cand]))
    chosen = np.zeros(len(cand), dtype=bool)
    chosen[best[np.r_[True, np.diff(code[cand][best]) != 0]]] = True
    reads = chosen[pair] & prefix
    root[rows[reads]] = q[reads]
    return root


def _inference_runs(model: BiLstmModel, events: np.ndarray, lengths: np.ndarray,
                    ws: Workspace, case_ids):
    """Yield (row indices, :class:`ForwardTrace`) per inference batch of
    the right-aligned rows ``events`` (n, T) of true lengths ``lengths``.
    The traces live in ``ws``, each valid until the next one is drawn.

    Every row reads its forward states from its root's run (see
    :func:`_prefix_roots`: a prefix of a longer row of its case, by the
    rows' ``case_ids`` (n,), reads that row's). The roots run forward in
    longest-first chunks, each cropped to its longest root and holding at
    most ``_INFERENCE_ROWS`` (row, step) cells or one root. Each chunk's
    rows, its roots among them, follow it longest first, in batches capped
    the same way that run the backward direction only. When every row is
    its own root, the chunks are the batches and run both directions."""
    n, width = events.shape
    order = np.argsort(-lengths, kind="stable")
    root = _prefix_roots(events, lengths, order, case_ids)
    own = root[order] == order
    if own.all():  # no row reads another's run
        for part, t_len in _cut(order, lengths):
            yield part, _run_batch(model, events[part, width - t_len:], lengths[part], ws)
        return
    chunks = list(_cut(order[own], lengths))
    chunk_of = np.empty(n, dtype=np.intp)  # per root
    col = np.empty(n, dtype=np.intp)  # per root, its column in the chunk's run
    for k, (chunk, _) in enumerate(chunks):
        chunk_of[chunk] = k
        col[chunk] = np.arange(len(chunk))
    # Per row: its root's column, and the steps its root runs past its end.
    col, lag = col[root], lengths[root] - lengths
    key = chunk_of[root[order]]
    rows = order[np.argsort(key, kind="stable")]
    ends = np.cumsum(np.bincount(key, minlength=len(chunks))).tolist()
    for (chunk, t_root), begin, end in zip(chunks, [0] + ends, ends):
        spans, _ = _alignment(lengths[chunk], t_root)
        run_f = _run_direction(events[chunk, width - t_root:].T, model.forward_params,
                               spans, ws, "fwd", 1.0)
        for part, t_len in _cut(rows[begin:end], lengths):
            yield part, _run_batch(model, events[part, width - t_len:], lengths[part], ws,
                                   fwd=(run_f, (t_root - t_len - lag[part], col[part])))


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
    probs = _predict_probs(model, dataset.events, dataset.true_lengths, ws, dataset.case_ids)
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
    """Read a model written by :func:`save_model`, in format 2 or 1."""
    own = isinstance(source, (str, Path))
    with open(source, "r", encoding="utf-8") if own else nullcontext(source) as f:
        try:
            doc = json.load(f)
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
