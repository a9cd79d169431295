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

import json
import math
import os
from contextlib import contextmanager
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

MODEL_FORMAT_VERSION = 1
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
        if self.hidden_size < 1:
            raise ValueError(f"hidden_size must be >= 1, got {self.hidden_size}")
        if not 0 <= self.dropout_rate < 1:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
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
        """Per-gate views W_i, U_i, b_i, W_f, ... (the model-file keys)."""
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
    """Per-timestep quantities of one direction, time first, in its own
    reading order. Batched runs have a batch axis after the time axis;
    the per-sample traces of :func:`forward` do not. The input at a step
    is the one-hot row of ``events`` (the pad index H reads a zero row),
    times its dropout scale in training. At the steps before a sample's
    first event its rows of ``act``, ``c``, ``h`` and ``tanh_c`` are zero,
    and its ``pre`` rows hold the bias alone."""
    events: np.ndarray  # (T,) int activity indices as read, H for a zero input
    scales: np.ndarray | None  # (T,) input dropout scales, None without dropout
    pre: np.ndarray  # (T, 4D) gate pre-activations, blocks i, f, o, g
    act: np.ndarray  # (T, 4D) gate activations, same blocks
    c: np.ndarray  # (T+1, D), c[0] is the zero initial state
    h: np.ndarray  # (T+1, D)
    tanh_c: np.ndarray  # (T+1, D), tanh(c), kept for BPTT

    def _block(self, arr: np.ndarray, k: int) -> np.ndarray:
        d = self.c.shape[-1]
        return arr[..., k * d:(k + 1) * d]

    @property
    def gate_i(self) -> np.ndarray:
        return self._block(self.act, 0)

    @property
    def gate_f(self) -> np.ndarray:
        return self._block(self.act, 1)

    @property
    def cand(self) -> np.ndarray:
        """The tanh candidate g."""
        return self._block(self.act, 3)

    @property
    def pre_g(self) -> np.ndarray:
        return self._block(self.pre, 3)

    def sample(self, k: int) -> "DirectionTrace":
        """The trace of batch member ``k``."""
        return DirectionTrace(self.events[:, k],
                              None if self.scales is None else self.scales[:, k],
                              self.pre[:, k], self.act[:, k],
                              self.c[:, k], self.h[:, k], self.tanh_c[:, k])


@dataclass
class ForwardTrace:
    fwd: DirectionTrace
    bwd: DirectionTrace
    logits: np.ndarray
    probs: np.ndarray


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


def _init_direction(rng: np.random.Generator, d: int, h: int) -> LstmWeights:
    ws, us = [], []
    for _ in GATES:  # draw order W_i, U_i, W_f, U_f, ... fixes the seeded weights
        ws.append(_glorot(rng, d, h))
        us.append(_glorot(rng, d, d))
    b = np.zeros(4 * d)
    b[d:2 * d] = 1.0  # forget bias 1 helps early gradient flow
    return LstmWeights(np.vstack(ws), np.vstack(us), b)


def init_model(vocab: ActivityVocabulary, max_len: int, config: TrainConfig) -> BiLstmModel:
    """Fresh model with Glorot-uniform weights, seeded by the config."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    d, h = config.hidden_size, vocab.size
    return BiLstmModel(
        forward_params=_init_direction(rng, d, h),
        backward_params=_init_direction(rng, d, h),
        W_out=_glorot(rng, h, 2 * d),
        b_out=np.zeros(h),
        vocab=vocab,
        max_len=max_len,
        hyperparams=asdict(config),
    )


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis``, computed with max subtraction for stability."""
    if not np.isfinite(x).all():
        raise NonFiniteInput("softmax input contains NaN or infinity")
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


# --- batched recurrence core ----------------------------------------------

class Workspace:
    """Grow-only float64 work memory for the batch kernels. A ``train``,
    ``predict_dataset``, ``predict_many`` or ``explain_many`` call runs all
    its batches in one workspace, taken over from the previous call when
    one is idle.

    ``take(key, shape)`` returns a C-contiguous view of that shape into the
    buffer kept under ``key``. A buffer only grows, at least doubling, so a
    loop over batches keeps touching the same pages instead of mapping
    fresh ones for every batch. A view holds garbage until written and
    stays valid only until the next ``take`` of its key; nothing returned
    to a caller may be one.
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


class _NewArrays(Workspace):
    """A workspace that reuses nothing, for single predictions: ``take``
    returns a new array, so a result may keep it."""

    def take(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        return np.empty(shape)


_NEW_ARRAYS = _NewArrays()


# Workspaces between calls: the next call takes one over, so the pages an
# earlier call touched serve it instead of being mapped and faulted in
# afresh. Each running call holds its own, so there are never more idle
# ones than calls ever ran at once.
_idle_workspaces: list[Workspace] = []


@contextmanager
def _borrowed_workspace():
    try:
        ws = _idle_workspaces.pop()
    except IndexError:
        ws = Workspace()
    try:
        yield ws
    finally:
        _idle_workspaces.append(ws)

# A batch is right-aligned and ordered longest first: sample k's events
# fill the last lengths[k] of its T rows, T being the longest length, so
# the samples that have started by a step are the batch's leading rows.
# Both directions see this layout (the backward one with each window
# reversed in place), so one rule serves both: a step runs its started
# rows only. A span (t0, t1, n) is a run of steps t0..t1-1 at which the
# first n samples have started; a batch's spans come oldest first and
# the last one runs every sample.

def _run_direction(events: np.ndarray, scales: np.ndarray | None, p: LstmWeights,
                   spans: list[tuple[int, int, int]], ws: Workspace, key: str) -> DirectionTrace:
    """One direction over time-major activity indices ``events`` (T, B),
    each input scaled by ``scales`` (T, B) when given, its arrays taken
    from ``ws`` under ``key``. Each step runs the started rows its span
    names; the other rows keep zero states and activations."""
    t_len, b = events.shape
    d = p.hidden_size
    s = 3 * d  # sigmoid gates i, f, o come first
    # W x of a one-hot x is a column of W, so the input projection gathers
    # rows of a table holding W.T and a zero row for the pad index. The
    # table sits in front of the pre-activations in one buffer, so the one
    # finiteness check below covers every input weight, read or not.
    h_dim = p.W.shape[1]
    checked = ws.take(key + ".pre", (h_dim + 1 + t_len * b, 4 * d))
    table, pre = checked[:h_dim + 1], checked[h_dim + 1:].reshape(t_len, b, 4 * d)
    table[:h_dim] = p.W.T
    table[h_dim] = 0.0
    act = ws.take(key + ".act", (t_len, b, 4 * d))
    states = ws.take(key + ".states", (3, t_len + 1, b, d))
    states[:, 0] = 0.0
    rec = ws.take("step.rec", (b, 4 * d))
    prod = ws.take("step.prod", (b, d))
    u_t = p.U.T
    # Non-finite values run through and are reported once, below.
    with np.errstate(invalid="ignore", over="ignore"):
        table.take(events, axis=0, out=pre, mode="clip")
        if scales is not None:
            pre *= scales[:, :, None]
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
                sig = a[:, :s]
                np.multiply(z[:, :s], 0.5, out=sig)  # sigm(x) = (1 + tanh(x/2)) / 2
                np.tanh(sig, out=sig)
                sig += 1.0
                sig *= 0.5
                np.tanh(z[:, s:], out=a[:, s:])
                c_next, tanh_c = cs[t + 1], tcs[t + 1]
                np.multiply(a[:, d:2 * d], cs[t], out=c_next)
                c_next += np.multiply(a[:, :d], a[:, s:], out=prod_n)
                np.tanh(c_next, out=tanh_c)
                np.multiply(tanh_c, a[:, 2 * d:s], out=hs[t + 1])
    if not np.isfinite(checked).all():
        raise NonFiniteInput("LSTM input weights or gate pre-activations contain NaN or infinity")
    return DirectionTrace(events, scales, pre, act, *states)


def _direction_backward(run: DirectionTrace, p: LstmWeights,
                        spans: list[tuple[int, int, int]], dh_last: np.ndarray,
                        grads: list[np.ndarray], ws: Workspace) -> None:
    """Accumulate one direction's gradients, summed over the batch, into
    ``grads`` = [dW, dU, db]. Each step runs the rows its span names; the
    gate gradients of those rows are stored packed, step after step."""
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
    events = run.events.reshape(t_len * b)
    scales = None if run.scales is None else run.scales.reshape(t_len * b)
    hs = run.h[:-1].reshape(t_len * b, d)
    if len(dpre) < t_len * b:  # gather the started (step, sample) rows
        counts = np.repeat([n for _, _, n in spans], [t1 - t0 for t0, t1, _ in spans])
        rows = np.flatnonzero(np.arange(b) < counts[:, None])
        events, hs = events[rows], hs[rows]
        scales = None if scales is None else scales[rows]
    # The started rows' inputs as one-hot rows: one dense product sums the
    # gradients of every column of W, which beats scattering them by index.
    h_dim = p.W.shape[1]
    xs = np.eye(h_dim + 1, h_dim).take(events, axis=0)
    if scales is not None:
        xs *= scales[:, None]
    grads[0] += np.matmul(dpre.T, xs, out=ws.take("grad.W", grads[0].shape))
    grads[1] += np.matmul(dpre.T, hs, out=ws.take("grad.U", grads[1].shape))
    grads[2] += dpre.sum(axis=0)


def _zero_grads(model: BiLstmModel) -> list[np.ndarray]:
    return [np.zeros_like(arr) for arr in model.arrays()]


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
               scales: np.ndarray | None = None, ws: Workspace = _NEW_ARRAYS) -> ForwardTrace:
    """Both directions and the output layer over a right-aligned batch of
    activity indices ``events`` (B, T), ordered longest first, inputs
    scaled by ``scales`` (B, T) when given; the traces carry the batch
    axis. Their arrays come from ``ws`` (new ones by default)."""
    b, t_len = events.shape
    spans, rev = _alignment(lengths, t_len)
    reverse = (rev, np.arange(b))  # time-major, each window reversed in place
    scales_t = None if scales is None else scales.T
    run_f = _run_direction(events.T, scales_t, model.forward_params, spans, ws, "fwd")
    run_b = _run_direction(events.T[reverse], None if scales is None else scales_t[reverse],
                           model.backward_params, spans, ws, "bwd")
    hcat = np.concatenate([run_f.h[-1], run_b.h[-1]], axis=1)
    logits = hcat @ model.W_out.T + model.b_out
    return ForwardTrace(run_f, run_b, logits, softmax(logits, axis=-1))


def _batch_backward(model: BiLstmModel, events: np.ndarray, lengths: np.ndarray,
                    scales: np.ndarray | None, labels: np.ndarray, grads: list[np.ndarray],
                    ws: Workspace = _NEW_ARRAYS) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate summed gradients of per-sample cross-entropy into
    ``grads`` (laid out like ``model.arrays()``) over a right-aligned
    batch in any order, as :func:`_run_batch` takes it; it runs longest
    first.

    Returns (per-sample losses, predicted indices) in input order.
    """
    order = np.argsort(-lengths, kind="stable")
    events, lengths, labels = events[order], lengths[order], labels[order]
    scales = None if scales is None else scales[order]
    run = _run_batch(model, events, lengths, scales, ws)
    spans, _ = _alignment(lengths, events.shape[1])
    b = events.shape[0]
    d = model.hidden_size
    dlogits = run.probs.copy()
    dlogits[np.arange(b), labels] -= 1.0
    hcat = np.concatenate([run.fwd.h[-1], run.bwd.h[-1]], axis=1)
    grads[6] += dlogits.T @ hcat
    grads[7] += dlogits.sum(axis=0)
    dhcat = dlogits @ model.W_out
    _direction_backward(run.fwd, model.forward_params, spans, dhcat[:, :d], grads[0:3], ws)
    _direction_backward(run.bwd, model.backward_params, spans, dhcat[:, d:], grads[3:6], ws)
    losses = np.empty(b)
    preds = np.empty(b, dtype=np.intp)
    losses[order] = -np.log(np.maximum(run.probs[np.arange(b), labels], LOSS_CLIP))
    preds[order] = np.argmax(run.probs, axis=1)
    return losses, preds


def predict_dataset(model: BiLstmModel, dataset: PrefixDataset) -> np.ndarray:
    """Class distributions (n, H) of every sample of a dataset, in order.

    Samples run longest first, in batches cropped to their longest sample
    and capped at ``_INFERENCE_ROWS`` (sample, step) rows.
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
    if not samples:
        return np.empty((0, model.n_classes))
    events, lengths = _stack_events(model, samples)
    with _borrowed_workspace() as ws:
        return _predict_probs(model, events, lengths, ws)


def _predict_probs(model: BiLstmModel, events: np.ndarray, lengths: np.ndarray,
                   ws: Workspace) -> np.ndarray:
    """Class distributions of the right-aligned rows ``events`` (n, T) of
    true lengths ``lengths``, in row order, every batch's arrays taken
    from ``ws``."""
    probs = np.empty((len(lengths), model.n_classes))
    width = events.shape[1]
    for part in _inference_chunks(lengths):
        t_len = int(lengths[part[0]])
        probs[part] = _run_batch(model, events[part, width - t_len:], lengths[part],
                                 None, ws).probs
    return probs


def _inference_chunks(lengths: np.ndarray):
    """Yield index arrays over ``lengths``, longest first, each a batch of
    at most ``_INFERENCE_ROWS`` (sample, step) rows, or one sample."""
    order = np.argsort(-lengths, kind="stable")
    start = 0
    while start < len(order):
        part = order[start:start + max(1, _INFERENCE_ROWS // int(lengths[order[start]]))]
        yield part
        start += len(part)


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
    lengths = np.asarray([sample.true_length for sample in samples])
    t_len = int(lengths.max())
    events = np.full((len(samples), t_len), h, dtype=np.int32)
    for row, sample, n in zip(events, samples, lengths):
        row[t_len - n:] = sample.events[sample.max_len - n:]
    return events, lengths


def forward(model: BiLstmModel, sample: PrefixSample) -> ForwardTrace:
    """Run the network over one sample, recording every intermediate value.

    Only the true-length suffix enters the recurrence; padding is never
    touched.
    """
    run = _run_batch(model, *_stack_events(model, [sample]))
    return ForwardTrace(fwd=run.fwd.sample(0), bwd=run.bwd.sample(0),
                        logits=run.logits[0], probs=run.probs[0])


def predict(model: BiLstmModel, sample: PrefixSample) -> tuple[int, np.ndarray]:
    """Most likely next activity index and the full class distribution.

    Ties break toward the lowest index.
    """
    probs = _run_batch(model, *_stack_events(model, [sample])).probs[0]
    return int(np.argmax(probs)), probs


def backward(model: BiLstmModel, sample: PrefixSample, label_index: int) -> dict:
    """Analytic gradients of this sample's cross-entropy loss, keyed like
    ``model.param_items()``."""
    if not 0 <= label_index < model.n_classes:
        raise ShapeMismatch(f"label index {label_index} out of range")
    events, lengths = _stack_events(model, [sample])
    grads = _zero_grads(model)
    _batch_backward(model, events, lengths, None, np.asarray([label_index]), grads)
    return dict(_named(grads))


# --- Nadam optimizer --------------------------------------------------------

class Nadam:
    """Adam with Nesterov momentum at the usual framework defaults
    (incl. the 0.96-based momentum schedule)."""

    beta1 = 0.9
    beta2 = 0.999
    epsilon = 1e-7

    def __init__(self, params: list[np.ndarray], learning_rate: float):
        self.params = params
        self.lr = learning_rate
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self._work = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self.t = 0
        self.mu_product = 1.0

    def step(self, grads: list[np.ndarray]) -> None:
        """One update, computed in place in the order of
        m_hat = mu' m / (1 - prod mu') + (1 - mu) g / (1 - prod mu),
        p -= lr m_hat / (sqrt(v / (1 - beta2^t)) + epsilon)."""
        self.t += 1
        mu_t = self.beta1 * (1.0 - 0.5 * 0.96 ** self.t)
        mu_next = self.beta1 * (1.0 - 0.5 * 0.96 ** (self.t + 1))
        self.mu_product *= mu_t
        mu_product_next = self.mu_product * mu_next
        for p, g, m, v, (a, b) in zip(self.params, grads, self.m, self.v, self._work):
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
    """Inverted input dropout scales (B, T) of a right-aligned batch.

    A mask is drawn for every unit of every true input row, in one call,
    sample after sample in time order: the same values from the stream as
    one ``(length, H)`` draw per sample in turn. A one-hot row keeps only
    its active unit, so an event's scale is its mask at that unit; steps
    before a sample's first event get scale 0.
    """
    t_len = events.shape[1]
    started = np.arange(t_len) >= (t_len - lengths)[:, None]
    masks = (rng.random((int(lengths.sum()), n_classes)) < keep) / keep
    scales = np.zeros(events.shape)
    scales[started] = masks[np.arange(len(masks)), events[started]]
    return scales


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

    Per-event inverted-dropout scales are drawn fresh every epoch. After
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
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    shuffle_rng = np.random.default_rng(seeds[1])
    dropout_rng = np.random.default_rng(seeds[2])
    params = model.arrays()
    optimizer = Nadam(params, config.learning_rate)
    keep = 1.0 - config.dropout_rate
    grads = _zero_grads(model)

    history: list[EpochStats] = []
    best_loss = math.inf
    best_snapshot = [np.empty_like(arr) for arr in params]
    best_epoch = 0
    epochs_since_best = 0
    n = len(dataset)

    with _borrowed_workspace() as ws:
        for epoch in range(1, config.max_epochs + 1):
            order = shuffle_rng.permutation(n)
            epoch_loss = 0.0
            epoch_correct = 0
            for start in range(0, n, config.batch_size):
                batch = order[start:start + config.batch_size]
                lengths = dataset.true_lengths[batch]
                labels = dataset.label_indices[batch]
                events = dataset.events[batch, dataset.M - int(lengths.max()):]
                scales = None if config.dropout_rate == 0.0 else \
                    _drop_inputs(events, lengths, model.n_classes, dropout_rng, keep)
                for g in grads:
                    g.fill(0.0)
                losses, preds = _batch_backward(model, events, lengths, scales, labels,
                                                grads, ws)
                epoch_loss += float(losses.sum())
                epoch_correct += int((preds == labels).sum())
                scale = 1.0 / len(batch)
                for g in grads:
                    g *= scale
                optimizer.step(grads)

            train_loss = epoch_loss / n
            val_loss, val_acc = _dataset_loss(model, val_dataset, ws)
            if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
                raise NonFiniteLoss(epoch)
            history.append(EpochStats(epoch, train_loss, epoch_correct / n,
                                      val_loss, val_acc))

            if val_loss < best_loss:
                best_loss = val_loss
                best_epoch = epoch
                for best, arr in zip(best_snapshot, params):
                    np.copyto(best, arr)
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                if epochs_since_best >= config.patience:
                    break

    for arr, best in zip(params, best_snapshot):
        np.copyto(arr, best)
    model.trained_epochs = len(history)
    model.hyperparams = dict(model.hyperparams, best_epoch=best_epoch)
    return model, history


# --- serialization ----------------------------------------------------------

def _write_json(doc: dict, f: IO) -> None:
    json.dump(doc, f)
    f.write("\n")


def save_model(model: BiLstmModel, sink: Union[str, Path, IO]) -> None:
    """Write the model as versioned JSON; floats round-trip exactly.

    A path is written through a temporary file in the same directory and
    renamed over the target, so a failed write leaves any old file intact.
    """
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "hidden_size": model.hidden_size,
        "vocab": list(model.vocab.labels),
        "max_len": model.max_len,
        "hyperparams": dict(model.hyperparams, trained_epochs=model.trained_epochs),
        "forward": {name: arr.tolist() for name, arr in model.forward_params.items()},
        "backward": {name: arr.tolist() for name, arr in model.backward_params.items()},
        "W_out": model.W_out.tolist(),
        "b_out": model.b_out.tolist(),
    }
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


def _direction_from_json(doc: dict, d: int, h: int) -> LstmWeights:
    blocks = {"W": [], "U": [], "b": []}
    for gate in GATES:
        for kind, shape in (("W", (d, h)), ("U", (d, d)), ("b", (d,))):
            name = f"{kind}_{gate}"
            arr = np.asarray(doc[name], dtype=np.float64)
            if arr.shape != shape:
                raise CorruptModel(f"{name} has shape {arr.shape}, expected {shape}")
            blocks[kind].append(arr)
    return LstmWeights(np.vstack(blocks["W"]), np.vstack(blocks["U"]),
                       np.concatenate(blocks["b"]))


def load_model(source: Union[str, Path, IO]) -> BiLstmModel:
    """Read a model written by :func:`save_model`."""
    own = isinstance(source, (str, Path))
    f = open(source, "r", encoding="utf-8") if own else source
    try:
        doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptModel(f"model file is not valid JSON: {exc}") from None
    finally:
        if own:
            f.close()
    if not isinstance(doc, dict):
        raise CorruptModel("model file does not hold a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise VersionMismatch(f"model format {version!r}, expected {MODEL_FORMAT_VERSION}")
    try:
        d = int(doc["hidden_size"])
        vocab = ActivityVocabulary(tuple(doc["vocab"]))
        h = vocab.size
        hyper = dict(doc["hyperparams"])
        trained = int(hyper.pop("trained_epochs", 0))
        model = BiLstmModel(
            forward_params=_direction_from_json(doc["forward"], d, h),
            backward_params=_direction_from_json(doc["backward"], d, h),
            W_out=np.asarray(doc["W_out"], dtype=np.float64),
            b_out=np.asarray(doc["b_out"], dtype=np.float64),
            vocab=vocab,
            max_len=int(doc["max_len"]),
            hyperparams=hyper,
            trained_epochs=trained,
        )
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
