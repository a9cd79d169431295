"""Independent naive oracles used by the unit and acceptance tests.

The forward oracle is deliberately written in scalar Python (lists,
math.*) so that it shares no code path with the package's vectorized
kernels. The masked batch oracle is the batch kernel before packing:
every step runs every row of a right-aligned batch in any order, and a
0/1 ``hold`` mask keeps the cell state of samples that have not started
at zero; under input dropout it reads each event's one-hot row times the
event's own scale from :func:`dropout_scales`. The LRP oracle is the
per-sample relevance walk: one prefix at a time, one dense message
matrix per linear layer, no batch axis. The
dataset oracle is the dense assembly: every prefix listed by
:func:`generate_prefixes`, padded to its own (M, H) one-hot block, then
stacked. The prediction oracle is the
per-case loop: one single-sample ``predict`` call per running trace. The
batch and LRP oracles take dense one-hot inputs; :func:`one_hot`
densifies the package's activity indices for them. The model-file oracle
is the format 1 writer: every gate block as nested decimal lists. The
synthesis oracle is the Markov walk that draws each transition with
``rng.choice``; the timestamp oracles are the ``replace``/``astimezone``
round trips that turned a parsed timestamp into UTC and back to text.
The gate step oracle is the five-call step on strided gate blocks that
the packed kernel ran before it computed whole rows. The gate array walk
oracle is the batched relevance walk before it applied the product rule
in place: it builds, copies and sums the zero gate arrays. The display
oracle :func:`rescale_for_display` rescales one trace at a time, with
boolean masks. The unshared-layout oracles :func:`unshared_inference_runs`,
:func:`unshared_predict_many` and :func:`unshared_explain_many` run every
inference batch as training runs its batches: both directions over every
row, each row on its own cells, no step shared. The padded kernel oracle
:func:`padded_run_direction` is the direction kernel before it worked
on started cells only: it gathers, biases, zero-fills and checks every
(step, row) cell of a batch, padding included. The distinct-rows oracle
:func:`distinct_rows_axis0` finds repeated rows with ``np.unique(axis=0)``,
as ``bilstm._distinct_rows`` did before it compared rows as bytes.
"""
import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from xnap import bilstm, lrp
from xnap.bilstm import LOSS_CLIP, Workspace, forward, predict, softmax
from xnap.encoding import PrefixSample, augment_with_end
from xnap.errors import (InvalidSpec, NonFiniteInput, PrefixTooLong, ShapeMismatch,
                         TraceTooShort)
from xnap.eventlog import Event, EventLog, Trace
from xnap.lrp import LrpConfig, RelevanceTrace


def one_hot(events, size):
    """Rows of a ``size``-class one-hot code for an index array; the pad
    index ``size`` maps to a zero row. Adds a trailing axis of ``size``."""
    return np.eye(size + 1, size)[events]


def cross_entropy(p, y_index: int) -> float:
    """Negative log probability of the true class, clipped at LOSS_CLIP.

    ``p`` must be a probability vector (sums to one within 1e-9).
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ShapeMismatch(f"cross_entropy expects a vector, got shape {p.shape}")
    if not 0 <= y_index < p.shape[0]:
        raise ShapeMismatch(f"class index {y_index} out of range for {p.shape[0]} classes")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
    return float(-np.log(max(float(p[y_index]), LOSS_CLIP)))


def _sig(v: float) -> float:
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def _lstm_direction(rows, w, u, b, d):
    """Scalar-loop LSTM over ``rows``; returns the final hidden state.

    ``w``/``u``/``b`` map gate name -> nested lists. Gate order i, f, o, g.
    """
    h = [0.0] * d
    c = [0.0] * d
    for x in rows:
        pre = {}
        for gate in ("i", "f", "o", "g"):
            pre[gate] = []
            for k in range(d):
                acc = b[gate][k]
                for j in range(len(x)):
                    acc += w[gate][k][j] * x[j]
                for j in range(d):
                    acc += u[gate][k][j] * h[j]
                pre[gate].append(acc)
        new_c = []
        new_h = []
        for k in range(d):
            i_k = _sig(pre["i"][k])
            f_k = _sig(pre["f"][k])
            o_k = _sig(pre["o"][k])
            g_k = math.tanh(pre["g"][k])
            ck = f_k * c[k] + i_k * g_k
            new_c.append(ck)
            new_h.append(o_k * math.tanh(ck))
        c, h = new_c, new_h
    return h


def _direction_dicts(params):
    named = dict(params.items())
    w = {g: named[f"W_{g}"].tolist() for g in ("i", "f", "o", "g")}
    u = {g: named[f"U_{g}"].tolist() for g in ("i", "f", "o", "g")}
    b = {g: named[f"b_{g}"].tolist() for g in ("i", "f", "o", "g")}
    return w, u, b


def naive_bilstm_probs(model, rows):
    """Forward pass of the full model over unpadded input rows.

    Returns (logits, probs) as plain Python lists.
    """
    d = model.hidden_size
    w_f, u_f, b_f = _direction_dicts(model.forward_params)
    w_b, u_b, b_b = _direction_dicts(model.backward_params)
    h_fwd = _lstm_direction(rows, w_f, u_f, b_f, d)
    h_bwd = _lstm_direction(list(reversed(rows)), w_b, u_b, b_b, d)
    h_cat = h_fwd + h_bwd
    w_out = model.W_out.tolist()
    b_out = model.b_out.tolist()
    logits = []
    for cls in range(len(b_out)):
        acc = b_out[cls]
        for j in range(2 * d):
            acc += w_out[cls][j] * h_cat[j]
        logits.append(acc)
    top = max(logits)
    exps = [math.exp(v - top) for v in logits]
    total = sum(exps)
    return logits, [e / total for e in exps]


# --- masked batch kernel ---------------------------------------------------

@dataclass
class MaskedTrace:
    """One direction's arrays, time first, batch second."""
    inputs: np.ndarray  # (T, B, H) as consumed
    pre: np.ndarray  # (T, B, 4D) gate pre-activations, blocks i, f, o, g
    act: np.ndarray  # (T, B, 4D) gate activations, same blocks
    c: np.ndarray  # (T+1, B, D), c[0] is the zero initial state
    h: np.ndarray  # (T+1, B, D)
    hold: np.ndarray  # (S, B, 1): 0 before a sample's first event, for the first S steps


@dataclass
class MaskedRun:
    fwd: MaskedTrace
    bwd: MaskedTrace
    logits: np.ndarray
    probs: np.ndarray


def strided_gate_step(z, a, d):
    """Gate activations ``a`` of pre-activations ``z`` (n, 4D), computed
    on the sigmoid block i, f, o and the tanh block g apart."""
    s = 3 * d
    sig = a[:, :s]
    np.multiply(z[:, :s], 0.5, out=sig)  # sigm(x) = (1 + tanh(x/2)) / 2
    np.tanh(sig, out=sig)
    sig += 1.0
    sig *= 0.5
    np.tanh(z[:, s:], out=a[:, s:])


def masked_run_direction(xs, p, hold, ws, key):
    """One direction over time-major inputs ``xs`` (T, B, H).

    ``hold`` (S, B, 1) zeroes the cell state of samples that have not
    started during the first S steps; from step S on, every sample runs.
    """
    t_len, b, h_dim = xs.shape
    d = p.hidden_size
    s = 3 * d  # sigmoid gates i, f, o come first
    pre, act = ws.take(key + ".gates", (2, t_len, b, 4 * d))
    c, h = ws.take(key + ".states", (2, t_len + 1, b, d))
    c[0] = h[0] = 0.0
    rec = ws.take("step.rec", (b, 4 * d))
    prod = ws.take("step.prod", (b, d))
    u_t = p.U.T
    # Non-finite values run through and are reported once, below.
    with np.errstate(invalid="ignore", over="ignore"):
        np.matmul(xs.reshape(t_len * b, h_dim), p.W.T, out=pre.reshape(t_len * b, 4 * d))
        pre += p.b
        for t in range(t_len):
            z, a = pre[t], act[t]
            z += np.matmul(h[t], u_t, out=rec)
            strided_gate_step(z, a, d)
            np.multiply(a[:, d:2 * d], c[t], out=c[t + 1])
            c[t + 1] += np.multiply(a[:, :d], a[:, s:], out=prod)
            if t < len(hold):
                c[t + 1] *= hold[t]
            np.tanh(c[t + 1], out=h[t + 1])
            h[t + 1] *= a[:, 2 * d:s]
    if not np.isfinite(pre).all():
        raise NonFiniteInput("LSTM gate pre-activations contain NaN or infinity")
    return MaskedTrace(xs, pre, act, c, h, hold)


def masked_direction_backward(run, p, dh_last, grads, ws):
    """Accumulate one direction's gradients, summed over the batch, into
    ``grads`` = [dW, dU, db]."""
    t_len, b, h_dim = run.inputs.shape
    d = p.hidden_size
    s = 3 * d
    dpre = ws.take("dpre", run.act.shape)
    dh = dh_last
    dc = np.zeros((b, d))
    for t in reversed(range(t_len)):
        a = run.act[t]
        i_t, f_t, o_t, g_t = a[:, :d], a[:, d:2 * d], a[:, 2 * d:s], a[:, s:]
        tanh_c = np.tanh(run.c[t + 1])
        dc = dc + dh * o_t * (1.0 - tanh_c ** 2)
        if t < len(run.hold):
            dc *= run.hold[t]
        dz = dpre[t]
        dz[:, :d] = dc * g_t * i_t * (1.0 - i_t)
        dz[:, d:2 * d] = dc * run.c[t] * f_t * (1.0 - f_t)
        dz[:, 2 * d:s] = dh * tanh_c * o_t * (1.0 - o_t)
        dz[:, s:] = dc * i_t * (1.0 - g_t ** 2)
        dh = dz @ p.U
        dc = dc * f_t
    rows = t_len * b
    dz = dpre.reshape(rows, 4 * d)
    grads[0] += np.matmul(dz.T, run.inputs.reshape(rows, h_dim),
                          out=ws.take("grad.W", grads[0].shape))
    grads[1] += np.matmul(dz.T, run.h[:-1].reshape(rows, d),
                          out=ws.take("grad.U", grads[1].shape))
    grads[2] += dz.sum(axis=0)


def masked_alignment(lengths, t_len):
    """Masks of a right-aligned batch of ``t_len`` steps, both (T, B):
    ``started`` from each sample's first step on, and ``rev``, the
    backward reading order."""
    start = t_len - lengths  # first step of each sample
    steps = np.arange(t_len)[:, None]
    started = steps >= start
    rev = np.where(started, t_len - 1 + start - steps, steps)
    return started, rev


def masked_run_batch(model, xs, lengths, ws=None):
    """Both directions and the output layer over a right-aligned batch
    ``xs`` (B, T, H) whose samples may come in any order, its arrays taken
    from ``ws`` (a new workspace by default)."""
    ws = Workspace() if ws is None else ws
    b, t_len, _ = xs.shape
    started, rev = masked_alignment(lengths, t_len)
    hold = started[:t_len - lengths.min(), :, None].astype(np.float64)
    xs_t = xs.transpose(1, 0, 2)
    run_f = masked_run_direction(np.ascontiguousarray(xs_t), model.forward_params,
                                 hold, ws, "fwd")
    run_b = masked_run_direction(xs_t[rev, np.arange(b)], model.backward_params,
                                 hold, ws, "bwd")
    hcat = np.concatenate([run_f.h[-1], run_b.h[-1]], axis=1)
    logits = hcat @ model.W_out.T + model.b_out
    return MaskedRun(run_f, run_b, logits, softmax(logits, axis=-1))


def masked_batch_backward(model, xs, lengths, labels, grads):
    """Accumulate summed gradients of per-sample cross-entropy into
    ``grads`` (laid out like ``model.arrays()``); returns (per-sample
    losses, predicted indices)."""
    ws = Workspace()
    run = masked_run_batch(model, xs, lengths, ws)
    b = xs.shape[0]
    d = model.hidden_size
    dlogits = run.probs.copy()
    dlogits[np.arange(b), labels] -= 1.0
    hcat = np.concatenate([run.fwd.h[-1], run.bwd.h[-1]], axis=1)
    grads[6] += dlogits.T @ hcat
    grads[7] += dlogits.sum(axis=0)
    dhcat = dlogits @ model.W_out
    masked_direction_backward(run.fwd, model.forward_params, dhcat[:, :d], grads[0:3], ws)
    masked_direction_backward(run.bwd, model.backward_params, dhcat[:, d:], grads[3:6], ws)
    losses = -np.log(np.maximum(run.probs[np.arange(b), labels], LOSS_CLIP))
    return losses, np.argmax(run.probs, axis=1)


def padded_run_direction(events, p, spans, ws, key, scale, src=None):
    """``bilstm._run_direction`` as it was before it worked on started
    cells only: it gathers the input rows and adds the bias over every
    (step, row) cell, padding included, zero-fills the activations and
    states of every row before it starts, and checks the table and all
    pre-activations in one call after the last span. A row with a parent
    (``src[k] > 0``) copies the parent's states, one row at a time, as it
    starts."""
    t_len, b = events.shape
    d = p.hidden_size
    s = 3 * d
    h_dim = p.W.shape[1]
    checked = ws.take(key + ".pre", (h_dim + 1 + t_len * b, 4 * d))
    table, pre = checked[:h_dim + 1], checked[h_dim + 1:].reshape(t_len, b, 4 * d)
    table[:h_dim] = p.W.T
    if scale != 1.0:
        table[:h_dim] *= scale
    table[h_dim] = 0.0
    act = ws.take(key + ".act", (t_len, b, 4 * d))
    states = ws.take(key + ".states", (3, t_len + 1, b, d))
    states[:, 0] = 0.0
    rec = ws.take("step.rec", (b, 4 * d))
    prod = ws.take("step.prod", (b, d))
    u_t = p.U.T
    gate_scale, gate_shift = bilstm._gate_rows(d)
    with np.errstate(invalid="ignore", over="ignore"):
        table.take(events, axis=0, out=pre, mode="clip")
        pre += p.b
        started = 0
        for t0, t1, n in spans:
            if n < b:
                states[:, t0 + 1:t1 + 1, n:] = 0.0
                act[t0:t1, n:] = 0.0
            for k in range(started, n if src is not None else 0):
                if src[k] > 0:
                    row, col = divmod(int(src[k]), b)
                    states[:, t0, k] = states[:, row, col]
            started = n
            zs, acts = pre[t0:t1, :n], act[t0:t1, :n]
            cs, hs, tcs = states[:, t0:t1 + 1, :n]
            rec_n, prod_n = rec[:n], prod[:n]
            for t in range(t1 - t0):
                z, a = zs[t], acts[t]
                z += np.matmul(hs[t], u_t, out=rec_n)
                bilstm._gate_step(z, a, gate_scale, gate_shift)
                c_next, tanh_c = cs[t + 1], tcs[t + 1]
                np.multiply(a[:, d:2 * d], cs[t], out=c_next)
                c_next += np.multiply(a[:, :d], a[:, s:], out=prod_n)
                np.tanh(c_next, out=tanh_c)
                np.multiply(tanh_c, a[:, 2 * d:s], out=hs[t + 1])
    if not np.isfinite(checked).all():
        raise NonFiniteInput("LSTM input weights or gate pre-activations contain NaN or infinity")
    return bilstm.DirectionTrace(events, pre, act, *states)


def dropout_scales(events, lengths, n_classes, rng, keep):
    """Inverted input dropout scales (B, T) of a right-aligned batch, one
    per event, for the masked oracle's dense inputs ``one_hot(events) *
    scales[..., None]``.

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


# --- dense dataset ----------------------------------------------------------

def generate_prefixes(index_seq: list[int]) -> list[tuple[list[int], int]]:
    """All proper prefixes with their next-activity label.

    A sequence of length n yields n-1 pairs; length-1 sequences yield none.
    """
    return [(index_seq[:k], index_seq[k]) for k in range(1, len(index_seq))]


def dataset_sample(ds, i):
    """Row ``i`` of a :class:`PrefixDataset` as a labeled sample."""
    return PrefixSample(ds.events[i], int(ds.true_lengths[i]), int(ds.label_indices[i]),
                        ds.case_ids[i], ds.vocab.size)


def pad_one_hot(prefix, m, h, case_id):
    if len(prefix) > m:
        raise PrefixTooLong(
            f"prefix of length {len(prefix)} in case {case_id!r} exceeds padding length {m}")
    x = np.zeros((m, h), dtype=np.float64)
    offset = m - len(prefix)
    for t, idx in enumerate(prefix):
        x[offset + t, idx] = 1.0
    return x


def dense_dataset(log, vocab, m):
    """Every prefix of the log as a stacked one-hot tensor X (n, M, H),
    with one-hot labels Y (n, H), lengths, label indices and case ids."""
    xs, labels, lengths, cases = [], [], [], []
    for trace in log:
        if len(trace) < 2:
            continue
        seq = augment_with_end(trace, vocab)
        for prefix, label in generate_prefixes(seq):
            xs.append(pad_one_hot(prefix, m, vocab.size, trace.case_id))
            labels.append(label)
            lengths.append(len(prefix))
            cases.append(trace.case_id)
    n = len(xs)
    x_tensor = np.stack(xs) if n else np.zeros((0, m, vocab.size))
    label_arr = np.asarray(labels, dtype=np.int64)
    y = np.zeros((n, vocab.size), dtype=np.float64)
    if n:
        y[np.arange(n), label_arr] = 1.0
    return x_tensor, y, np.asarray(lengths, dtype=np.int64), label_arr, tuple(cases)


# --- per-sample LRP ---------------------------------------------------------

def _sign(z):
    return np.where(z >= 0.0, 1.0, -1.0)


def _lrp_linear(z_lower, w, b, z_upper, r_upper, epsilon, delta):
    """Epsilon rule with every message (upper j -> lower i) materialised:
    z_i * (w_ji * s_j) + share_j * s_j, with the scale s_j = R_j / denom_j."""
    sign = _sign(z_upper)
    scale = r_upper / (z_upper + epsilon * sign)
    share = (epsilon * sign + delta * b) / z_lower.shape[0]
    messages = z_lower[None, :] * (w * scale[:, None]) + (share * scale)[:, None]
    return messages.sum(axis=0)


def _bias_absorption(b, z_upper, r_upper, epsilon, delta):
    denom = z_upper + epsilon * _sign(z_upper)
    return float((((1.0 - delta) * b) / denom * r_upper).sum())


def rescale_for_display(raw):
    """Map signed relevances to [0, 1] for heatmaps, per trace.

    Positives map affinely onto (0.5, 1.0] against the trace's largest
    positive value, negatives onto [0.0, 0.5) against the largest
    magnitude negative; zero is exactly 0.5.
    """
    raw = np.asarray(raw, dtype=np.float64)
    out = np.full(raw.shape, 0.5)
    pos = raw > 0
    neg = raw < 0
    if pos.any():
        out[pos] = 0.5 + 0.5 * raw[pos] / raw[pos].max()
    if neg.any():
        out[neg] = 0.5 + 0.5 * raw[neg] / (-raw[neg]).max()
    return out


def _lrp_multiplicative(r_product):
    return np.zeros_like(r_product), r_product.copy()


def stabilise_two_pass(z_upper, epsilon, stab=None, denom=None):
    """``lrp._stabilise`` as two masked writes: -epsilon everywhere, then
    +epsilon where z >= 0 (which holds for -0.0)."""
    stab = np.empty(z_upper.shape) if stab is None else stab
    np.copyto(stab, -epsilon)
    np.copyto(stab, epsilon, where=z_upper >= 0.0)
    return stab, np.add(z_upper, stab, out=denom)


def _split_sum2(s1, s2, z_upper, r_upper, epsilon, delta):
    sign = _sign(z_upper)
    denom = z_upper + epsilon * sign
    share = epsilon * sign / 2.0
    scale = r_upper / denom
    return (s1 + share) * scale, (s2 + share) * scale


def _propagate_direction(trace, params, r_h_final, config):
    """Walk batch member 0 of the direction trace ``trace``."""
    events, act, pre, c, h = (arr[:, 0] for arr in (trace.events, trace.act, trace.pre,
                                                    trace.c, trace.h))
    inputs = one_hot(events, params.W.shape[1])
    t_len, h_dim = inputs.shape
    d = r_h_final.shape[0]
    g = params.rows("g")
    w_cat = np.hstack([params.W[g], params.U[g]])  # lower = [x_t ; h_{t-1}]
    b_g = params.b[g]
    gate_i, gate_f = act[:, params.rows("i")], act[:, params.rows("f")]
    cand, pre_g = act[:, g], pre[:, g]
    rx = np.zeros((t_len, h_dim))
    r_h = r_h_final
    r_c = np.zeros(d)
    absorbed = 0.0
    gate_total = 0.0
    for t in reversed(range(t_len)):
        r_gate_o, r_tanh_c = _lrp_multiplicative(r_h)
        gate_total += float(np.abs(r_gate_o).sum())
        r_c = r_c + r_tanh_c
        r_forget_term, r_input_term = _split_sum2(
            gate_f[t] * c[t], gate_i[t] * cand[t],
            c[t + 1], r_c, config.epsilon, config.delta)
        r_gate_f, r_c_prev = _lrp_multiplicative(r_forget_term)
        r_gate_i, r_cand = _lrp_multiplicative(r_input_term)
        gate_total += float(np.abs(r_gate_f).sum() + np.abs(r_gate_i).sum())
        z_low = np.concatenate([inputs[t], h[t]])
        r_low = _lrp_linear(z_low, w_cat, b_g, pre_g[t], r_cand,
                            config.epsilon, config.delta)
        absorbed += _bias_absorption(b_g, pre_g[t], r_cand,
                                     config.epsilon, config.delta)
        rx[t] = r_low[:h_dim]
        r_h = r_low[h_dim:]
        r_c = r_c_prev
    leftover = float(r_h.sum() + r_c.sum())
    return rx, leftover, absorbed, gate_total


def propagate_direction_gate_arrays(cells, params, r_h_final, events, spans, config, ws):
    """``lrp._propagate_direction`` as it applied the product rule
    literally: at every step, each of the three products hands its gate a
    zero array from :func:`_lrp_multiplicative` and its source a copy,
    and the gates' magnitudes are summed into a (3, B, D) total."""
    t_len, b = events.shape
    d = r_h_final.shape[1]
    h_dim = params.W.shape[1]
    g = params.rows("g")
    u_g = params.U[g]
    scales = ws.take("lrp.scales", (t_len, b, d))
    shares = ws.take("lrp.shares", (t_len, b))
    r_gates = ws.take("lrp.r_gates", (3, b, d))  # o, f, i at the current step
    gate_total = np.zeros((3, b, d))
    r_h = r_h_final.copy()
    r_c = np.zeros_like(r_h)
    for (t0, t1, n), span in zip(reversed(spans), reversed(cells)):
        if n < b:
            scales[t0:t1, n:] = 0.0
            shares[t0:t1, n:] = 0.0
        rg, gates = r_gates[:, :n], gate_total[:, :n]
        rh, rc = r_h[:n], r_c[:n]
        steps = zip(scales[t0:t1, :n], shares[t0:t1, :n], span[:2].swapaxes(0, 1), *span[2:])
        for scale_g, share, summands, denom_c, h_prev, share_g, denom_g in reversed(list(steps)):
            rg[0], r_tanh_c = _lrp_multiplicative(rh)
            scale = (rc + r_tanh_c) / denom_c
            rg[1:], (rc, r_cand) = _lrp_multiplicative(summands * scale)
            gates += np.abs(rg, out=rg)
            np.divide(r_cand, denom_g, out=scale_g)
            np.multiply(share_g, scale_g).sum(axis=1, out=share)
            rh = h_prev * (scale_g @ u_g) + share[:, None]
        r_h[:n], r_c[:n] = rh, rc
    leftover = r_h.sum(axis=1) + r_c.sum(axis=1)
    w_in = ws.take("lrp.w_in", (h_dim + 1, d))
    w_in[:h_dim] = params.W[g].T
    w_in[h_dim] = 0.0
    active = w_in.take(events, axis=0, out=ws.take("lrp.active", (t_len, b, d)), mode="clip")
    active *= scales
    rx = active.sum(axis=2) + h_dim * shares
    absorbed = (scales @ ((1.0 - config.delta) * params.b[g]))[::-1].sum(axis=0)
    return rx, leftover, absorbed, gate_total.sum(axis=(0, 2))


def explain_per_sample(model, sample, config=LrpConfig()):
    """Relevance of one prediction, walked step by step through one sample."""
    if sample.true_length < 2:
        raise TraceTooShort(f"true_length {sample.true_length}; need >= 2")
    trace = forward(model, sample)  # a batch of one: its member 0
    logits, probs = trace.logits[0], trace.probs[0]
    target = int(np.argmax(probs)) if config.target is None else config.target
    r_init = float(logits[target])
    r_out = np.zeros(model.n_classes)
    r_out[target] = r_init

    d = model.hidden_size
    h_cat = np.concatenate([trace.fwd.h[-1, 0], trace.bwd.h[-1, 0]])
    r_hcat = _lrp_linear(h_cat, model.W_out, model.b_out, logits, r_out,
                         config.epsilon, config.delta)
    absorbed = _bias_absorption(model.b_out, logits, r_out,
                                config.epsilon, config.delta)

    rx_f, left_f, abs_f, gates_f = _propagate_direction(
        trace.fwd, model.forward_params, r_hcat[:d], config)
    rx_b, left_b, abs_b, gates_b = _propagate_direction(
        trace.bwd, model.backward_params, r_hcat[d:], config)

    # The backward direction read the events newest-first.
    raw = rx_f.sum(axis=1) + rx_b.sum(axis=1)[::-1]
    return RelevanceTrace(
        raw=raw,
        display=rescale_for_display(raw),
        target_class=target,
        model_output=r_init,
        target_prob=float(probs[target]),
        initial_state_relevance=left_f + left_b,
        bias_absorbed=absorbed + abs_f + abs_b,
        gate_relevance=gates_f + gates_b,
        case_id=sample.case_id,
    )


def predict_per_sample(model, samples):
    """Class distributions (n, H), one :func:`predict` call (a batch of
    one) per sample, in input order."""
    probs = np.empty((len(samples), model.n_classes))
    for k, sample in enumerate(samples):
        probs[k] = predict(model, sample)[1]
    return probs


def distinct_rows_axis0(events, lengths):
    """``bilstm._distinct_rows`` as it compared rows before it read them as
    bytes: ``np.unique(axis=0)`` over the ``[length, events]`` rows."""
    if len(lengths) < 2:
        return None
    _, first, inverse = np.unique(np.column_stack([lengths, events]), axis=0,
                                  return_index=True, return_inverse=True)
    if len(first) == len(lengths):
        return None
    by_row = np.argsort(first)
    return first[by_row], np.argsort(by_row)[inverse.reshape(-1)]


def unshared_inference_runs(model, events, lengths, ws):
    """``bilstm._inference_runs`` as it ran before batches shared steps:
    the same batches, each running both directions over all of its rows."""
    width = events.shape[1]
    for part, t_len in bilstm._cut(np.argsort(-lengths, kind="stable"), lengths):
        yield part, bilstm._run_batch(model, events[part, width - t_len:], lengths[part], ws)


def unshared_predict_many(model, samples):
    """``predict_many`` over :func:`unshared_inference_runs`, without
    merging repeated rows."""
    events, lengths = bilstm._stack_events(model, samples)
    probs = np.empty((len(samples), model.n_classes))
    for part, run in unshared_inference_runs(model, events, lengths, Workspace()):
        probs[part] = run.probs
    return probs


def unshared_explain_many(model, samples, config=LrpConfig()):
    """``explain_many`` over :func:`unshared_inference_runs`, without
    merging repeated rows: each walk reads its own run's cells in place."""
    events, lengths = bilstm._stack_events(model, samples)
    results = [None] * len(samples)
    ws = Workspace()
    with np.errstate(over="ignore", invalid="ignore"):
        for part, run in unshared_inference_runs(model, events, lengths, ws):
            fwd_cells = lrp._walk_cells(run.fwd, model.forward_params, config, ws, "lrp.fwd")
            for k, result in zip(part, lrp._explain_run(model, run, [samples[k] for k in part],
                                                        config, ws, fwd_cells)):
                results[k] = result
    return results


def save_model_v1(model, f):
    """Write ``model`` to the text stream ``f`` in model format 1: one
    nested decimal list per gate block (``W_i``, ``U_i``, ``b_i``, ...)."""
    doc = {
        "format_version": 1,
        "hidden_size": model.hidden_size,
        "vocab": list(model.vocab.labels),
        "max_len": model.max_len,
        "hyperparams": dict(model.hyperparams, trained_epochs=model.trained_epochs),
        "forward": {name: arr.tolist() for name, arr in model.forward_params.items()},
        "backward": {name: arr.tolist() for name, arr in model.backward_params.items()},
        "W_out": model.W_out.tolist(),
        "b_out": model.b_out.tolist(),
    }
    json.dump(doc, f)
    f.write("\n")


def walk_markov_choice(spec, rng):
    """One Markov walk, each transition drawn by ``rng.choice`` over the
    state's normalized probabilities; resampled when it passes
    ``max_length`` or falls short of ``min_length``."""
    for _ in range(10_000):
        walk = [spec.start]
        while len(walk) <= spec.max_length:
            choices = spec.transitions[walk[-1]]
            labels = [nxt for nxt, _ in choices]
            probs = np.asarray([p for _, p in choices])
            nxt = labels[rng.choice(len(labels), p=probs / probs.sum())]
            if nxt is None:
                break
            walk.append(nxt)
        else:
            continue
        if len(walk) >= spec.min_length:
            return walk
    raise InvalidSpec("grammar cannot produce a trace within the length range")


def generate_markov_choice(spec):
    """The log of a Markov ``spec``: case ``case_{i:05d}`` starts ``i``
    minutes after 2024-01-01 UTC, one event per second."""
    rng = np.random.default_rng(spec.seed)
    base = datetime(2024, 1, 1, tzinfo=timezone.utc)
    traces = []
    for i in range(spec.n_traces):
        case_id = f"case_{i:05d}"
        start = base + timedelta(minutes=i)
        traces.append(Trace(case_id, tuple(
            Event(case_id, a, start + timedelta(seconds=t))
            for t, a in enumerate(walk_markov_choice(spec, rng)))))
    return EventLog(tuple(traces))


def parse_timestamp_utc(raw, fmt=None):
    """A log field as a UTC timestamp: ``strptime`` with ``fmt``, else
    ISO-8601 with a trailing Z read as +00:00; a naive result is taken
    as UTC by ``replace``, an aware one converted by ``astimezone``."""
    text = raw.strip()
    if fmt is not None:
        ts = datetime.strptime(text, fmt)
    else:
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def format_timestamp_utc(ts):
    """A timestamp as a log field: its UTC wall time, no offset."""
    return ts.astimezone(timezone.utc).replace(tzinfo=None).isoformat(sep=" ")
