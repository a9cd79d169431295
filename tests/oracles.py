"""Independent naive oracles used by the unit and acceptance tests.

The forward oracle is deliberately written in scalar Python (lists,
math.*) so that it shares no code path with the package's vectorized
kernels. The LRP oracle is the per-sample relevance walk: one prefix at a
time, one dense message matrix per linear layer, no batch axis. The
dataset oracle is the dense assembly: every prefix padded to its own
(M, H) one-hot block, then stacked.
"""
import math

import numpy as np

from xnap.bilstm import forward
from xnap.encoding import augment_with_end, generate_prefixes
from xnap.errors import PrefixTooLong, TraceTooShort
from xnap.lrp import LrpConfig, RelevanceTrace, rescale_for_display


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


# --- dense dataset ----------------------------------------------------------

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
    """Epsilon rule with every message (upper j -> lower i) materialised."""
    sign = _sign(z_upper)
    denom = z_upper + epsilon * sign
    share = (epsilon * sign + delta * b) / z_lower.shape[0]
    messages = (w * z_lower[None, :] + share[:, None]) \
        * (r_upper / denom)[:, None]
    return messages.sum(axis=0)


def _bias_absorption(b, z_upper, r_upper, epsilon, delta):
    denom = z_upper + epsilon * _sign(z_upper)
    return float((((1.0 - delta) * b) / denom * r_upper).sum())


def _lrp_multiplicative(r_product):
    return np.zeros_like(r_product), r_product.copy()


def _split_sum2(s1, s2, z_upper, r_upper, epsilon, delta):
    sign = _sign(z_upper)
    denom = z_upper + epsilon * sign
    share = epsilon * sign / 2.0
    scale = r_upper / denom
    return (s1 + share) * scale, (s2 + share) * scale


def _propagate_direction(trace, params, r_h_final, config):
    t_len, h_dim = trace.inputs.shape
    d = r_h_final.shape[0]
    g = params.rows("g")
    w_cat = np.hstack([params.W[g], params.U[g]])  # lower = [x_t ; h_{t-1}]
    b_g = params.b[g]
    gate_i, gate_f, cand, pre_g = trace.gate_i, trace.gate_f, trace.cand, trace.pre_g
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
            gate_f[t] * trace.c[t], gate_i[t] * cand[t],
            trace.c[t + 1], r_c, config.epsilon, config.delta)
        r_gate_f, r_c_prev = _lrp_multiplicative(r_forget_term)
        r_gate_i, r_cand = _lrp_multiplicative(r_input_term)
        gate_total += float(np.abs(r_gate_f).sum() + np.abs(r_gate_i).sum())
        z_low = np.concatenate([trace.inputs[t], trace.h[t]])
        r_low = _lrp_linear(z_low, w_cat, b_g, pre_g[t], r_cand,
                            config.epsilon, config.delta)
        absorbed += _bias_absorption(b_g, pre_g[t], r_cand,
                                     config.epsilon, config.delta)
        rx[t] = r_low[:h_dim]
        r_h = r_low[h_dim:]
        r_c = r_c_prev
    leftover = float(r_h.sum() + r_c.sum())
    return rx, leftover, absorbed, gate_total


def explain_per_sample(model, sample, config=LrpConfig()):
    """Relevance of one prediction, walked step by step through one sample."""
    if sample.true_length < 2:
        raise TraceTooShort(f"true_length {sample.true_length}; need >= 2")
    trace = forward(model, sample)
    target = int(np.argmax(trace.probs)) if config.target is None else config.target
    r_init = float(trace.logits[target]) if config.start_from == "logit" \
        else float(trace.probs[target])
    r_out = np.zeros(model.n_classes)
    r_out[target] = r_init

    d = model.hidden_size
    h_cat = np.concatenate([trace.fwd.h[-1], trace.bwd.h[-1]])
    r_hcat = _lrp_linear(h_cat, model.W_out, model.b_out, trace.logits, r_out,
                         config.epsilon, config.delta)
    absorbed = _bias_absorption(model.b_out, trace.logits, r_out,
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
        target_prob=float(trace.probs[target]),
        initial_state_relevance=left_f + left_b,
        bias_absorbed=absorbed + abs_f + abs_b,
        gate_relevance=gates_f + gates_b,
        case_id=sample.case_id,
    )
