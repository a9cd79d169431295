"""Layer-wise relevance propagation through the bidirectional LSTM.

The decomposition walks the network backwards from one output neuron and
redistributes its value onto the inputs using two rules:

* weighted linear connections use the epsilon-stabilised fraction rule,
  where each lower neuron receives (z_i w_ij + (eps*sign(z_j) + delta*b_j)/N)
  / (z_j + eps*sign(z_j)) of the upper relevance R_j, with N the number of
  connected lower neurons and sign(0) = +1;
* two-to-one multiplicative gate interactions give the sigmoid gate zero
  relevance and pass everything to the source neuron.

Elementwise nonlinearities pass relevance through unchanged. With
delta = 1 the total relevance is conserved layer to layer; with delta = 0
the bias terms absorb part of it. This is the LSTM scheme of Arras et al.
(2017), applied to both directions and summed per input event.
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .bilstm import (
    BiLstmModel,
    DirectionTrace,
    LstmWeights,
    Workspace,
    _NEW_ARRAYS,
    _alignment,
    _borrowed_workspace,
    _inference_chunks,
    _run_batch,
    _stack_events,
)
from .encoding import PrefixSample
from .errors import ShapeMismatch, TraceTooShort


@dataclass(frozen=True)
class LrpConfig:
    """Knobs of the relevance decomposition.

    ``target`` None explains the predicted class, an int explains that
    class. The decomposition starts from the target's pre-softmax logit.
    """
    epsilon: float = 0.001
    delta: float = 0.0
    target: int | None = None

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:  # NaN fails too
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.delta not in (0.0, 1.0):
            raise ValueError(f"delta must be 0.0 or 1.0, got {self.delta}")


@dataclass(frozen=True)
class RelevanceTrace:
    """Signed per-event relevance for one prediction, oldest event first.

    ``model_output`` is the target's logit, the value the decomposition
    started from. ``initial_state_relevance`` is what flowed into the zero
    initial states, and ``bias_absorbed`` what the biases soaked up (zero
    when delta = 1); together with ``raw.sum()`` they reconstruct
    ``model_output`` exactly. ``gate_relevance`` collects everything
    assigned to gate neurons and is structurally zero. The rules are
    linear in the starting value, so ``raw * target_prob / model_output``
    decomposes the target's probability instead.
    """
    raw: np.ndarray
    display: np.ndarray
    target_class: int
    model_output: float
    target_prob: float
    initial_state_relevance: float
    bias_absorbed: float
    gate_relevance: float
    case_id: str

    def __len__(self) -> int:
        return len(self.raw)

    @property
    def conservation_residual(self) -> float:
        """``model_output`` minus what the decomposition accounts for: the
        raw relevances, the initial states' share and the absorbed bias.
        Zero up to rounding."""
        return self.model_output - (float(self.raw.sum()) + self.initial_state_relevance
                                    + self.bias_absorbed)


def as_f64(x) -> np.ndarray:
    """Coerce to a float64 array without copying when already one."""
    return np.asarray(x, dtype=np.float64)


def _stabilise(z_upper: np.ndarray, epsilon: float, stab: np.ndarray | None = None,
               denom: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The stabiliser epsilon * sign(z), with sign(0) = +1, and the
    denominator z + stabiliser, written to ``stab`` and ``denom`` if given."""
    stab = np.empty(z_upper.shape) if stab is None else stab
    np.copyto(stab, -epsilon)
    np.copyto(stab, epsilon, where=z_upper >= 0.0)
    return stab, np.add(z_upper, stab, out=denom)


def _epsilon_rule(z_lower: np.ndarray, w: np.ndarray, share: np.ndarray,
                  scale: np.ndarray) -> np.ndarray:
    """Sum over upper neurons j of the messages
    (w[j, i] * z_lower[i] + share[j]) * scale[j], as one matrix product;
    ``scale`` is R_upper / denom."""
    return z_lower * (scale @ w) + (share * scale).sum(axis=-1, keepdims=True)


def lrp_linear(z_lower: np.ndarray, w: np.ndarray, b: np.ndarray,
               z_upper: np.ndarray, r_upper: np.ndarray,
               epsilon: float, delta: float) -> np.ndarray:
    """Redistribute upper-layer relevance through a weighted linear map.

    ``w`` has one row per upper neuron: z_upper[j] is the forward
    pre-activation sum(w[j] * z_lower) + b[j]. Every lower neuron receives
    the summed messages from all upper neurons; the bias/stabiliser share
    is split evenly over the N = len(z_lower) connected lower neurons.
    With a leading batch axis on ``z_lower``, ``z_upper`` and ``r_upper``,
    each row is redistributed on its own.
    """
    z_lower = as_f64(z_lower)
    w = as_f64(w)
    b = as_f64(b)
    z_upper = as_f64(z_upper)
    r_upper = as_f64(r_upper)
    m, n = w.shape if w.ndim == 2 else (0, 0)
    batch = z_lower.shape[:-1]
    if w.ndim != 2 or z_lower.ndim not in (1, 2) or z_lower.shape != batch + (n,) \
            or b.shape != (m,) or z_upper.shape != batch + (m,) \
            or r_upper.shape != batch + (m,):
        raise ShapeMismatch(
            f"lrp_linear shapes disagree: W {w.shape}, lower {z_lower.shape}, "
            f"bias {b.shape}, upper {z_upper.shape}, R {r_upper.shape}")
    stab, denom = _stabilise(z_upper, epsilon)
    return _epsilon_rule(z_lower, w, (stab + delta * b) / n, r_upper / denom)


def bias_absorption(b: np.ndarray, z_upper: np.ndarray, r_upper: np.ndarray,
                    epsilon: float, delta: float):
    """Relevance a linear layer's biases soak up: (1-delta) * b_j / denom_j * R_j.

    Closed form of R_upper.sum() - R_lower.sum() for :func:`lrp_linear`;
    exactly zero when delta = 1. One total per row when ``z_upper`` and
    ``r_upper`` carry a leading batch axis.
    """
    _, denom = _stabilise(as_f64(z_upper), epsilon)
    total = (((1.0 - delta) * as_f64(b)) / denom * as_f64(r_upper)).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def lrp_multiplicative(r_product: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gate/source rule for a two-factor product: gate 0, source everything."""
    r_product = as_f64(r_product)
    return np.zeros(r_product.shape), r_product.copy()


def _propagate_direction(trace: DirectionTrace, params: LstmWeights,
                         r_h_final: np.ndarray, spans: list[tuple[int, int, int]],
                         config: LrpConfig, ws: Workspace
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Walk one direction of a right-aligned batch, ordered longest first,
    from its final step back to its first, the walk's arrays taken from
    ``ws``.

    ``trace`` carries the batch axis. Each step updates the started rows
    its span (see :mod:`xnap.bilstm`) names; before a sample's first step
    its relevance stays where it is. Returns the per-step input relevance
    (T, B) in the direction's reading order (zero before a sample's first
    step) and, per sample, the relevance left on the zero initial states,
    the bias-absorbed total of the gate pre-activation layers, and the
    gate-assigned total.
    """
    t_len, b = trace.events.shape
    d = r_h_final.shape[1]
    h_dim = params.W.shape[1]
    eps, delta = config.epsilon, config.delta
    g = params.rows("g")
    u_g, b_g = params.U[g], params.b[g]
    share_c, denom_c, share_g, denom_g, absorb_g, r_cands = ws.take(
        "lrp.steps", (6, t_len, b, d))
    # c_t = f_t*c_{t-1} + i_t*g_t: the two summands, stacked per step, each
    # with its share of the stabiliser (no bias).
    summands = ws.take("lrp.summands", (t_len, 2, b, d))
    np.multiply(trace.gate_f, trace.c[:-1], out=summands[:, 0])
    np.multiply(trace.gate_i, trace.cand, out=summands[:, 1])
    _stabilise(trace.c[1:], eps, share_c, denom_c)
    share_c /= 2.0
    summands += share_c[:, None]
    # The lower layer of g_t's pre-activation is [x_t ; h_{t-1}]: H input
    # units and D hidden ones share the stabiliser and bias term.
    _stabilise(trace.pre_g, eps, share_g, denom_g)
    share_g += delta * b_g
    share_g /= h_dim + d
    np.divide((1.0 - delta) * b_g, denom_g, out=absorb_g)

    # Per-step relevance of the candidate pre-activations (r_cands), kept
    # for the input units and the per-sample totals after the walk. What
    # the gates receive is summed as the walk goes.
    r_gates = ws.take("lrp.r_gates", (3, b, d))  # o, f, i at the current step
    gate_total = np.zeros((3, b, d))
    r_h = r_h_final.copy()
    r_c = np.zeros_like(r_h)
    for t0, t1, n in reversed(spans):
        if n < b:
            r_cands[t0:t1, n:] = 0.0
        rg, gates = r_gates[:, :n], gate_total[:, :n]
        summ, den_c = summands[t0:t1, :, :n], denom_c[t0:t1, :n]
        h_prev, sh_g, den_g = trace.h[t0:t1, :n], share_g[t0:t1, :n], denom_g[t0:t1, :n]
        cands = r_cands[t0:t1, :n]
        rh, rc = r_h[:n], r_c[:n]
        for t in reversed(range(t1 - t0)):
            # h_t = o_t * tanh(c_t): output gate is zeroed, tanh passes through.
            rg[0], r_tanh_c = lrp_multiplicative(rh)
            # The epsilon rule over the two summands of c_t, then the forget
            # and input gates are zeroed.
            scale = (rc + r_tanh_c) / den_c[t]
            rg[1:], (rc, cands[t]) = lrp_multiplicative(summ[t] * scale)
            gates += np.abs(rg, out=rg)
            # g_t = tanh(W_g x_t + U_g h_{t-1} + b_g): identity through tanh,
            # then the linear rule; here its messages to h_{t-1}.
            rh = _epsilon_rule(h_prev[t], u_g, sh_g[t], cands[t] / den_g[t])
        r_h[:n], r_c[:n] = rh, rc
    leftover = r_h.sum(axis=1) + r_c.sum(axis=1)
    # The rule's messages to the input units, for all steps at once. A
    # one-hot x_t has one active unit, which receives W_g[:, e] . scale
    # for event e (nothing for the pad index's zero row); each of the H
    # units receives the share term S = share . scale.
    scale = np.divide(r_cands, denom_g, out=share_c)  # share_c, denom_c are free now
    active = denom_c
    w_in = ws.take("lrp.w_in", (h_dim + 1, d))
    w_in[:h_dim] = params.W[g].T
    w_in[h_dim] = 0.0
    w_in.take(trace.events, axis=0, out=active, mode="clip")
    active *= scale
    share_g *= scale
    rx = active.sum(axis=2) + h_dim * share_g.sum(axis=2)
    # Totals over each sample's own steps, newest first.
    absorb_g *= r_cands
    absorbed = absorb_g.sum(axis=2)[::-1].sum(axis=0)
    return rx, leftover, absorbed, gate_total.sum(axis=(0, 2))


def _explain_chunk(model: BiLstmModel, samples: list[PrefixSample],
                   config: LrpConfig, ws: Workspace) -> list[RelevanceTrace]:
    """Explain one batch: one forward pass, one relevance walk per direction."""
    events, lengths = _stack_events(model, samples)
    t_len = events.shape[1]
    run = _run_batch(model, events, lengths, None, ws)
    spans, rev = _alignment(lengths, t_len)
    rows = np.arange(len(samples))
    targets = np.argmax(run.probs, axis=1) if config.target is None \
        else np.full(len(samples), config.target)
    r_out = np.zeros_like(run.logits)
    r_out[rows, targets] = run.logits[rows, targets]

    d = model.hidden_size
    h_cat = np.concatenate([run.fwd.h[-1], run.bwd.h[-1]], axis=1)
    r_hcat = lrp_linear(h_cat, model.W_out, model.b_out, run.logits, r_out,
                        config.epsilon, config.delta)
    absorbed = bias_absorption(model.b_out, run.logits, r_out,
                               config.epsilon, config.delta)

    rx_f, left_f, abs_f, gates_f = _propagate_direction(
        run.fwd, model.forward_params, r_hcat[:, :d], spans, config, ws)
    rx_b, left_b, abs_b, gates_b = _propagate_direction(
        run.bwd, model.backward_params, r_hcat[:, d:], spans, config, ws)

    # The backward direction read each window newest-first; gather its
    # steps back to event order before adding the two directions.
    raw = rx_f + rx_b[rev, rows]
    initial = left_f + left_b
    bias = absorbed + abs_f + abs_b
    gates = gates_f + gates_b
    out = []
    for k, sample in enumerate(samples):
        event_raw = raw[t_len - lengths[k]:, k].copy()
        target = int(targets[k])
        out.append(RelevanceTrace(
            raw=event_raw,
            display=rescale_for_display(event_raw),
            target_class=target,
            model_output=float(run.logits[k, target]),
            target_prob=float(run.probs[k, target]),
            initial_state_relevance=float(initial[k]),
            bias_absorbed=float(bias[k]),
            gate_relevance=float(gates[k]),
            case_id=sample.case_id,
        ))
    return out


def explain_many(model: BiLstmModel, samples: list[PrefixSample],
                 config: LrpConfig = LrpConfig()) -> list[RelevanceTrace]:
    """Per-event relevance of many predictions, in input order.

    Each prediction is decomposed through both directions and summed per
    event. Samples run longest first, in batches cropped to their longest
    sample and capped at ``_INFERENCE_ROWS`` (sample, step) rows, all taking
    their arrays from one workspace (a single sample takes new arrays).
    """
    for sample in samples:
        if sample.true_length < 2:
            raise TraceTooShort(
                f"sample {sample.case_id!r} has true_length {sample.true_length}; need >= 2")
    if config.target is not None and not 0 <= config.target < model.n_classes:
        raise ShapeMismatch(
            f"target class {config.target} out of range for {model.n_classes} classes")
    results: list[RelevanceTrace] = [None] * len(samples)
    lengths = np.asarray([sample.true_length for sample in samples])
    arrays = _borrowed_workspace() if len(samples) > 1 else nullcontext(_NEW_ARRAYS)
    with arrays as ws:
        for part in _inference_chunks(lengths):
            chunk = _explain_chunk(model, [samples[k] for k in part], config, ws)
            for k, result in zip(part, chunk):
                results[k] = result
    return results


def explain(model: BiLstmModel, sample: PrefixSample,
            config: LrpConfig = LrpConfig()) -> RelevanceTrace:
    """Per-event relevance of one prediction: :func:`explain_many` on a
    batch of one."""
    return explain_many(model, [sample], config)[0]


def rescale_for_display(raw) -> np.ndarray:
    """Map signed relevances to [0, 1] for heatmaps, per trace.

    Positives map affinely onto (0.5, 1.0] against the trace's largest
    positive value, negatives onto [0.0, 0.5) against the largest
    magnitude negative; zero is exactly 0.5.
    """
    raw = as_f64(raw)
    out = np.full(raw.shape, 0.5)
    pos = raw > 0
    neg = raw < 0
    if pos.any():
        out[pos] = 0.5 + 0.5 * raw[pos] / raw[pos].max()
    if neg.any():
        out[neg] = 0.5 + 0.5 * raw[neg] / (-raw[neg]).max()
    return out
