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

from dataclasses import dataclass

import numpy as np

from .bilstm import BiLstmModel, DirectionTrace, LstmWeights, forward
from .encoding import PrefixSample
from .errors import ShapeMismatch, TraceTooShort
from .tensorcore import as_f64


@dataclass(frozen=True)
class LrpConfig:
    """Knobs of the relevance decomposition.

    ``target`` None explains the predicted class, an int explains that
    class. ``start_from`` picks the output value the decomposition starts
    from: the pre-softmax logit (default) or the softmax probability.
    """
    epsilon: float = 0.001
    delta: float = 0.0
    target: int | None = None
    start_from: str = "logit"

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.delta not in (0.0, 1.0):
            raise ValueError(f"delta must be 0.0 or 1.0, got {self.delta}")
        if self.start_from not in ("logit", "probability"):
            raise ValueError(f"unknown start_from {self.start_from!r}")


@dataclass(frozen=True)
class RelevanceTrace:
    """Signed per-event relevance for one prediction, oldest event first.

    ``model_output`` is the output-layer value the decomposition started
    from. ``initial_state_relevance`` is what flowed into the zero initial
    states, and ``bias_absorbed`` what the biases soaked up (zero when
    delta = 1); together with ``raw.sum()`` they reconstruct
    ``model_output`` exactly. ``gate_relevance`` collects everything
    assigned to gate neurons and is structurally zero.
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


def _sign(z: np.ndarray) -> np.ndarray:
    return np.where(z >= 0.0, 1.0, -1.0)


def lrp_linear(z_lower: np.ndarray, w: np.ndarray, b: np.ndarray,
               z_upper: np.ndarray, r_upper: np.ndarray,
               epsilon: float, delta: float) -> np.ndarray:
    """Redistribute upper-layer relevance through a weighted linear map.

    ``w`` has one row per upper neuron: z_upper[j] is the forward
    pre-activation sum(w[j] * z_lower) + b[j]. Every lower neuron receives
    the summed messages from all upper neurons; the bias/stabiliser share
    is split evenly over the N = len(z_lower) connected lower neurons.
    """
    z_lower = as_f64(z_lower)
    w = as_f64(w)
    b = as_f64(b)
    z_upper = as_f64(z_upper)
    r_upper = as_f64(r_upper)
    m, n = w.shape if w.ndim == 2 else (0, 0)
    if w.ndim != 2 or z_lower.shape != (n,) or b.shape != (m,) \
            or z_upper.shape != (m,) or r_upper.shape != (m,):
        raise ShapeMismatch(
            f"lrp_linear shapes disagree: W {w.shape}, lower {z_lower.shape}, "
            f"bias {b.shape}, upper {z_upper.shape}, R {r_upper.shape}")
    sign = _sign(z_upper)
    denom = z_upper + epsilon * sign
    share = (epsilon * sign + delta * b) / n
    messages = (w * z_lower[None, :] + share[:, None]) \
        * (r_upper / denom)[:, None]
    return messages.sum(axis=0)


def bias_absorption(b: np.ndarray, z_upper: np.ndarray, r_upper: np.ndarray,
                    epsilon: float, delta: float) -> float:
    """Relevance a linear layer's biases soak up: (1-delta) * b_j / denom_j * R_j.

    Closed form of R_upper.sum() - R_lower.sum() for :func:`lrp_linear`;
    exactly zero when delta = 1.
    """
    b = as_f64(b)
    z_upper = as_f64(z_upper)
    denom = z_upper + epsilon * _sign(z_upper)
    return float((((1.0 - delta) * b) / denom * as_f64(r_upper)).sum())


def lrp_multiplicative(r_product: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gate/source rule for a two-factor product: gate 0, source everything."""
    r_product = as_f64(r_product)
    return np.zeros_like(r_product), r_product.copy()


def _split_sum2(s1: np.ndarray, s2: np.ndarray, z_upper: np.ndarray,
                r_upper: np.ndarray, epsilon: float, delta: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """Split relevance over the two summands of z_upper = s1 + s2.

    Elementwise form of :func:`lrp_linear` with unit weights, zero bias
    and N = 2 lower neurons per unit.
    """
    sign = _sign(z_upper)
    denom = z_upper + epsilon * sign
    share = epsilon * sign / 2.0  # delta * b is zero: the sum has no bias
    scale = r_upper / denom
    return (s1 + share) * scale, (s2 + share) * scale


def _propagate_direction(trace: DirectionTrace, params: LstmWeights,
                         r_h_final: np.ndarray, config: LrpConfig
                         ) -> tuple[np.ndarray, float, float, float]:
    """Walk one direction from its final step back to its first.

    Returns per-step input relevance (in the direction's reading order),
    the relevance left on the zero initial states, the bias-absorbed total
    of the gate pre-activation layers, and the gate-assigned total.
    """
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
        # h_t = o_t * tanh(c_t): output gate is zeroed, tanh passes through.
        r_gate_o, r_tanh_c = lrp_multiplicative(r_h)
        gate_total += float(np.abs(r_gate_o).sum())
        r_c = r_c + r_tanh_c
        # c_t = f_t*c_{t-1} + i_t*g_t: split the sum, then zero each gate.
        r_forget_term, r_input_term = _split_sum2(
            gate_f[t] * trace.c[t], gate_i[t] * cand[t],
            trace.c[t + 1], r_c, config.epsilon, config.delta)
        r_gate_f, r_c_prev = lrp_multiplicative(r_forget_term)
        r_gate_i, r_cand = lrp_multiplicative(r_input_term)
        gate_total += float(np.abs(r_gate_f).sum() + np.abs(r_gate_i).sum())
        # g_t = tanh(W_g x_t + U_g h_{t-1} + b_g): identity through tanh,
        # then the linear rule over the concatenated lower layer.
        z_low = np.concatenate([trace.inputs[t], trace.h[t]])
        r_low = lrp_linear(z_low, w_cat, b_g, pre_g[t], r_cand,
                           config.epsilon, config.delta)
        absorbed += bias_absorption(b_g, pre_g[t], r_cand,
                                    config.epsilon, config.delta)
        rx[t] = r_low[:h_dim]
        r_h = r_low[h_dim:]
        r_c = r_c_prev
    leftover = float(r_h.sum() + r_c.sum())
    return rx, leftover, absorbed, gate_total


def explain(model: BiLstmModel, sample: PrefixSample,
            config: LrpConfig = LrpConfig()) -> RelevanceTrace:
    """Per-event relevance of one prediction, decomposed through both
    directions and summed per event."""
    if sample.true_length < 2:
        raise TraceTooShort(
            f"sample {sample.case_id!r} has true_length {sample.true_length}; need >= 2")
    if config.target is not None and not 0 <= config.target < model.n_classes:
        raise ShapeMismatch(
            f"target class {config.target} out of range for {model.n_classes} classes")

    trace = forward(model, sample)
    target = int(np.argmax(trace.probs)) if config.target is None else config.target
    r_init = float(trace.logits[target]) if config.start_from == "logit" \
        else float(trace.probs[target])
    r_out = np.zeros(model.n_classes)
    r_out[target] = r_init

    d = model.hidden_size
    h_cat = np.concatenate([trace.fwd.h[-1], trace.bwd.h[-1]])
    r_hcat = lrp_linear(h_cat, model.W_out, model.b_out, trace.logits, r_out,
                        config.epsilon, config.delta)
    absorbed = bias_absorption(model.b_out, trace.logits, r_out,
                               config.epsilon, config.delta)

    rx_f, left_f, abs_f, gates_f = _propagate_direction(
        trace.fwd, model.forward_params, r_hcat[:d], config)
    rx_b, left_b, abs_b, gates_b = _propagate_direction(
        trace.bwd, model.backward_params, r_hcat[d:], config)

    # The backward direction read the events newest-first; flip its time
    # axis back to event order before summing the one-hot components.
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
