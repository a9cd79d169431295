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

The output layer's rule starts from the target logit z alone: with
scale s = z / (z + eps*sign(z)), unit i of [h_fwd ; h_bwd] receives
h_i w_i s plus (eps*sign(z) + delta*b) s / 2D, w and b being the target's
row of the output weights and its bias, and the bias absorbs
(1 - delta) b s. No relevance vector over the classes is built.

:func:`explain_many` walks the batches of :func:`xnap.bilstm.predict_many`,
repeated rows and shared steps included, so a ``target_prob`` is, bit
for bit, the probability ``predict_many`` gives its class. One step loop
per direction walks back over a batch's started rows; a sample's
relevance stays where it is over the steps before its first event. The
epsilon rule is one matrix product per step, with no message matrix. The
product rule runs in place: tanh(c_t) takes h_t's relevance as it is,
c_{t-1} and g_t take the two rows the epsilon rule gives c_t's summands,
and no gate array is built, so the gate total stays zero. After the
loop, a one-hot x_t's active unit receives column e_t of the candidate
gate's input weights times the step's scale vector, and every input unit
the same stabiliser and bias share. Each walk reads cells
(:func:`_walk_cells`) computed once per run, where each shared step ran
once; a root chunk's forward run, which several batches read, gets its
cells once for all of them. A batch gathers its started cells through
the direction's cell table in one take, packed span by span, or reads
them in place when the direction shared nothing (the table is the
identity). Each prefix walks from its own output relevance.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .bilstm import (
    BiLstmModel,
    DirectionTrace,
    ForwardTrace,
    LstmWeights,
    Workspace,
    _borrowed_workspace,
    _distinct_rows,
    _inference_runs,
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
        if self.target is not None and (isinstance(self.target, bool)
                                        or not isinstance(self.target, numbers.Integral)):
            raise ValueError(f"target must be an integer or None, got {self.target!r}")


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


def _stabilise(z_upper: np.ndarray, epsilon: float, stab: np.ndarray | None = None,
               denom: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The stabiliser epsilon * sign(z), with sign(0) = +1, and the
    denominator z + stabiliser, written to ``stab`` and ``denom`` if given.
    Adding 0.0 turns -0.0 into +0.0, so copysign gives sign(0) = +1."""
    stab = np.add(z_upper, 0.0, out=stab)
    np.copysign(epsilon, stab, out=stab)
    return stab, np.add(z_upper, stab, out=denom)


def _output_relevance(hcat: np.ndarray, w_out: np.ndarray, b_out: np.ndarray,
                      z: np.ndarray, targets: np.ndarray, config: LrpConfig
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The epsilon rule through the output layer, from each row's target
    logit ``z`` alone: the one output neuron that holds relevance. Returns
    the relevance of the rows of ``hcat`` = [h_fwd ; h_bwd] (B, 2D) and,
    per row, what the target's bias absorbed."""
    b_t = b_out[targets]
    stab, denom = _stabilise(z, config.epsilon)
    scale = z / denom
    share = (stab + config.delta * b_t) / hcat.shape[1]
    r_hcat = hcat * (w_out[targets] * scale[:, None]) + (share * scale)[:, None]
    return r_hcat, (1.0 - config.delta) * b_t / denom * z


def _walk_cells(trace: DirectionTrace, params: LstmWeights, config: LrpConfig,
                ws: Workspace, key: str) -> np.ndarray:
    """What one direction's relevance walk reads at each (step, row) cell
    of ``trace``, as an array (6, T, B, D) taken from ``ws`` under
    ``key``: the two summands of c_t, each with its half of the
    stabiliser, c_t's stabilised denominator, h_{t-1}, and the share term
    and stabilised denominator of g_t's pre-activation. The cells before a
    row's first step are computed from unspecified trace cells, which may
    not be finite: call it under ``np.errstate``, and read started cells only."""
    t_len, b = trace.events.shape
    d = trace.c.shape[-1]
    h_dim = params.W.shape[1]
    eps = config.epsilon
    cells = ws.take(key, (6, t_len, b, d))
    summ_f, summ_i, denom_c, h_prev, share_g, denom_g = cells
    # c_t = f_t*c_{t-1} + i_t*g_t: the two summands, each with its share
    # of the stabiliser (no bias).
    share_c = h_prev  # free until h_{t-1} is copied in
    _stabilise(trace.c[1:], eps, share_c, denom_c)
    share_c /= 2.0
    i, f, g = params.rows("i"), params.rows("f"), params.rows("g")
    np.multiply(trace.act[..., f], trace.c[:-1], out=summ_f)
    np.multiply(trace.act[..., i], trace.act[..., g], out=summ_i)
    cells[:2] += share_c
    np.copyto(h_prev, trace.h[:-1])
    # The lower layer of g_t's pre-activation is [x_t ; h_{t-1}]: H input
    # units and D hidden ones share the stabiliser and bias term.
    _stabilise(trace.pre[..., g], eps, share_g, denom_g)
    share_g += config.delta * params.b[g]
    share_g /= h_dim + d
    return cells


def _propagate_direction(cells: list[np.ndarray], params: LstmWeights,
                         r_h_final: np.ndarray, events: np.ndarray,
                         spans: list[tuple[int, int, int]], config: LrpConfig, ws: Workspace
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Walk one direction of a right-aligned batch of time-major events
    ``events`` (T, B), ordered longest first, from its final step back to
    its first, on its :func:`_walk_cells` ``cells``, one (6, t1 - t0, n, D)
    block per span (t0, t1, n) (see :func:`_batch_cells`), the walk's
    arrays taken from ``ws``.

    Each step updates the started rows its span (see :mod:`xnap.bilstm`)
    names; before a sample's first step its relevance stays where it is.
    Returns the per-step input relevance (T, B) in the direction's
    reading order (zero before a sample's first step) and, per sample,
    the relevance left on the zero initial states, the bias-absorbed
    total of the gate pre-activation layers, and the gate-assigned total,
    which the product rule leaves at zero.
    """
    t_len, b = events.shape
    d = r_h_final.shape[1]
    h_dim = params.W.shape[1]
    g = params.rows("g")
    u_g = params.U[g]
    # Per cell, the rule's scale R/denom at g_t's pre-activation and the
    # total of its share term, S = share . scale, kept for the input
    # units and the per-sample totals after the walk.
    scales = ws.take("lrp.scales", (t_len, b, d))
    shares = ws.take("lrp.shares", (t_len, b))
    gate_total = np.zeros(b)
    r_h = r_h_final.copy()
    r_c = np.zeros_like(r_h)
    for (t0, t1, n), span in zip(reversed(spans), reversed(cells)):
        if n < b:
            scales[t0:t1, n:] = 0.0
            shares[t0:t1, n:] = 0.0
        rh, rc = r_h[:n], r_c[:n]
        steps = zip(scales[t0:t1, :n], shares[t0:t1, :n], span[:2].swapaxes(0, 1), *span[2:])
        for scale_g, share, summands, denom_c, h_prev, share_g, denom_g in reversed(list(steps)):
            # Each product's gate gets nothing and its source everything:
            # tanh(c_t) takes all of h_t = o_t * tanh(c_t), and after the
            # epsilon rule over the two summands of c_t, c_{t-1} and g_t take
            # all of f_t * c_{t-1} and i_t * g_t.
            rc, r_cand = summands * ((rc + rh) / denom_c)
            # g_t = tanh(W_g x_t + U_g h_{t-1} + b_g): identity through tanh,
            # then the linear rule; here its messages to h_{t-1}.
            np.divide(r_cand, denom_g, out=scale_g)
            np.multiply(share_g, scale_g).sum(axis=1, out=share)
            rh = h_prev * (scale_g @ u_g) + share[:, None]
        r_h[:n], r_c[:n] = rh, rc
    leftover = r_h.sum(axis=1) + r_c.sum(axis=1)
    # The rule's messages to the input units, for all steps at once. A
    # one-hot x_t has one active unit, which receives W_g[:, e] . scale
    # for event e (nothing for the pad index's zero row); each of the H
    # units receives the share term S.
    w_in = ws.take("lrp.w_in", (h_dim + 1, d))
    w_in[:h_dim] = params.W[g].T
    w_in[h_dim] = 0.0
    active = w_in.take(events, axis=0, out=ws.take("lrp.active", (t_len, b, d)), mode="clip")
    active *= scales
    rx = active.sum(axis=2) + h_dim * shares
    # What the biases absorbed, (1 - delta) b_g . scale per step, totalled
    # over each sample's own steps, newest first.
    absorbed = (scales @ ((1.0 - config.delta) * params.b[g]))[::-1].sum(axis=0)
    return rx, leftover, absorbed, gate_total


def _batch_cells(run_cells: np.ndarray, table: np.ndarray | None,
                 spans: list[tuple[int, int, int]], ws: Workspace) -> list[np.ndarray]:
    """The :func:`_walk_cells` ``run_cells`` of one direction's run, as
    one batch laid out by ``spans`` reads them: one (6, t1 - t0, n, D)
    block of started cells per span (t0, t1, n). They are views of the
    run's own cells when ``table`` is None; else one take through
    ``table`` (see :class:`xnap.bilstm.ForwardTrace`) gathers the started
    cells, and only those, packed span after span."""
    if table is None:
        return [run_cells[:, t0:t1, :n] for t0, t1, n in spans]
    d = run_cells.shape[-1]
    counts = np.repeat([n for _, _, n in spans], [t1 - t0 for t0, t1, _ in spans])
    started = table[counts[:, None] > np.arange(table.shape[1])]  # time-major, span by span
    packed = ws.take("lrp.cells", (6, len(started), d))
    run_cells.reshape(6, -1, d).take(started, axis=1, mode="clip", out=packed)
    ends = np.cumsum([(t1 - t0) * n for t0, t1, n in spans]).tolist()
    return [packed[:, end - (t1 - t0) * n:end].reshape(6, t1 - t0, n, d)
            for (t0, t1, n), end in zip(spans, ends)]


def _explain_run(model: BiLstmModel, run: ForwardTrace, samples: list[PrefixSample],
                 config: LrpConfig, ws: Workspace, fwd_cells: np.ndarray
                 ) -> list[RelevanceTrace]:
    """Explain the batch ``samples`` of the forward pass ``run``: one
    relevance walk per direction, each on its :func:`_batch_cells`. The
    forward walk reads ``fwd_cells``, the :func:`_walk_cells` of
    ``run.fwd``, which other batches may read too."""
    b = len(samples)
    rows = np.arange(b)
    targets = np.argmax(run.probs, axis=1) if config.target is None \
        else np.full(b, config.target)
    z = run.logits[rows, targets]
    r_hcat, absorbed = _output_relevance(run.hcat, model.W_out, model.b_out, z, targets, config)
    d = model.hidden_size
    fwd, bwd = model.forward_params, model.backward_params
    table_f, table_b = run.tables
    rx_f, left_f, abs_f, gates_f = _propagate_direction(
        _batch_cells(fwd_cells, table_f, run.spans, ws), fwd, r_hcat[:, :d], run.events,
        run.spans, config, ws)
    # The backward direction read each window reversed in place.
    bwd_cells = _walk_cells(run.bwd, bwd, config, ws, "lrp.bwd")
    rx_b, left_b, abs_b, gates_b = _propagate_direction(
        _batch_cells(bwd_cells, table_b, run.spans, ws), bwd, r_hcat[:, d:],
        run.events[run.rev, rows], run.spans, config, ws)

    # The backward direction read each window newest-first; gather its
    # steps back to event order before adding the two directions.
    raw = rx_f + rx_b[run.rev, rows]
    display = _rescale_columns(raw)
    initial = (left_f + left_b).tolist()
    bias = (absorbed + abs_f + abs_b).tolist()
    gates = (gates_f + gates_b).tolist()
    outputs = z.tolist()
    probs = run.probs[rows, targets].tolist()
    out = []
    for k, sample in enumerate(samples):
        own = slice(-sample.true_length, None)  # its own steps, the last ones
        out.append(RelevanceTrace(
            raw=raw[own, k].copy(),
            display=display[own, k].copy(),
            target_class=int(targets[k]),
            model_output=outputs[k],
            target_prob=probs[k],
            initial_state_relevance=initial[k],
            bias_absorbed=bias[k],
            gate_relevance=gates[k],
            case_id=sample.case_id,
        ))
    return out


def explain_many(model: BiLstmModel, samples: list[PrefixSample],
                 config: LrpConfig = LrpConfig()) -> list[RelevanceTrace]:
    """Per-event relevance of many predictions, in input order.

    Each prediction is decomposed through both directions and summed per
    event, walking back through the batches of :func:`predict_many`, all
    taking their arrays from one workspace. Each direction computes its
    walk cells once per step it ran (:func:`_batch_cells`), so once per
    distinct reading prefix of the batch, or of the root chunk whose
    forward run the batch reads. The walks stay per prefix, each from its
    own output relevance.
    A row given more than once (the same true length and events) is walked
    once; each repeat gets a copy of its result under its own case id.
    """
    for sample in samples:
        if sample.true_length < 2:
            raise TraceTooShort(
                f"sample {sample.case_id!r} has true_length {sample.true_length}; need >= 2")
    if config.target is not None and not 0 <= config.target < model.n_classes:
        raise ShapeMismatch(
            f"target class {config.target} out of range for {model.n_classes} classes")
    events, lengths = _stack_events(model, samples)
    distinct = _distinct_rows(events, lengths)
    walked = samples
    if distinct is not None:
        first, inverse = distinct
        events, lengths, walked = events[first], lengths[first], [samples[k] for k in first]
    results: list[RelevanceTrace] = [None] * len(walked)
    # Finite weights can still overflow the walk: such a result holds NaN or
    # infinity, returned as it is, and warns nothing (the kernels check the
    # forward pass themselves).
    with _borrowed_workspace() as ws, np.errstate(over="ignore", invalid="ignore"):
        fwd = fwd_cells = None
        for part, run in _inference_runs(model, events, lengths, ws):
            if run.fwd is not fwd:  # a new forward run: its cells once
                fwd = run.fwd
                fwd_cells = _walk_cells(fwd, model.forward_params, config, ws, "lrp.fwd")
            batch = _explain_run(model, run, [walked[k] for k in part], config, ws, fwd_cells)
            for k, result in zip(part, batch):
                results[k] = result
    if distinct is not None:  # a repeat gets a copy under its own case id
        results = [results[j] if first[j] == k else replace(
            results[j], raw=results[j].raw.copy(), display=results[j].display.copy(),
            case_id=samples[k].case_id) for k, j in enumerate(inverse.tolist())]
    return results


def explain(model: BiLstmModel, sample: PrefixSample,
            config: LrpConfig = LrpConfig()) -> RelevanceTrace:
    """Per-event relevance of one prediction: :func:`explain_many` on a
    batch of one."""
    return explain_many(model, [sample], config)[0]


def _rescale_columns(raw: np.ndarray) -> np.ndarray:
    """Map each column of signed relevances ``raw`` (T, B) to [0, 1] for
    heatmaps: positives onto (0.5, 1.0] against the column's largest
    positive value, negatives onto [0.0, 0.5) against its largest
    magnitude negative, zero to exactly 0.5. The zeros before a sample's
    first step change neither of the two."""
    scale = np.where(raw > 0, raw.max(axis=0), -raw.min(axis=0))
    out = np.divide(0.5 * raw, scale, out=np.zeros(raw.shape), where=raw != 0)
    out += 0.5
    return out
