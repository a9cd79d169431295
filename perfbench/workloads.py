"""The benchmark's workloads and the closed loop each one runs.

Every workload runs the analyst's workflow on its own seeded log: set-up
(generate, write, parse, assemble), training, ``xnap predict`` over
running traces, per-trace prediction latency, ``xnap explain`` over whole
held-out cases, per-prefix explanation latency and ``xnap evaluate``.
Workloads differ in the log and in how large each phase is, so that each
puts its weight on a different layer (see ``WORKLOADS``).

Only xnap's public API and CLI entry point are called; the CLI reads the
generated CSV logs and model files. Every operation is checked, and a
failed check or an exception counts as a failed operation.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import xnap
import xnap.cli

clock = time.perf_counter

CV_FOLDS = 10
CONSERVATION_SAMPLES = 20
CONSERVATION_RTOL = 1e-3

# A branching, helpdesk-like grammar with rework loops.
MARKOV_TRANSITIONS = {
    "register": (("triage", 0.7), ("classify", 0.3)),
    "triage": (("assign", 0.6), ("classify", 0.3), ("reject", 0.1)),
    "classify": (("assign", 0.8), ("wait", 0.2)),
    "assign": (("work", 1.0),),
    "work": (("wait", 0.3), ("escalate", 0.15), ("resolve", 0.45), ("work", 0.1)),
    "wait": (("work", 0.7), ("escalate", 0.2), ("close", 0.1)),
    "escalate": (("assign", 0.5), ("work", 0.5)),
    "resolve": (("close", 0.6), ("reopen", 0.4)),
    "reopen": (("assign", 0.5), ("work", 0.5)),
    "reject": ((None, 1.0),),
    "close": ((None, 1.0),),
}


def copy_log(seed: int):
    return xnap.generate(xnap.copy_task(2000, seed=seed, key_position=1, key_distance=3))


def markov_log(seed: int):
    return xnap.generate(xnap.GrammarSpec(
        mode="markov", n_traces=2000, seed=seed, start="register",
        transitions=MARKOV_TRANSITIONS, min_length=3, max_length=60))


def linear_log(seed: int):
    return xnap.generate(xnap.linear_grammar(["A", "B", "C"], 200, seed=seed))


@dataclass(frozen=True)
class Workload:
    """One seeded log and the size of every phase run on it.

    Sizes count cases. Each case set is spread evenly over the cases
    ranked by length (see ``_spread_pick``), so it has the length
    distribution of the whole log and the work per unit barely depends on
    the seed. ``shares`` splits the measured seconds between the phases.
    """
    why: str
    make_log: Callable[[int], object]
    hidden: int
    batch_size: int
    epochs: int
    learning_rate: float
    train_cases: int
    val_cases: int
    running_traces: int
    explain_cases: int
    cv_cases: int | None  # None: the whole log
    cv_epochs: int
    accuracy_from: str  # "predict": the CLI predictions; "cv": the AVG row
    shares: dict[str, float]
    key_position: int | None = None  # copy task: 1-based key position
    decision_length: int | None = None  # copy task: prefix length that needs the key


PHASES = ("train", "predict_cli", "predict_latency", "explain_cli",
          "explain_latency", "cv")
# Least number of units per phase in an untraced run (latency: blocks).
MIN_UNITS = {"train": 3, "predict_cli": 3, "predict_latency": 5, "explain_cli": 3,
             "explain_latency": 5, "cv": 2}

WORKLOADS = {
    "copy": Workload(
        why="copy task of acceptance criteria 5-6: short uniform prefixes at D=16, "
            "training and per-call overhead dominate; LRP does little work",
        make_log=copy_log, hidden=16, batch_size=128, epochs=3, learning_rate=0.01,
        train_cases=1620, val_cases=180, running_traces=200, explain_cases=100,
        cv_cases=100, cv_epochs=2, accuracy_from="predict",
        shares={"train": 0.45, "predict_cli": 0.08, "predict_latency": 0.05,
                "explain_cli": 0.1, "explain_latency": 0.1, "cv": 0.22},
        key_position=1, decision_length=3),
    "markov": Workload(
        why="branching helpdesk-like grammar at D=100: long varied prefixes, "
            "bucketing, padding waste, one-hot memory and O(L^2) explanations peak",
        make_log=markov_log, hidden=100, batch_size=32, epochs=1, learning_rate=0.01,
        train_cases=24, val_cases=8, running_traces=250, explain_cases=15,
        cv_cases=10, cv_epochs=1, accuracy_from="predict",
        shares={"train": 0.2, "predict_cli": 0.1, "predict_latency": 0.09,
                "explain_cli": 0.1, "explain_latency": 0.11, "cv": 0.4}),
    "linear-cv": Workload(
        why="criterion-7 linear grammar through xnap evaluate at D=8: many tiny "
            "trainings and per-sample scoring, so per-call overhead dominates",
        make_log=linear_log, hidden=8, batch_size=64, epochs=8, learning_rate=0.01,
        train_cases=162, val_cases=18, running_traces=20, explain_cases=20,
        cv_cases=None, cv_epochs=8, accuracy_from="cv",
        shares={"train": 0.1, "predict_cli": 0.05, "predict_latency": 0.05,
                "explain_cli": 0.05, "explain_latency": 0.1, "cv": 0.65}),
}


def _spread_pick(cases: list[str], length: dict[str, int], n: int) -> tuple[list[str], list[str]]:
    """``n`` cases taken at even steps through ``cases`` ranked by length,
    and the rest; both keep the order of ``cases``."""
    ranked = sorted(cases, key=length.__getitem__)  # stable: ties keep the seeded order
    step = len(ranked) / n
    chosen = {ranked[int((i + 0.5) * step)] for i in range(min(n, len(ranked)))}
    return [c for c in cases if c in chosen], [c for c in cases if c not in chosen]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _array_mb(obj) -> float:
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray)) / 2**20


class ClosedLoop:
    """State and phases of one workload in one process."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.wl = workload
        self.seed = seed
        self.dir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.model = None

    # --- bookkeeping --------------------------------------------------------

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def _op(self, what: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")
        return problem is None

    def _same_digest(self, key: str, data: bytes) -> str | None:
        digest = _digest(data)
        first = self.digests.setdefault(key, digest)
        return None if digest == first else f"output digest {digest} != first {first}"

    def guarded(self, what: str, fn):
        """Run one operation; an exception counts as its failure."""
        try:
            return fn()
        except Exception:  # the benchmark must keep running and report it
            self._op(what, "raised " + traceback.format_exc(limit=3).strip().splitlines()[-1])
            return None

    # --- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """Generate and write the log, parse it back, assemble the datasets
        and write the running, explain and cross-validation logs."""
        wl, seed = self.wl, self.seed
        # Drop the previous set-up's data first: two copies never coexist,
        # so peak memory does not depend on when the old one is freed.
        self.model = self.log = self.train_set = self.val_set = self.held_set = None
        self._explain_samples: dict[int, object] = {}
        xnap.serialize_log(wl.make_log(seed), self.path("log.csv"))
        log = xnap.parse_log(self.path("log.csv"))
        self.vocab = xnap.build_vocabulary(log)
        self.m = xnap.max_augmented_length(log)
        by_case = {t.case_id: t for t in log}
        length = {c: len(t) for c, t in by_case.items()}
        rng = np.random.default_rng(seed)
        order = [log.case_ids[i] for i in rng.permutation(len(log))]
        train_cases, rest = _spread_pick(order, length, wl.train_cases)
        val_cases, held = _spread_pick(rest, length, wl.val_cases)
        self.train_lengths = np.asarray(
            [k for c in train_cases if length[c] >= 2 for k in range(1, length[c] + 1)])
        self.train_set = xnap.assemble_dataset(log.select_cases(train_cases), self.vocab, self.m)
        self.val_set = xnap.assemble_dataset(log.select_cases(val_cases), self.vocab, self.m)
        self.held_set = xnap.assemble_dataset(log.select_cases(held), self.vocab, self.m)

        cut_rng = np.random.default_rng([seed, 1])
        self.running, self.truths = [], []
        for case in _spread_pick(held, length, wl.running_traces)[0]:
            trace = by_case[case]
            cut = int(cut_rng.integers(2, len(trace) + 1))
            self.running.append(xnap.Trace(case, trace.events[:cut]))
            self.truths.append(trace.events[cut].activity if cut < len(trace)
                               else xnap.END_SYMBOL)
        xnap.serialize_log(xnap.EventLog(tuple(self.running)), self.path("running.csv"))

        explain_cases, _ = _spread_pick(held, length, wl.explain_cases)
        self.explain_traces = [by_case[c] for c in explain_cases]
        self.explain_prefixes = [xnap.Trace(t.case_id, t.events[:k])
                                 for t in self.explain_traces for k in range(2, len(t) + 1)]
        xnap.serialize_log(xnap.EventLog(tuple(self.explain_traces)), self.path("explain.csv"))

        cv_cases = order if wl.cv_cases is None else _spread_pick(order, length, wl.cv_cases)[0]
        self.cv_traces = len(cv_cases)
        xnap.serialize_log(log.select_cases(cv_cases), self.path("cv.csv"))
        self.log = log
        self._predict_cursor = self._explain_cursor = 0
        self._library_predictions: dict[int, tuple[str, str]] = {}
        self._cli_predictions: list[list[str]] | None = None
        self._cv_rows: list[list[str]] | None = None

    # --- phases: each call is one unit; it returns (work done, seconds), the
    # latency phases a list of seconds per call ------------------------------

    def train(self) -> tuple[int, float]:
        """One training call with early stopping disabled; work in prefix-epochs."""
        wl = self.wl
        config = xnap.TrainConfig(hidden_size=wl.hidden, batch_size=wl.batch_size,
                                  max_epochs=wl.epochs, patience=wl.epochs,
                                  learning_rate=wl.learning_rate, seed=self.seed)
        start = clock()
        model, history = xnap.train(self.train_set, self.val_set, config)
        elapsed = clock() - start
        if self.model is None:
            self.model = model
            xnap.save_model(model, self.path("model.json"))
            data = Path(self.path("model.json")).read_bytes()
        else:
            buf = io.StringIO()
            xnap.save_model(model, buf)
            data = buf.getvalue().encode()
        problem = self._same_digest("model", data)
        if len(history) != wl.epochs:
            problem = f"ran {len(history)} epochs, expected {wl.epochs}"
        self._op("train", problem)
        return len(self.train_set) * len(history), elapsed

    def predict_cli(self) -> tuple[int, float]:
        """``xnap predict`` over the running log; work in traces."""
        out = self.path("predict.csv")
        start = clock()
        code = xnap.cli.main(["predict", "--model", self.path("model.json"),
                              "--log", self.path("running.csv"), "--out", out])
        elapsed = clock() - start
        data = Path(out).read_bytes() if code == 0 else b""
        rows = list(csv.reader(io.StringIO(data.decode())))[1:]
        problem = None
        if code != 0:
            problem = f"exit code {code}"
        elif [r[0] for r in rows] != [t.case_id for t in self.running]:
            problem = f"{len(rows)} rows for {len(self.running)} running traces"
        elif any(r[1] not in self.vocab.labels for r in rows):
            problem = "a prediction is not a vocabulary label"
        else:
            problem = self._same_digest("predict_cli", data)
        self._op("xnap predict", problem)
        self._cli_predictions = rows
        return len(self.running), elapsed

    def predict_latency(self, calls: int) -> list[float]:
        """``calls`` library predictions, one running trace each."""
        out = []
        for _ in range(calls):
            i = self._predict_cursor % len(self.running)
            self._predict_cursor += 1
            start = clock()
            sample = xnap.encode_running_trace(self.running[i], self.vocab, self.m)
            index, probs = xnap.predict(self.model, sample)
            elapsed = clock() - start
            out.append(elapsed)
            if self._op("predict", None if 0 <= index < self.vocab.size
                        else f"class index {index} out of range"):
                self._library_predictions.setdefault(
                    i, (self.vocab.label_of(index), f"{float(probs[index]):.6f}"))
        return out

    def explain_cli(self) -> tuple[int, float]:
        """``xnap explain --render json`` over whole held-out cases; work in prefixes."""
        out = self.path("explain.jsonl")
        start = clock()
        code = xnap.cli.main(["explain", "--model", self.path("model.json"),
                              "--log", self.path("explain.csv"), "--render", "json",
                              "--min-prefix", "2", "--out", out])
        elapsed = clock() - start
        data = Path(out).read_bytes() if code == 0 else b""
        rows = [json.loads(line) for line in data.decode().splitlines()]
        expected = [(p.case_id, len(p)) for p in self.explain_prefixes]
        problem = None
        if code != 0:
            problem = f"exit code {code}"
        elif [(r["case_id"], len(r["prefix"])) for r in rows] != expected:
            problem = f"{len(rows)} rows, expected {len(expected)}"
        elif any(len(r["raw_relevance"]) != len(r["prefix"]) for r in rows):
            problem = "a relevance vector does not match its prefix length"
        elif any(r["target_class"] not in self.vocab.labels for r in rows):
            problem = "a prediction is not a vocabulary label"
        else:
            problem = self._same_digest("explain_cli", data)
        self._op("xnap explain", problem)
        return len(expected), elapsed

    def explain_latency(self, calls: int) -> list[float]:
        """``calls`` library explanations, one prefix each."""
        out = []
        for _ in range(calls):
            i = self._explain_cursor % len(self.explain_prefixes)
            self._explain_cursor += 1
            sample = self._explain_samples.get(i)
            if sample is None:
                sample = xnap.encode_running_trace(self.explain_prefixes[i], self.vocab, self.m)
                self._explain_samples[i] = sample
            start = clock()
            result = xnap.explain(self.model, sample)
            elapsed = clock() - start
            out.append(elapsed)
            self._op("explain", None if len(result.raw) == len(self.explain_prefixes[i])
                     else "relevance length differs from the prefix length")
        return out

    def cv(self) -> tuple[int, float]:
        """``xnap evaluate`` with 10 folds; work in runs."""
        wl = self.wl
        out = self.path("cv.csv.out")
        start = clock()
        code = xnap.cli.main([
            "evaluate", "--log", self.path("cv.csv"), "--out", out,
            "--folds", str(CV_FOLDS), "--seed", str(self.seed),
            "--hidden", str(wl.hidden), "--epochs", str(wl.cv_epochs),
            "--patience", str(wl.cv_epochs), "--batch-size", str(wl.batch_size),
            "--lr", str(wl.learning_rate)])
        elapsed = clock() - start
        data = Path(out).read_bytes() if code == 0 else b""
        rows = list(csv.reader(io.StringIO(data.decode())))
        problem = None
        if code != 0:
            problem = f"exit code {code}"
        elif [r[0] for r in rows[1:]] != [str(i) for i in range(1, CV_FOLDS + 1)] + ["AVG", "SD"]:
            problem = f"{len(rows)} metric rows"
        else:
            problem = self._same_digest("cv", data)
        self._op("xnap evaluate", problem)
        self._cv_rows = rows
        return 1, elapsed

    # --- checks after the measured phases ------------------------------------

    def final_checks(self) -> dict[str, tuple[float, str]]:
        """Agreement, conservation and quality checks; returns the quality
        numbers as name -> (value, unit)."""
        quality = {}
        cli_rows = self._cli_predictions or []
        missing = len(self.running) - len(self._library_predictions)
        if missing > 0:
            self._predict_cursor = 0
            self.predict_latency(len(self.running))
        for i, row in enumerate(cli_rows):
            library = self._library_predictions.get(i)
            self._op("predict agreement", None if library == (row[1], row[2]) else
                     f"{row[0]}: xnap predict {row[1:]} vs library {library}")

        rng = np.random.default_rng([self.seed, 2])
        picks = rng.choice(len(self.explain_prefixes),
                           size=min(CONSERVATION_SAMPLES, len(self.explain_prefixes)),
                           replace=False)
        conserving = xnap.LrpConfig(delta=1.0)
        for i in sorted(int(p) for p in picks):
            self.guarded("conservation", lambda i=i: self._check_conservation(i, conserving))

        if self.wl.accuracy_from == "cv":
            avg = [r for r in self._cv_rows or [] if r and r[0] == "AVG"]
            accuracy = float(avg[0][1]) if avg else 0.0
        else:
            hits = sum(row[1] == truth for row, truth in zip(cli_rows, self.truths))
            accuracy = hits / len(self.truths)
        quality["accuracy"] = (accuracy, "ratio")
        if self.wl.key_position is not None:
            quality.update(self._key_quality())
        return quality

    def _check_conservation(self, i: int, config) -> None:
        sample = xnap.encode_running_trace(self.explain_prefixes[i], self.vocab, self.m)
        res = xnap.explain(self.model, sample, config)
        total = float(res.raw.sum()) + res.initial_state_relevance
        problem = None
        if abs(total - res.model_output) > CONSERVATION_RTOL * abs(res.model_output):
            problem = (f"{sample.case_id}[:{sample.true_length}] relevance sums to "
                       f"{total:.6g}, model output {res.model_output:.6g}")
        elif res.gate_relevance != 0.0:
            problem = f"gate relevance {res.gate_relevance}"
        self._op("conservation", problem)

    def _key_quality(self) -> dict:
        """Copy task: is the key the most relevant event, and does occluding
        the most relevant event hurt more than occluding the least relevant?"""
        cut, key = self.wl.decision_length, self.wl.key_position - 1
        correct = key_top = 0
        drops_max, drops_min = [], []
        for trace in self.explain_traces:
            sample = xnap.encode_running_trace(xnap.Trace(trace.case_id, trace.events[:cut]),
                                               self.vocab, self.m)
            index, probs = xnap.predict(self.model, sample)
            res = xnap.explain(self.model, sample)
            self.attempted += 4  # predict, explain and two occluded predicts
            if self.vocab.label_of(index) == trace.events[cut].activity:
                correct += 1
                key_top += int(np.argmax(np.abs(res.raw))) == key
            hi, lo = int(np.argmax(res.raw)), int(np.argmin(res.raw))
            p0 = float(probs[index])
            drops_max.append(p0 - float(xnap.predict(self.model, xnap.occlude_event(sample, hi))[1][index]))
            drops_min.append(p0 - float(xnap.predict(self.model, xnap.occlude_event(sample, lo))[1][index]))
        mean_max, mean_min = float(np.mean(drops_max)), float(np.mean(drops_min))
        return {"key_attribution_rate": (key_top / correct if correct else 0.0, "ratio"),
                "occlusion_ratio": (mean_max / mean_min if mean_min else float("inf"), "ratio"),
                "occlusion_drop_max": (mean_max, "probability"),
                "occlusion_drop_min": (mean_min, "probability"),
                "decision_prefixes": (float(len(drops_max)), "count")}

    # --- description ---------------------------------------------------------

    def describe(self) -> dict:
        """Measured properties of the workload's inputs."""
        wl = self.wl
        lengths = np.asarray([k for t in self.log if len(t) >= 2 for k in range(1, len(t) + 1)])
        train_lengths = self.train_lengths
        order = np.random.default_rng([self.seed, 3]).permutation(len(train_lengths))
        batches = [train_lengths[order[s:s + wl.batch_size]]
                   for s in range(0, len(order), wl.batch_size)]
        return {
            "traces": len(self.log), "prefixes": int(lengths.size),
            "prefix_length": {"min": int(lengths.min()), "p50": float(np.median(lengths)),
                              "p90": float(np.percentile(lengths, 90)),
                              "max": int(lengths.max())},
            "M": self.m, "H": self.vocab.size, "D": wl.hidden,
            "batch_size": wl.batch_size, "epochs": wl.epochs,
            "learning_rate": wl.learning_rate,
            "train_prefixes": len(self.train_set), "val_prefixes": len(self.val_set),
            "held_out_prefixes": len(self.held_set),
            "running_traces": len(self.running),
            "explained_prefixes": len(self.explain_prefixes),
            "cv_traces": self.cv_traces,
            "buckets_per_batch": float(np.mean([len(set(b.tolist())) for b in batches])),
            "padded_to_M_ratio": self.m * train_lengths.size / float(train_lengths.sum()),
            "padded_to_batch_max_ratio": sum(b.max() * b.size for b in batches)
            / float(train_lengths.sum()),
            "dataset_mb_computed": _array_mb(self.train_set) + _array_mb(self.val_set)
            + _array_mb(self.held_set),
        }
