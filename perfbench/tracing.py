"""Spans around xnap's public functions, recorded from outside the package.

The tracer swaps each traced function for a wrapper at every place it is
bound: the defining module, every ``xnap`` module that imported it by
name, and the ``xnap`` package namespace. Methods are swapped on their
class. Nothing under ``src/`` changes, and a traced name that no longer
exists is reported as absent instead of failing the run.

Boundary functions get one span per call (name, start, end, parent id,
optional tag and work counts). Functions called hundreds of thousands of times
per run (the ``tensorcore`` activations, ``lrp.lrp_linear``) only get a
call count and a time total, so tracing does not dominate their cost.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# name -> None, or callable(args, result) giving the span's work counts.
SPAN_TARGETS = {
    "eventlog.parse_log": lambda args, res: {"events": res.n_events()},
    "encoding.assemble_dataset": lambda args, res: {"prefixes": len(res)},
    "encoding.encode_running_trace": None,
    "bilstm.train": lambda args, res: {"prefix_epochs": len(args[0]) * len(res[1]),
                                       "epochs_run": len(res[1])},
    "bilstm.Nadam.step": None,
    "bilstm.predict": None,
    "bilstm.forward": None,
    "bilstm.load_model": None,
    "bilstm.save_model": None,
    "lrp.explain": None,
    "evaluation.run_cv": None,
    "evaluation.evaluate_model": None,
    "cli.main": None,
}
HOT_TARGETS = (
    "tensorcore.sigmoid",
    "tensorcore.tanh_",
    "tensorcore.softmax",
    "lrp.lrp_linear",
)


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, tag, counts]
        self.hot: dict[str, list] = {name: [0, 0.0] for name in HOT_TARGETS}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        for name, counts_of in SPAN_TARGETS.items():
            self._swap(name, lambda fn, n=name, s=counts_of: self._span_wrapper(n, fn, s))
        for name in HOT_TARGETS:
            self._swap(name, lambda fn, n=name: self._hot_wrapper(n, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _swap(self, name: str, make_wrapper) -> None:
        module_name, *path = name.split(".")
        try:
            owner = importlib.import_module(f"xnap.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
        except (ImportError, AttributeError):
            self.absent.append(name)
            return
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._set(owner, path[-1], wrapper)
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "xnap" and not mod_name.startswith("xnap."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span_wrapper(self, name: str, fn, counts_of):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None, None]
            if name == "cli.main" and args and args[0]:
                span[4] = args[0][0]  # the subcommand
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if counts_of is not None:
                try:
                    span[5] = counts_of(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass
            return result
        return wrapper

    def _hot_wrapper(self, name: str, fn):
        totals = self.hot[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[0] += 1
                totals[1] += clock() - start
        return wrapper

    # --- reading -------------------------------------------------------------

    def dump(self) -> dict:
        return {"fields": ["name", "parent", "start", "end", "tag", "counts"],
                "spans": self.spans, "hot": self.hot, "absent": self.absent}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from one traced round: name -> (value, unit).

    Time totals cover every call in the round; ``*.self_s`` subtracts the
    time covered by direct child spans. Names whose function is absent
    read 0.
    """
    spans = tracer.spans
    by_name: dict[str, list[int]] = {}
    child_time = [0.0] * len(spans)
    for i, (name, parent, start, end, _, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            child_time[parent] += end - start

    def dur(i):
        return spans[i][3] - spans[i][2]

    def calls(name):
        return float(len(by_name.get(name, ())))

    def total(name, under=None):
        return float(sum(dur(i) for i in by_name.get(name, ())
                         if under is None or _has_ancestor(spans, i, under)))

    def p50_us(name):
        ids = by_name.get(name)
        return statistics.median(dur(i) for i in ids) * 1e6 if ids else 0.0

    def count(name, key):
        return float(sum((spans[i][5] or {}).get(key, 0) for i in by_name.get(name, ())))

    def self_time(name):
        return float(sum(dur(i) - child_time[i] for i in by_name.get(name, ())))

    hot = tracer.hot
    train_s = total("bilstm.train")
    prefix_epochs = count("bilstm.train", "prefix_epochs")
    nadam_s = total("bilstm.Nadam.step")
    out = {
        "eventlog.parse_log.s": (total("eventlog.parse_log"), "s"),
        "eventlog.parse_log.events": (count("eventlog.parse_log", "events"), "count"),
        "encoding.assemble_dataset.s": (total("encoding.assemble_dataset"), "s"),
        "encoding.assemble_dataset.calls": (calls("encoding.assemble_dataset"), "count"),
        "encoding.encode_running_trace.calls": (calls("encoding.encode_running_trace"), "count"),
        "encoding.encode_running_trace.p50_us": (p50_us("encoding.encode_running_trace"), "us"),
        "bilstm.train.s": (train_s, "s"),
        "bilstm.train.prefix_epochs": (prefix_epochs, "count"),
        "bilstm.train.epochs_run": (count("bilstm.train", "epochs_run"), "count"),
        "bilstm.train.us_per_prefix_epoch": (
            train_s / prefix_epochs * 1e6 if prefix_epochs else 0.0, "us"),
        "bilstm.Nadam.step.calls": (calls("bilstm.Nadam.step"), "count"),
        "bilstm.Nadam.step.s": (nadam_s, "s"),
        "bilstm.Nadam.step.share_of_train": (nadam_s / train_s if train_s else 0.0, "ratio"),
        "bilstm.predict.calls": (calls("bilstm.predict"), "count"),
        "bilstm.predict.p50_us": (p50_us("bilstm.predict"), "us"),
        "bilstm.forward.calls": (calls("bilstm.forward"), "count"),
        "bilstm.forward.s": (total("bilstm.forward"), "s"),
        "bilstm.load_model.s": (total("bilstm.load_model"), "s"),
        "bilstm.save_model.s": (total("bilstm.save_model"), "s"),
        "tensorcore.sigmoid.calls": (float(hot["tensorcore.sigmoid"][0]), "count"),
        "tensorcore.tanh_.calls": (float(hot["tensorcore.tanh_"][0]), "count"),
        "tensorcore.softmax.calls": (float(hot["tensorcore.softmax"][0]), "count"),
        "tensorcore.s": (sum(hot[n][1] for n in hot if n.startswith("tensorcore.")), "s"),
        "lrp.explain.calls": (calls("lrp.explain"), "count"),
        "lrp.explain.p50_us": (p50_us("lrp.explain"), "us"),
        "lrp.explain.self_s": (self_time("lrp.explain"), "s"),
        "lrp.lrp_linear.calls": (float(hot["lrp.lrp_linear"][0]), "count"),
        "evaluation.run_cv.s": (total("evaluation.run_cv"), "s"),
        "evaluation.train.s": (total("bilstm.train", under="evaluation.run_cv"), "s"),
        "evaluation.evaluate_model.s": (total("evaluation.evaluate_model"), "s"),
        "evaluation.assemble_dataset.s": (
            total("encoding.assemble_dataset", under="evaluation.run_cv"), "s"),
        "cli.self_s": (self_time("cli.main"), "s"),
    }
    for sub in ("predict", "explain", "evaluate"):
        out[f"cli.main.{sub}.s"] = (float(sum(
            dur(i) for i in by_name.get("cli.main", ()) if spans[i][4] == sub)), "s")
    return out


def _has_ancestor(spans: list[list], i: int, name: str) -> bool:
    parent = spans[i][1]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False
