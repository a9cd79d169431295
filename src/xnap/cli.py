"""Command-line frontend: ingestion, training, prediction, explanation,
evaluation and synthetic-log generation.

Exit codes follow the error types: 0 ok, 2 I/O, usage or ``InputError``,
3 ``DomainError`` (e.g. trace too short), 4 any other ``XnapError``, an
internal invariant violation.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import html
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .bilstm import TrainConfig, load_model, predict_many, save_model, train
from .encoding import (
    END_SYMBOL,
    PrefixSample,
    assemble_dataset,
    build_vocabulary,
    encode_running_trace,
    max_augmented_length,
)
from .errors import (
    DomainError,
    EmptyLog,
    InputError,
    TraceTooShort,
    UnknownActivity,
    XnapError,
)
from .eventlog import (EventLog, LogFormat, Trace, _trusted, compute_stats, filter_log,
                       parse_log, serialize_log)
from .evaluation import run_cv, shuffle_cases, split_validation
from .lrp import LrpConfig, RelevanceTrace, explain_many
from .synthlog import copy_task, generate, linear_grammar

class UsageError(Exception):
    """An option value the command cannot run with (exit 2)."""


def _configured(build, **options):
    """``build(**options)``, a config whose ValueError names an option
    value out of its range."""
    try:
        return build(**options)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _log_format(args) -> LogFormat:
    return _configured(LogFormat, case_col=args.case_col, activity_col=args.activity_col,
                       time_col=args.time_col, timestamp_format=args.time_format,
                       delimiter=args.delimiter)


def _load_log(args) -> EventLog:
    log = parse_log(args.log, _log_format(args))
    if args.max_trace_len is not None or args.sample_fraction != 1.0:
        try:
            log = filter_log(log, max_trace_len=args.max_trace_len,
                             sample_fraction=args.sample_fraction, seed=args.seed)
        except ValueError as exc:
            raise UsageError(f"--sample-fraction: {exc}") from None
        if len(log) == 0:
            raise EmptyLog("no traces left after filtering")
    return log


@contextlib.contextmanager
def _output(path: str | None):
    """The ``--out`` file, closed on leaving, or stdout when there is none."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as f:
        yield f


# --- rendering ---------------------------------------------------------------

def relevance_color(d: float) -> tuple[int, int, int]:
    """Diverging blue-white-red: 0.0 -> #0000FF, 0.5 -> #FFFFFF, 1.0 -> #FF0000."""
    d = min(max(d, 0.0), 1.0)
    if d >= 0.5:
        fade = round(255 * (1.0 - (d - 0.5) / 0.5))
        return (255, fade, fade)
    fade = round(255 * (1.0 - (0.5 - d) / 0.5))
    return (fade, fade, 255)


def _hex_color(d: float) -> str:
    r, g, b = relevance_color(d)
    return f"#{r:02X}{g:02X}{b:02X}"


def _encode_or_skip(trace: Trace, model) -> PrefixSample | None:
    """The trace as one running sample at its own length, or None with a
    warning on stderr when it is too short to predict on or holds an
    activity the model does not know. The batches crop every sample to its
    true events, so the model's ``max_len`` sizes nothing here."""
    try:
        return encode_running_trace(trace, model.vocab, len(trace))
    except TraceTooShort:
        print(f"case {trace.case_id}: trace too short to predict on "
              f"({len(trace)} event)", file=sys.stderr)
    except UnknownActivity as exc:
        print(f"case {trace.case_id}: skipped, activity {exc.activity!r} "
              f"is not in the model's vocabulary", file=sys.stderr)
    return None


def _prefix_samples(model, trace: Trace, min_prefix: int,
                    max_prefix: int | None) -> list[PrefixSample] | None:
    """One sample per prefix length in range, shortest first; None when
    the range is empty or the longest prefix cannot be encoded."""
    top = len(trace) if max_prefix is None else min(len(trace), max_prefix)
    if top < min_prefix:
        print(f"case {trace.case_id}: skipped, {len(trace)} events, no prefix length "
              f"in [{min_prefix}, {top if max_prefix is None else max_prefix}]",
              file=sys.stderr)
        return None
    full = _encode_or_skip(_trusted(Trace)(trace.case_id, trace.events[:top]), model)
    return None if full is None else [full.prefix(length) for length in range(min_prefix, top + 1)]


def _explained_rows(model, trace: Trace, samples: list[PrefixSample],
                    results: list[RelevanceTrace]) -> list[dict]:
    """One row per explained prefix of a trace, for the renderers; a prefix
    whose explanation is not finite is skipped with a warning on stderr."""
    rows = []
    for sample, result in zip(samples, results):
        length = sample.true_length
        # The residual sums raw, model_output, the initial-state share and
        # the absorbed bias, so it is finite only when all of them are.
        residual = result.conservation_residual
        if not math.isfinite(residual):
            print(f"case {trace.case_id}: prefix length {length} skipped, its "
                  f"explanation is not finite", file=sys.stderr)
            continue
        truth = trace.events[length].activity if length < len(trace) else END_SYMBOL
        rows.append({
            "length": length,
            "prefix": list(trace.activities[:length]),
            "result": result,
            "residual": residual,
            "predicted": model.vocab.label_of(result.target_class),
            "ground_truth": truth,
        })
    return rows


def _relevance_json(row: dict) -> str:
    r: RelevanceTrace = row["result"]
    return json.dumps({
        "case_id": r.case_id,
        "prefix": row["prefix"],
        "target_class": row["predicted"],
        "target_prob": r.target_prob,
        "raw_relevance": r.raw.tolist(),
        "display": r.display.tolist(),
        "model_output": r.model_output,
        "bias_absorbed": r.bias_absorbed,
        "initial_state_relevance": r.initial_state_relevance,
        "conservation_residual": row["residual"],
    })


def _render_ansi(rows: list[dict], trace: Trace, out) -> None:
    out.write(f"case {trace.case_id} ({len(trace)} events)\n")
    for row in rows:
        cells = []
        for label, d in zip(row["prefix"], row["result"].display):
            r, g, b = relevance_color(float(d))
            cells.append(f"\x1b[48;2;{r};{g};{b}m\x1b[30m {label} \x1b[0m")
        out.write(f"  k={row['length']:<3d} {' '.join(cells)}  "
                  f"-> {row['predicted']} (p={row['result'].target_prob:.3f}, "
                  f"truth: {row['ground_truth']})\n")


def _render_html(per_trace: list[tuple[Trace, list[dict]]], out) -> None:
    # Case ids and activity labels come from the log: escape them as text.
    out.write("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
              "<title>activity relevance</title>\n<style>\n"
              "table{border-collapse:collapse;margin:1em 0;}\n"
              "td,th{border:1px solid #999;padding:4px 8px;font-family:monospace;}\n"
              "</style></head><body>\n")
    for trace, rows in per_trace:
        width = max(row["length"] for row in rows)
        out.write(f"<h2>case {html.escape(trace.case_id)}</h2>\n<table>\n<tr><th>prefix</th>")
        for i in range(1, width + 1):
            out.write(f"<th>t{i}</th>")
        out.write("<th>predicted</th><th>ground truth</th></tr>\n")
        for row in rows:
            out.write(f"<tr><td>k={row['length']}</td>")
            for label, raw, d in zip(row["prefix"], row["result"].raw,
                                     row["result"].display):
                out.write(f'<td style="background:{_hex_color(float(d))}" '
                          f'title="{float(raw):.6g}">{html.escape(label)}</td>')
            for _ in range(width - row["length"]):
                out.write("<td></td>")
            out.write(f"<td>{html.escape(row['predicted'])} "
                      f"(p={row['result'].target_prob:.3f})</td>"
                      f"<td>{html.escape(row['ground_truth'])}</td></tr>\n")
        out.write("</table>\n")
    out.write("</body></html>\n")


# --- subcommands --------------------------------------------------------------

def cmd_stats(args) -> int:
    stats = compute_stats(_load_log(args))
    headers = ["# instances", "# variants", "# events", "# activities",
               "events/instance", "activities/instance"]

    def spread(t):
        mean = f"{t[2]:.1f}"
        med = f"{t[3]:g}"
        return f"[{t[0]};{t[1]};{mean};{med}]"

    values = [str(stats.n_instances), str(stats.n_variants), str(stats.n_events),
              str(stats.n_activities), spread(stats.events_per_instance),
              spread(stats.activities_per_instance)]
    widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("  ".join(v.ljust(w) for v, w in zip(values, widths)))
    return 0


def cmd_synth(args) -> int:
    if args.grammar == "linear":
        spec = linear_grammar(args.activities.split(","), args.traces, args.seed)
    else:
        spec = copy_task(args.traces, args.seed,
                         key_choices=args.keys.split(","),
                         key_targets=args.targets.split(","),
                         key_position=args.key_position,
                         key_distance=args.distance,
                         fillers=args.fillers.split(","))
    log = generate(spec)
    serialize_log(log, args.out)
    print(f"wrote {len(log)} traces ({log.n_events()} events) to {args.out}")
    return 0


def _train_config(args) -> TrainConfig:
    return _configured(TrainConfig, hidden_size=args.hidden, dropout_rate=args.dropout,
                       batch_size=args.batch_size, max_epochs=args.epochs,
                       patience=args.patience, learning_rate=args.lr, seed=args.seed)


def cmd_train(args) -> int:
    config = _train_config(args)
    if not 0 < args.val_fraction < 1:
        raise UsageError(f"--val-fraction must lie in (0, 1), got {args.val_fraction}")
    log = _load_log(args)
    vocab = build_vocabulary(log)
    m = max_augmented_length(log)
    train_cases, val_cases = split_validation(shuffle_cases(log, args.seed),
                                              args.val_fraction)
    train_set = assemble_dataset(log.select_cases(train_cases), vocab, m)
    val_set = assemble_dataset(log.select_cases(val_cases), vocab, m)
    model, history = train(train_set, val_set, config)
    save_model(model, args.out)
    history_path = args.history or f"{args.out}.history.csv"
    with open(history_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["epoch", "train_loss", "train_accuracy",
                         "val_loss", "val_accuracy"])
        for s in history:
            writer.writerow([s.epoch, f"{s.train_loss:.6f}", f"{s.train_accuracy:.6f}",
                             f"{s.val_loss:.6f}", f"{s.val_accuracy:.6f}"])
    best = model.hyperparams.get("best_epoch")
    print(f"trained {model.trained_epochs} epochs (best validation at epoch {best}); "
          f"model -> {args.out}, history -> {history_path}")
    return 0


def cmd_predict(args) -> int:
    fmt = _log_format(args)
    model = load_model(args.model)
    log = parse_log(args.log, fmt)
    traces = [log.trace_by_case(args.case)] if args.case else list(log)
    samples = []
    for trace in traces:
        sample = _encode_or_skip(trace, model)
        if sample is not None:
            samples.append(sample)
    if not samples:
        raise TraceTooShort("no trace could be predicted on")
    probs = predict_many(model, samples)
    best = probs.argmax(axis=1)  # ties break toward the lowest index
    with _output(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["case", "predicted", "probability"])
        for sample, row, idx in zip(samples, probs, best):
            writer.writerow([sample.case_id, model.vocab.label_of(idx),
                             f"{float(row[idx]):.6f}"])
    return 0


def cmd_explain(args) -> int:
    fmt = _log_format(args)
    model = load_model(args.model)
    if args.target_class is not None and args.target_class not in model.vocab.labels:
        raise UsageError(f"--target-class {args.target_class!r} is not an activity "
                         f"the model knows")
    config = _configured(
        LrpConfig, epsilon=args.epsilon, delta=args.delta,
        target=None if args.target_class is None
        else model.vocab.index_of(args.target_class))
    log = parse_log(args.log, fmt)
    traces = [log.trace_by_case(args.case)] if args.case else list(log)
    jobs = []
    for trace in traces:
        samples = _prefix_samples(model, trace, args.min_prefix, args.max_prefix)
        if samples is not None:
            jobs.append((trace, samples))
    if not jobs:
        raise TraceTooShort("no trace fits the requested prefix range")
    results = iter(explain_many(model, [s for _, samples in jobs for s in samples],
                                config))
    with np.errstate(over="ignore", invalid="ignore"):  # a residual's sum may overflow
        per_trace = [(trace, _explained_rows(model, trace, samples,
                                             [next(results) for _ in samples]))
                     for trace, samples in jobs]
    per_trace = [(trace, rows) for trace, rows in per_trace if rows]
    if not per_trace:
        raise DomainError("no prefix has a finite explanation")
    with _output(args.out) as out:
        if args.render == "json":
            for _, rows in per_trace:
                for row in rows:
                    out.write(_relevance_json(row) + "\n")
        elif args.render == "html":
            _render_html(per_trace, out)
        else:
            for trace, rows in per_trace:
                _render_ansi(rows, trace, out)
    return 0


def cmd_evaluate(args) -> int:
    config = _train_config(args)
    if args.folds < 2:
        raise UsageError(f"--folds must be >= 2, got {args.folds}")
    log = _load_log(args)
    result = run_cv(log, config, k=args.folds, seed=args.seed)
    with _output(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["fold", "accuracy", "precision", "recall", "f1"])
        for i, row in enumerate(result.report.rows, start=1):
            writer.writerow([i, f"{row.accuracy:.6f}", f"{row.precision:.6f}",
                             f"{row.recall:.6f}", f"{row.f1:.6f}"])
        report = result.report
        writer.writerow(["AVG"] + [f"{report.mean(n):.6f}"
                                   for n in ("accuracy", "precision", "recall", "f1")])
        writer.writerow(["SD"] + [f"{report.std(n):.6f}"
                                  for n in ("accuracy", "precision", "recall", "f1")])
    if args.save_best_model:
        save_model(result.best_model, args.save_best_model)
        print(f"best model (fold {result.best_fold + 1}) -> {args.save_best_model}",
              file=sys.stderr)
    return 0


# --- parser -------------------------------------------------------------------

def _add_log_columns(p: argparse.ArgumentParser) -> None:
    p.add_argument("--case-col", default="case")
    p.add_argument("--activity-col", default="activity")
    p.add_argument("--time-col", default="timestamp")
    p.add_argument("--time-format", default=None,
                   help="strptime format; default accepts ISO-8601")
    p.add_argument("--delimiter", default=",")


def _add_filters(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-trace-len", type=int, default=None,
                   help="drop traces with more events than this")
    p.add_argument("--sample-fraction", type=float, default=1.0,
                   help="keep a seeded random fraction of traces")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hidden", type=int, default=100)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--dropout", type=float, default=0.2)
    p.add_argument("--lr", type=float, default=0.002)


def _prefix_length(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(
            f"{value} is too short: a prediction needs at least 2 events")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``xnap`` parser, built on the first call and shared after it:
    ``parse_args`` keeps no state between calls, and each call returns a
    fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="xnap",
        description="Next-activity prediction on event logs with per-event "
                    "relevance explanations.")
    parser.add_argument("--version", action="version", version=f"xnap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="summarize an event log")
    p.add_argument("--log", required=True)
    p.add_argument("--seed", type=int, default=42)
    _add_log_columns(p)
    _add_filters(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("synth", help="generate a synthetic event log")
    p.add_argument("--out", required=True)
    p.add_argument("--grammar", choices=["linear", "copy"], default="linear")
    p.add_argument("--traces", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--activities", default="A,B,C")
    p.add_argument("--keys", default="X,Y")
    p.add_argument("--targets", default="P,Q")
    p.add_argument("--key-position", type=int, default=1)
    p.add_argument("--distance", type=int, default=3)
    p.add_argument("--fillers", default="F1,F2")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on an event log")
    p.add_argument("--log", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--history", default=None, help="per-epoch history CSV")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--val-fraction", type=float, default=0.1)
    _add_log_columns(p)
    _add_filters(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict the next activity of running traces")
    p.add_argument("--model", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--case", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=42,
                   help="accepted and ignored: predict draws no random numbers")
    _add_log_columns(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("explain", help="explain predictions with a relevance heatmap")
    p.add_argument("--model", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--case", default=None)
    p.add_argument("--min-prefix", type=_prefix_length, default=3,
                   help="shortest prefix to explain (at least 2)")
    p.add_argument("--max-prefix", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=0.001)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--target-class", default=None,
                   help="explain this activity instead of the prediction")
    p.add_argument("--render", choices=["html", "ansi", "json"], default="ansi")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=42,
                   help="accepted and ignored: explain draws no random numbers")
    _add_log_columns(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("evaluate", help="cross-validate predictive quality")
    p.add_argument("--log", required=True)
    p.add_argument("--out", default=None, help="metrics CSV")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--save-best-model", default=None)
    _add_log_columns(p)
    _add_filters(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream pager/head closed the pipe; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (UsageError, OSError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except XnapError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
