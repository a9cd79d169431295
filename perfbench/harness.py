"""Measuring one workload in this process: the untraced and traced runs,
the environment record and the printed report."""
from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_metrics
from workloads import MIN_UNITS, PHASES, WORKLOADS, ClosedLoop

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
# The calibration loop's time on an uncontended core of the 2-vCPU Intel
# Xeon host the benchmark was tuned on (fastest of 3000 runs).
CALIBRATION_REF_S = 0.0018
LATENCY_BLOCK = 200  # calls per latency unit
TRACE_LATENCY_CALLS = 200

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_prefixes_per_s": "prefix-epochs/s",
    "predict_prefixes_per_s": "traces/s",
    "predict_p50_ms": "ms",
    "explain_prefixes_per_s": "prefixes/s",
    "explain_p50_ms": "ms",
    "cv_s": "s",
    "peak_rss_mb": "MB",
}

clock = time.perf_counter


# --- environment -----------------------------------------------------------------

def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": _commit()}


# --- measuring ---------------------------------------------------------------------

def _settle() -> None:
    """Collect garbage and move everything alive to the permanent
    generation, so the benchmark's own state is never rescanned and no
    unit pays for garbage an earlier one left behind."""
    gc.collect()
    gc.freeze()


_RNG = np.random.default_rng(0)
_CAL_SQUARE = _RNG.random((32, 32))
_CAL_GATES = _RNG.random((64, 16))
_CAL_INPUT = _RNG.random(16)


def _calibration_s() -> float:
    """Best of two runs of a fixed loop of interpreter work and small numpy
    calls, the mix xnap's per-call code runs. Its time tracks how much
    the host is slowing this process down at the moment."""
    best = float("inf")
    for _ in range(2):
        start = clock()
        acc = 0
        for i in range(5000):
            acc += i * i
        for _ in range(50):
            np.tanh(_CAL_SQUARE @ _CAL_SQUARE)
        rows = []
        for i in range(150):
            x = np.zeros((5, 7))
            x[i % 5, i % 7] = 1.0
            z = _CAL_GATES @ _CAL_INPUT
            gates = 1.0 / (1.0 + np.exp(-z[:48]))
            rows.append((i, float(gates.sum() + np.tanh(z[48:]).sum()), {"i": i}))
        best = min(best, clock() - start)
    return best


def _timed(fn):
    """Run ``fn`` between two calibrations. Returns its result, its wall
    seconds and the host's slowdown factor against ``CALIBRATION_REF_S``."""
    before = _calibration_s()
    gc.collect()
    start = clock()
    result = fn()
    elapsed = clock() - start
    return result, elapsed, (before + _calibration_s()) / 2 / CALIBRATION_REF_S


def _units(loop, phase: str, latency_calls: int):
    """The callable for one unit of ``phase``."""
    if phase == "predict_latency":
        return lambda: loop.predict_latency(latency_calls)
    if phase == "explain_latency":
        return lambda: loop.explain_latency(latency_calls)
    return getattr(loop, phase)


def measure(loop, seconds: float) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics as name -> (value, unit).

    Set-up runs ``SETUP_REPEATS`` times. Then the phases take turns, one
    unit each, so every phase samples the whole run. A phase stops once it
    has its minimum units and its next unit would overrun its share of
    ``seconds``, or as soon as a unit fails. Every wall time is divided by
    the host's slowdown factor measured around its unit.
    """
    wall = {phase: [] for phase in ("setup",) + PHASES}  # seconds per unit or call
    factors = {phase: [] for phase in wall}
    work = {}
    for _ in range(SETUP_REPEATS):
        _, elapsed, factor = _timed(loop.setup)
        wall["setup"].append(elapsed)
        factors["setup"].append(factor)
    _settle()
    used = dict.fromkeys(PHASES, 0.0)
    active = list(PHASES)
    while active:
        for phase in list(active):
            failures = len(loop.failures)
            value, _, factor = _timed(lambda: loop.guarded(phase, _units(loop, phase, LATENCY_BLOCK)))
            if value is None or len(loop.failures) > failures:
                active.remove(phase)
                continue
            times = value if phase.endswith("_latency") else [value[1]]
            if not phase.endswith("_latency"):
                work[phase] = value[0]
            wall[phase] += times
            factors[phase] += [factor] * len(times)
            used[phase] += sum(times)
            units = len(wall[phase]) // (LATENCY_BLOCK if phase.endswith("_latency") else 1)
            if units >= MIN_UNITS[phase] and used[phase] + sum(times) > seconds * loop.wl.shares[phase]:
                active.remove(phase)
    quality = loop.guarded("final checks", loop.final_checks) or {}

    def summary(times: dict[str, list[float]]) -> dict[str, float]:
        def median(phase):
            return statistics.median(times[phase]) if times[phase] else 0.0

        def rate(phase):
            return work[phase] / median(phase) if times[phase] else 0.0

        def ms(phase, q):
            return float(np.percentile(times[phase], q)) * 1e3 if times[phase] else 0.0

        return {
            "setup_s": median("setup"),
            "train_prefixes_per_s": rate("train"),
            "predict_prefixes_per_s": rate("predict_cli"),
            "predict_p50_ms": ms("predict_latency", 50),
            "predict_p99_ms": ms("predict_latency", 99),
            "explain_prefixes_per_s": rate("explain_cli"),
            "explain_p50_ms": ms("explain_latency", 50),
            "explain_p99_ms": ms("explain_latency", 99),
            "cv_s": median("cv"),
        }

    normalized = summary({p: [t / f for t, f in zip(wall[p], factors[p])] for p in wall})
    raw = summary(wall)
    metrics = {k: normalized[k] for k in END_TO_END_UNITS if k in normalized}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reported = {"predict_p99_ms": (normalized["predict_p99_ms"], "ms"),
                "explain_p99_ms": (normalized["explain_p99_ms"], "ms"),
                "predict_calls": (float(len(wall["predict_latency"])), "count"),
                "explain_calls": (float(len(wall["explain_latency"])), "count"),
                "host_slowdown": (statistics.median(f for fs in factors.values() for f in fs),
                                  "ratio"),
                **quality,
                **{f"wall.{k}": (v, END_TO_END_UNITS.get(k, "ms")) for k, v in raw.items()}}
    extras = {"reported": reported, "wall_s": wall, "slowdown": factors}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, extras


def _round(loop) -> float:
    """Set-up plus one unit of every phase; wall seconds over the host's
    slowdown factor."""
    def run():
        loop.guarded("setup", loop.setup)
        for phase in PHASES:
            loop.guarded(phase, _units(loop, phase, TRACE_LATENCY_CALLS))
    _, elapsed, factor = _timed(run)
    return elapsed / factor


def trace(loop, seconds: float) -> tuple[dict, dict]:
    """Traced run: per-layer metrics as name -> (value, unit).

    A first untraced round warms up and is discarded; then untraced and
    traced rounds alternate while a further pair fits in ``seconds``.
    """
    plain, traced, rounds = [], [], []
    start = clock()
    _round(loop)
    while not traced or clock() - start + plain[-1] + traced[-1] <= seconds:
        plain.append(_round(loop))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(_round(loop))
        finally:
            tracer.uninstall()
        rounds.append(layer_metrics(tracer))
    model_kb = Path(loop.path("model.json")).stat().st_size / 1024
    quality = loop.guarded("final checks", loop.final_checks) or {}
    metrics = {name: (statistics.median(r[name][0] for r in rounds), unit)
               for name, (_, unit) in rounds[0].items()}
    metrics["encoding.dataset_mb"] = (loop.describe()["dataset_mb_computed"], "MB-computed")
    metrics["bilstm.model_file_kb"] = (model_kb, "KB")
    metrics["tracing_overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    extras = {"reported": quality, "plain_round_s": plain, "traced_round_s": traced,
              "absent": tracer.absent, "spans": tracer.dump()}
    return metrics, extras


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        loop = ClosedLoop(WORKLOADS[name], seed, workdir)
        metrics, extras = (trace if traced else measure)(loop, seconds)
        described = loop.describe()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only when no other run is using it
    failed = len(loop.failures)
    record = {"workload": name, "why": WORKLOADS[name].why, "seed": seed,
              "seconds": seconds, "trace": int(traced), "environment": environment(),
              "inputs": described, "digests": loop.digests,
              "attempted": loop.attempted, "failed": failed,
              "error_rate": failed / max(loop.attempted, 1),
              "failures": loop.failures,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **extras}
    record["reported"] = {k: {"value": v, "unit": u} for k, (v, u) in extras["reported"].items()}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record))

    print(f"# workload {name} (seed {seed}, {seconds:g} s, trace {int(traced)}): {record['why']}")
    print(f"# environment: {json.dumps(record['environment'])}")
    print(f"# inputs: {json.dumps(described)}")
    for key, (value, unit) in metrics.items():
        print(f"{name:<10} {key:<40} {value:>14.6g} {unit}")
    for key, (value, unit) in extras["reported"].items():
        print(f"{name:<10} {key:<40} {value:>14.6g} {unit} (not gated)")
    print(f"{name:<10} {'error_rate':<40} {record['error_rate']:>14.6g} ratio "
          f"(not gated; {failed} of {loop.attempted} operations failed)")
    if traced:
        print(f"# traced rounds {len(extras['traced_round_s'])}; absent names: {extras['absent']}")
    print(f"# output digests: {json.dumps(loop.digests)}")
    for failure in loop.failures[:20]:
        print(f"# FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": loop.attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0
