"""Cross-validation protocol and weighted prediction-quality metrics.

Folds partition the log by case so no process instance straddles the
train/validation/test boundary; metrics are support-weighted per-class
averages plus plain accuracy. The folds are independent, so on Linux
they train side by side in forked worker processes.
"""
from __future__ import annotations

import collections
import ctypes
import math
import os
import signal
import sys
from dataclasses import dataclass

import numpy as np

from .bilstm import BiLstmModel, TrainConfig, predict_dataset, train
from .encoding import (
    ActivityVocabulary,
    assemble_dataset,
    build_vocabulary,
    max_augmented_length,
)
from .errors import LengthMismatch, TooFewTraces
from .eventlog import EventLog


@dataclass(frozen=True)
class FoldSplit:
    train_cases: tuple[str, ...]
    val_cases: tuple[str, ...]
    test_cases: tuple[str, ...]


@dataclass(frozen=True)
class FoldPlan:
    folds: tuple[FoldSplit, ...]


@dataclass(frozen=True)
class MetricsRow:
    accuracy: float
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class MetricsReport:
    rows: tuple[MetricsRow, ...]

    def _values(self, name: str) -> np.ndarray:
        return np.asarray([getattr(r, name) for r in self.rows])

    def mean(self, name: str) -> float:
        return float(self._values(name).mean())

    def std(self, name: str) -> float:
        return float(self._values(name).std())  # population SD over folds


@dataclass
class CvResult:
    report: MetricsReport
    best_model: BiLstmModel  # the model of best_fold
    best_fold: int  # highest F1 (the first on ties), for downstream explanation demos


def shuffle_cases(log: EventLog, seed: int) -> list[str]:
    """Seeded instance-level shuffle of the log's case ids."""
    cases = list(log.case_ids)
    order = np.random.default_rng(seed).permutation(len(cases))
    return [cases[i] for i in order]


def split_validation(cases: list[str], fraction: float = 0.1) -> tuple[list[str], list[str]]:
    """Carve the last ``fraction`` (rounded down, at least one) off as validation."""
    if not 0 < fraction < 1:  # NaN fails too
        raise ValueError(f"validation fraction must lie in (0, 1), got {fraction}")
    n_val = max(1, int(len(cases) * fraction))
    return cases[:-n_val], cases[-n_val:]


def make_folds(log: EventLog, k: int = 10, seed: int = 42) -> FoldPlan:
    """Rotating k-fold plan over the shuffled case list.

    Test windows are contiguous chunks of the shuffled order (sizes differ
    by at most one); each fold's validation set is the last 10% of its
    remaining training cases.
    """
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    if len(log) < k:
        raise TooFewTraces(f"{len(log)} traces cannot fill {k} folds")
    shuffled = shuffle_cases(log, seed)
    chunks = [list(c) for c in np.array_split(np.asarray(shuffled, dtype=object), k)]
    folds = []
    for i in range(k):
        test = chunks[i]
        rest = [c for j, chunk in enumerate(chunks) if j != i for c in chunk]
        tr, val = split_validation(rest)
        folds.append(FoldSplit(tuple(tr), tuple(val), tuple(test)))
    return FoldPlan(folds=tuple(folds))


def weighted_metrics(y_true, y_pred, n_classes: int) -> MetricsRow:
    """Accuracy plus support-weighted precision/recall/F1.

    Per-class ratios with zero denominators count as zero; classes with no
    true instances have zero support and do not contribute.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1 or y_true.size == 0:
        raise LengthMismatch(
            f"need equal-length non-empty label vectors, got {y_true.shape} and {y_pred.shape}")
    accuracy = float((y_true == y_pred).mean())
    precision = recall = f1 = 0.0
    total = y_true.size
    for cls in range(n_classes):
        support = int((y_true == cls).sum())
        if support == 0:
            continue
        tp = int(((y_true == cls) & (y_pred == cls)).sum())
        predicted = int((y_pred == cls).sum())
        p = tp / predicted if predicted else 0.0
        r = tp / support
        f = 2 * p * r / (p + r) if (p + r) else 0.0
        weight = support / total
        precision += weight * p
        recall += weight * r
        f1 += weight * f
    return MetricsRow(accuracy=accuracy, precision=precision, recall=recall, f1=f1)


def evaluate_model(model: BiLstmModel, dataset) -> tuple[list[int], list[int]]:
    """True and predicted label indices over every sample of a dataset."""
    y_pred = np.argmax(predict_dataset(model, dataset), axis=1)
    return dataset.label_indices.tolist(), y_pred.tolist()


@dataclass(frozen=True)
class _CvJob:
    """What every fold of one cross-validation run reads."""
    log: EventLog
    plan: FoldPlan
    vocab: ActivityVocabulary
    max_len: int
    config: TrainConfig


def _run_fold(job: _CvJob, i: int, beat: float) -> tuple[MetricsRow, BiLstmModel | None]:
    """Train fold ``i`` of ``job`` and score its model on the fold's test
    cases. The model comes back only if its F1 beats ``beat``, the best F1
    of an earlier fold: else it cannot be kept (the first maximum wins),
    and a worker need not send it."""
    fold = job.plan.folds[i]
    train_set, val_set, test_set = (
        assemble_dataset(job.log.select_cases(cases), job.vocab, job.max_len)
        for cases in (fold.train_cases, fold.val_cases, fold.test_cases))
    model, _ = train(train_set, val_set, job.config)
    y_true, y_pred = evaluate_model(model, test_set)
    row = weighted_metrics(y_true, y_pred, job.vocab.size)
    return row, model if row.f1 > beat else None


def _usable_cpus() -> int:
    """CPUs this process may run on, its affinity mask (Linux only)."""
    return len(os.sched_getaffinity(0))


def _one_blas_thread() -> None:
    """Run the OpenBLAS that numpy loaded, if any, on one thread in this
    process.

    Fold workers fill every usable CPU already. With OpenBLAS threads of
    their own, which wait by spinning, ten markov folds at D=100 ran 3-4
    times slower in two workers than in one process on two CPUs; and the
    BLAS thread count changes a trained model's last bits. The library is
    found among the files this process has mapped; the setter's name
    depends on how OpenBLAS was built.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(maxsplit=5)[-1].rstrip("\n") for line in maps
                     if "openblas" in line.rpartition("/")[2]}
    except OSError:  # no procfs: leave the thread count as it is
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _die_with(parent: int) -> None:
    """Have the kernel kill this process when its parent ``parent`` dies.

    A fold worker otherwise outlives a parent killed by a signal (SIGTERM
    from ``timeout``, say), waiting forever for its next fold.
    """
    libc = ctypes.CDLL(None)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent:  # it died before the request was made
        os._exit(1)


# The job a fold worker serves. Set once, by the pool's initializer, in
# each forked worker process only; the parent never writes it.
_served_job: _CvJob | None = None


def _serve(job: _CvJob, parent: int) -> None:
    global _served_job
    _die_with(parent)
    _served_job = job
    _one_blas_thread()


def _run_served_fold(i: int, beat: float) -> tuple[MetricsRow, BiLstmModel | None]:
    return _run_fold(_served_job, i, beat)


def _forked_folds(job: _CvJob, k: int, workers: int, beat):
    """``_run_fold`` of folds 0..k-1 in ``workers`` forked processes,
    yielded in fold order; ``beat()`` gives a fold's ``beat`` as it is
    submitted.

    The workers are forked, not spawned: they inherit the job (the parsed
    log included) instead of importing xnap afresh and unpickling it. Each
    holds at most one fold, so at most ``workers`` results wait here. On
    leaving, early or by an error, pending folds are cancelled and the
    workers are joined.
    """
    # Imported here: they take about 20 ms and 2 MB, which only a
    # cross-validation run should pay, not every xnap command.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_serve, initargs=(job, os.getpid()))
    try:
        pending = collections.deque()
        for i in range(k):
            pending.append(pool.submit(_run_served_fold, i, beat()))
            if len(pending) == workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def run_cv(log: EventLog, train_config: TrainConfig, k: int = 10,
           seed: int = 42) -> CvResult:
    """Train and score one model per fold; keep the highest-F1 model.

    The vocabulary and padding length come from the full log: the offline
    phase is assumed to have seen every activity and the longest trace.
    Test scoring covers every prefix of every test trace, including the
    artificial end label.

    On Linux the folds run in min(k, usable CPUs) forked worker processes;
    elsewhere, or with one usable CPU, they run in this process. A fold's
    training is seeded by ``train_config`` alone, so both give the same bits.
    """
    plan = make_folds(log, k=k, seed=seed)
    job = _CvJob(log, plan, build_vocabulary(log), max_augmented_length(log), train_config)
    rows, best_fold, best_model = [], 0, None

    def best_f1() -> float:
        return rows[best_fold].f1 if rows else -math.inf

    workers = min(k, _usable_cpus()) if sys.platform.startswith("linux") else 1
    folds = ((_run_fold(job, i, best_f1()) for i in range(k)) if workers == 1
             else _forked_folds(job, k, workers, best_f1))
    try:
        for i, (row, model) in enumerate(folds):
            rows.append(row)
            if best_model is None or row.f1 > rows[best_fold].f1:  # first maximum wins
                best_fold, best_model = i, model
    finally:
        folds.close()
    return CvResult(report=MetricsReport(tuple(rows)), best_model=best_model,
                    best_fold=best_fold)
