"""Cross-validation protocol and weighted prediction-quality metrics.

Folds partition the log by case so no process instance straddles the
train/validation/test boundary; metrics are support-weighted per-class
averages plus plain accuracy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bilstm import BiLstmModel, EpochStats, TrainConfig, predict_dataset, train
from .encoding import assemble_dataset, build_vocabulary, max_augmented_length
from .errors import LengthMismatch, TooFewTraces
from .eventlog import EventLog


@dataclass(frozen=True)
class FoldSplit:
    train_cases: tuple[str, ...]
    val_cases: tuple[str, ...]
    test_cases: tuple[str, ...]


@dataclass(frozen=True)
class FoldPlan:
    k: int
    seed: int
    folds: tuple[FoldSplit, ...]


@dataclass(frozen=True)
class MetricsRow:
    accuracy: float
    precision: float
    recall: float
    f1: float
    support: int


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
    models: list[BiLstmModel]
    histories: list[list[EpochStats]]
    best_fold: int  # highest F1, for downstream explanation demos
    plan: FoldPlan


def shuffle_cases(log: EventLog, seed: int) -> list[str]:
    """Seeded instance-level shuffle of the log's case ids."""
    cases = list(log.case_ids)
    order = np.random.default_rng(seed).permutation(len(cases))
    return [cases[i] for i in order]


def split_validation(cases: list[str], fraction: float = 0.1) -> tuple[list[str], list[str]]:
    """Carve the last ``fraction`` (rounded down, at least one) off as validation."""
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
    return FoldPlan(k=k, seed=seed, folds=tuple(folds))


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
    return MetricsRow(accuracy=accuracy, precision=precision, recall=recall,
                      f1=f1, support=total)


def evaluate_model(model: BiLstmModel, dataset) -> tuple[list[int], list[int]]:
    """True and predicted label indices over every sample of a dataset."""
    y_pred = np.argmax(predict_dataset(model, dataset), axis=1)
    return dataset.label_indices.tolist(), y_pred.tolist()


def run_cv(log: EventLog, train_config: TrainConfig, k: int = 10,
           seed: int = 42) -> CvResult:
    """Train and score one model per fold; keep the highest-F1 model.

    The vocabulary and padding length come from the full log: the offline
    phase is assumed to have seen every activity and the longest trace.
    Test scoring covers every prefix of every test trace, including the
    artificial end label.
    """
    plan = make_folds(log, k=k, seed=seed)
    vocab = build_vocabulary(log)
    m = max_augmented_length(log)
    rows, models, histories = [], [], []
    for fold in plan.folds:
        train_set = assemble_dataset(log.select_cases(fold.train_cases), vocab, m)
        val_set = assemble_dataset(log.select_cases(fold.val_cases), vocab, m)
        test_set = assemble_dataset(log.select_cases(fold.test_cases), vocab, m)
        model, history = train(train_set, val_set, train_config)
        y_true, y_pred = evaluate_model(model, test_set)
        rows.append(weighted_metrics(y_true, y_pred, vocab.size))
        models.append(model)
        histories.append(history)
    report = MetricsReport(tuple(rows))
    best_fold = int(np.argmax([r.f1 for r in rows]))
    return CvResult(report=report, models=models, histories=histories,
                    best_fold=best_fold, plan=plan)
