import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from xnap import evaluation
from xnap.bilstm import BiLstmModel, TrainConfig
from xnap.cli import main
from xnap.errors import LengthMismatch, NonFiniteLoss, TooFewTraces
from xnap.evaluation import (
    MetricsReport,
    make_folds,
    run_cv,
    split_validation,
    weighted_metrics,
)
from xnap.synthlog import copy_task, generate, linear_grammar

from conftest import make_log

linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="folds fork worker processes on Linux only")


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count run_cv sees; record each forked pool's size."""
    pools = []
    forked_folds = evaluation._forked_folds

    def spy(job, k, workers, beat):
        pools.append(workers)
        return forked_folds(job, k, workers, beat)

    def set_cpus(n):
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: n)
        return pools

    monkeypatch.setattr(evaluation, "_forked_folds", spy)
    return set_cpus


class TestMakeFolds:
    def test_ten_cases_ten_folds(self):
        log = make_log([["A", "B"] for _ in range(10)])
        plan = make_folds(log, k=10, seed=0)
        assert all(len(f.test_cases) == 1 for f in plan.folds)

    def test_same_seed_same_plan(self):
        log = make_log([["A", "B"] for _ in range(25)])
        assert make_folds(log, k=5, seed=3) == make_folds(log, k=5, seed=3)

    def test_partition_properties_random_logs(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(10, 60))
            k = int(rng.integers(2, min(n, 10) + 1))
            log = make_log([["A", "B"] for _ in range(n)])
            plan = make_folds(log, k=k, seed=int(rng.integers(1000)))
            all_test = [c for f in plan.folds for c in f.test_cases]
            assert len(all_test) == n
            assert set(all_test) == set(log.case_ids)
            for fold in plan.folds:
                tr, va, te = map(set, (fold.train_cases, fold.val_cases, fold.test_cases))
                assert not (tr & va) and not (tr & te) and not (va & te)
                assert tr | va | te == set(log.case_ids)
                assert len(va) == max(1, int((len(tr) + len(va)) * 0.1))

    def test_too_few_traces(self):
        log = make_log([["A", "B"] for _ in range(3)])
        with pytest.raises(TooFewTraces):
            make_folds(log, k=10)

    def test_validation_carve_out_floor(self):
        assert split_validation(["a", "b", "c"]) == (["a", "b"], ["c"])
        cases = [f"c{i}" for i in range(34)]
        train, val = split_validation(cases)
        assert len(val) == 3  # floor(34 * 0.1)
        assert train + val == cases

    @pytest.mark.parametrize("fraction", [float("nan"), 0.0, -0.1, 1.0, 1.5])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match=f"got {fraction}"):
            split_validation(["a", "b", "c"], fraction)


class TestWeightedMetrics:
    def test_perfect_predictions(self):
        row = weighted_metrics([0, 1, 2], [0, 1, 2], 3)
        assert (row.accuracy, row.precision, row.recall, row.f1) == (1, 1, 1, 1)

    def test_hand_computed_example(self):
        # class 0: P=1, R=0.5, F1=2/3; class 1: P=2/3, R=1, F1=0.8
        row = weighted_metrics([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert row.accuracy == pytest.approx(0.75)
        assert row.precision == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))
        assert row.recall == pytest.approx(0.75)
        assert row.f1 == pytest.approx(0.5 * (2 / 3) + 0.5 * 0.8)
        assert row.f1 == pytest.approx(0.7333333333333334)

    def test_absent_class_contributes_nothing(self):
        row = weighted_metrics([0, 0], [0, 0], 5)
        assert row.f1 == 1.0  # classes 1..4 have no support, no NaN

    def test_never_correct_class(self):
        row = weighted_metrics([0, 1], [1, 0], 2)
        assert row.accuracy == 0.0
        assert row.f1 == 0.0

    def test_weighted_accuracy_equals_micro_accuracy(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            h = int(rng.integers(2, 6))
            y_true = rng.integers(h, size=n)
            y_pred = rng.integers(h, size=n)
            row = weighted_metrics(y_true, y_pred, h)
            assert row.accuracy == pytest.approx(float((y_true == y_pred).mean()))
            # support-weighted recall collapses to plain accuracy
            assert row.recall == pytest.approx(row.accuracy)

    def test_against_sklearn_oracle(self):
        sk = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            h = int(rng.integers(2, 7))
            y_true = rng.integers(h, size=n)
            y_pred = rng.integers(h, size=n)
            row = weighted_metrics(y_true, y_pred, h)
            assert row.precision == pytest.approx(sk.precision_score(
                y_true, y_pred, average="weighted", zero_division=0), abs=1e-12)
            assert row.recall == pytest.approx(sk.recall_score(
                y_true, y_pred, average="weighted", zero_division=0), abs=1e-12)
            assert row.f1 == pytest.approx(sk.f1_score(
                y_true, y_pred, average="weighted", zero_division=0), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            weighted_metrics([0, 1], [0], 2)
        with pytest.raises(LengthMismatch):
            weighted_metrics([], [], 2)


class TestMetricsReport:
    def test_avg_sd_match_recomputation(self):
        rng = np.random.default_rng(16)
        rows = tuple(weighted_metrics(rng.integers(3, size=20),
                                      rng.integers(3, size=20), 3)
                     for _ in range(10))
        report = MetricsReport(rows)
        values = np.asarray([r.f1 for r in rows])
        assert abs(report.mean("f1") - values.mean()) < 1e-12
        assert abs(report.std("f1") - values.std()) < 1e-12


class TestRunCv:
    def test_two_fold_tiny_log(self):
        log = generate(linear_grammar(["A", "B", "C"], 30, seed=1))
        config = TrainConfig(hidden_size=4, batch_size=16, max_epochs=8,
                             patience=4, seed=2)
        result = run_cv(log, config, k=2, seed=3)
        assert len(result.report.rows) == 2
        assert isinstance(result.best_model, BiLstmModel)
        assert result.best_fold in (0, 1)
        best_f1 = result.report.rows[result.best_fold].f1
        assert best_f1 == max(r.f1 for r in result.report.rows)

    def test_deterministic_grammar_converges(self):
        log = generate(linear_grammar(["A", "B", "C"], 40, seed=5))
        config = TrainConfig(hidden_size=8, batch_size=32, max_epochs=40,
                             patience=10, seed=6)
        result = run_cv(log, config, k=2, seed=7)
        assert result.report.mean("accuracy") >= 0.99
        # both folds score F1 1.0: a tie keeps the first, like argmax
        assert [r.f1 for r in result.report.rows] == [1.0, 1.0]
        assert result.best_fold == 0


def _diverge(train_set, val_set, config):
    raise NonFiniteLoss(2)


@linux_only
class TestParallelFolds:
    @pytest.mark.parametrize("k", [2, 5])
    def test_workers_give_the_serial_bits(self, cpus, k):
        log = generate(copy_task(40, seed=11))
        config = TrainConfig(hidden_size=5, batch_size=16, max_epochs=3, patience=2,
                             seed=12)
        pools = cpus(1)
        serial = run_cv(log, config, k=k, seed=13)
        assert pools == []
        assert len(set(serial.report.rows)) == k  # so the fold order shows
        assert serial.best_fold > 0
        cpus(2)
        parallel = run_cv(log, config, k=k, seed=13)
        assert pools == [2]  # k >= 2 folds on two workers
        assert multiprocessing.active_children() == []
        assert parallel.report == serial.report
        assert parallel.best_fold == serial.best_fold
        for a, b in zip(parallel.best_model.param_items(), serial.best_model.param_items()):
            assert a[0] == b[0] and a[1].tobytes() == b[1].tobytes()

    def test_pool_is_no_larger_than_the_fold_count(self, cpus):
        log = generate(linear_grammar(["A", "B", "C"], 20, seed=1))
        pools = cpus(64)
        run_cv(log, TrainConfig(hidden_size=3, max_epochs=1, seed=2), k=3, seed=3)
        assert pools == [3]

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_fold_error_keeps_its_type_and_message(self, cpus, monkeypatch, n_cpus):
        monkeypatch.setattr(evaluation, "train", _diverge)
        cpus(n_cpus)
        log = generate(linear_grammar(["A", "B", "C"], 20, seed=1))
        with pytest.raises(NonFiniteLoss) as caught:
            run_cv(log, TrainConfig(hidden_size=3, max_epochs=1), k=5, seed=3)
        assert str(caught.value) == "non-finite loss at epoch 2"
        assert caught.value.epoch == 2
        assert multiprocessing.active_children() == []

    def test_cli_exits_4_with_one_error_line(self, cpus, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(evaluation, "train", _diverge)
        pools = cpus(2)
        log, out = tmp_path / "log.csv", tmp_path / "metrics.csv"
        assert main(["synth", "--out", str(log), "--grammar", "linear", "--traces", "20"]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--log", str(log), "--out", str(out), "--folds", "3",
                     "--hidden", "3", "--epochs", "1"]) == 4
        assert pools == [2]
        assert capsys.readouterr().err == "internal error: non-finite loss at epoch 2\n"
        assert not out.exists()
        assert multiprocessing.active_children() == []


def _state_and_parent(pid) -> tuple[str, str]:
    """A process's state letter and parent pid; ("X", "") once it is gone."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
    except OSError:
        return "X", ""
    return fields[0], fields[1]


def _alive(pid) -> bool:
    return _state_and_parent(pid)[0] not in ("X", "Z")


def _live_children(pid: int) -> list[int]:
    return [int(p.name) for p in Path("/proc").iterdir() if p.name.isdigit()
            and _state_and_parent(p.name)[1] == str(pid) and _alive(p.name)]


@linux_only
@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                    reason="folds run in process on one CPU")
def test_workers_die_with_a_killed_parent(tmp_path):
    log = tmp_path / "log.csv"
    assert main(["synth", "--out", str(log), "--grammar", "copy", "--traces", "200"]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "xnap.cli", "evaluate", "--log", str(log), "--folds", "4",
         "--hidden", "32", "--epochs", "200", "--patience", "200", "--out", os.devnull],
        env={**os.environ, "PYTHONPATH": src}, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while len(workers := _live_children(proc.pid)) < 2 and time.monotonic() < deadline:
            assert proc.poll() is None
            time.sleep(0.05)
        assert len(workers) == 2
    finally:
        proc.kill()
        proc.wait(timeout=30)
    deadline = time.monotonic() + 30
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_alive, workers))
