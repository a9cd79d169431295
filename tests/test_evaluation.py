import numpy as np
import pytest

from xnap.bilstm import BiLstmModel, TrainConfig
from xnap.errors import LengthMismatch, TooFewTraces
from xnap.evaluation import (
    MetricsReport,
    make_folds,
    run_cv,
    split_validation,
    weighted_metrics,
)
from xnap.synthlog import generate, linear_grammar

from conftest import make_log


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
