import json
import re

import numpy as np
import pytest

from xnap.bilstm import TrainConfig, load_model, predict_many, save_model
from xnap.cli import _resolve_seed, main, relevance_color
from xnap.encoding import assemble_dataset, encode_running_trace, max_augmented_length
from xnap.evaluation import evaluate_model, make_folds, run_cv, weighted_metrics
from xnap.eventlog import parse_log
from xnap.lrp import LrpConfig, explain

from conftest import make_trace
from oracles import naive_bilstm_probs, predict_per_sample


def write_log(path, cases: dict) -> str:
    """A CSV event log with one case per entry, events a second apart."""
    lines = ["case,activity,timestamp"]
    for case, activities in cases.items():
        lines += [f"{case},{a},2024-01-01 10:00:{i:02d}" for i, a in enumerate(activities)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A synthetic length-5 log and a small model trained on it."""
    root = tmp_path_factory.mktemp("cli")
    log = root / "log.csv"
    model = root / "model.json"
    assert main(["synth", "--out", str(log), "--grammar", "linear",
                 "--activities", "A,B,C,D,E", "--traces", "30", "--seed", "1"]) == 0
    assert main(["train", "--log", str(log), "--out", str(model),
                 "--hidden", "6", "--epochs", "12", "--patience", "5",
                 "--batch-size", "32", "--seed", "2"]) == 0
    return root


class TestStats:
    def test_prints_table_row(self, workdir, capsys):
        assert main(["stats", "--log", str(workdir / "log.csv")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "# instances" in out[0] and "# activities" in out[0]
        cells = out[1].split()
        assert cells[0] == "30"  # instances
        assert cells[1] == "1"  # variants
        assert cells[2] == "150"  # events
        assert cells[3] == "5"  # activities
        assert "[5;5;5.0;5]" in out[1]

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["stats", "--log", str(tmp_path / "nope.csv")]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_column_exits_2(self, workdir, capsys):
        code = main(["stats", "--log", str(workdir / "log.csv"),
                     "--activity-col", "wrong"])
        assert code == 2
        assert "wrong" in capsys.readouterr().err


class TestSynth:
    def test_copy_log_obeys_rule(self, tmp_path):
        out = tmp_path / "copy.csv"
        assert main(["synth", "--out", str(out), "--grammar", "copy",
                     "--traces", "40", "--seed", "3"]) == 0
        from xnap.eventlog import parse_log
        log = parse_log(out)
        for trace in log:
            acts = trace.activities
            assert acts[3] == {"X": "P", "Y": "Q"}[acts[0]]

    def test_seed_env_fallback(self, monkeypatch):
        monkeypatch.delenv("XNAP_SEED", raising=False)
        assert _resolve_seed(None) == 42
        assert _resolve_seed(7) == 7
        monkeypatch.setenv("XNAP_SEED", "99")
        assert _resolve_seed(None) == 99
        assert _resolve_seed(7) == 7


class TestTrain:
    def test_writes_model_and_history(self, workdir):
        model = workdir / "model.json"
        history = workdir / "model.json.history.csv"
        assert model.exists() and history.exists()
        lines = history.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_accuracy,val_loss,val_accuracy"
        doc = json.loads(model.read_text())
        assert len(lines) - 1 == doc["hyperparams"]["trained_epochs"]

    def test_missing_log_exits_2(self, tmp_path):
        assert main(["train", "--log", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "m.json")]) == 2


class TestPredict:
    def test_predicts_next_activity(self, workdir, capsys):
        assert main(["predict", "--model", str(workdir / "model.json"),
                     "--log", str(workdir / "log.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "case,predicted,probability"
        assert len(lines) == 31
        # a full length-5 trace of the linear grammar should predict the end
        assert lines[1].split(",")[1] == "__END__"

    @pytest.mark.parametrize("cases", [None, {"c1": "ABCDE", "c2": "AB", "c3": "EDCBAB",
                                              "c4": "BC", "c5": "CADB", "c6": "ABCDEA"}],
                             ids=["fixture_log", "mixed_lengths"])
    def test_csv_equals_per_sample_predictions(self, workdir, tmp_path, capsys, cases):
        log = str(workdir / "log.csv") if cases is None else write_log(tmp_path / "l.csv", cases)
        assert main(["predict", "--model", str(workdir / "model.json"), "--log", log]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        model = load_model(workdir / "model.json")
        samples = [encode_running_trace(t, model.vocab, model.max_len) for t in parse_log(log)]
        probs = predict_per_sample(model, samples)
        assert rows == [[s.case_id, model.vocab.label_of(int(np.argmax(p))),
                         f"{float(p.max()):.6f}"] for s, p in zip(samples, probs)]

    def test_bad_cases_skipped_each_with_one_warning(self, workdir, tmp_path, capsys):
        # c3 is longer than any training trace: it is predicted, not skipped.
        log = write_log(tmp_path / "mixed.csv", {
            "c1": "ABC", "c2": "AZB", "c3": "ABCDEAB", "c4": "A", "c5": "BCDE"})
        assert main(["predict", "--model", str(workdir / "model.json"), "--log", log]) == 0
        captured = capsys.readouterr()
        assert [line.split(",")[0] for line in captured.out.splitlines()[1:]] == \
            ["c1", "c3", "c5"]
        warnings = captured.err.splitlines()
        assert len(warnings) == 2
        for case, warning in zip(("c2", "c4"), warnings):
            assert warning.startswith(f"case {case}: ")
        assert "'Z'" in warnings[0] and "too short" in warnings[1]

    def test_unknown_activity_skipped_with_warning(self, workdir, tmp_path, capsys):
        log = tmp_path / "unknown.csv"
        log.write_text("case,activity,timestamp\n"
                       "c1,A,2024-01-01 10:00:00\nc1,Z,2024-01-01 10:01:00\n"
                       "c2,A,2024-01-01 10:00:00\nc2,B,2024-01-01 10:01:00\n")
        assert main(["predict", "--model", str(workdir / "model.json"),
                     "--log", str(log)]) == 0
        captured = capsys.readouterr()
        assert "c1" in captured.err and "'Z'" in captured.err
        lines = captured.out.splitlines()
        assert lines[0] == "case,predicted,probability"
        assert [line.split(",")[0] for line in lines[1:]] == ["c2"]

    def test_non_finite_model_exits_2(self, workdir, tmp_path, capsys):
        doc = json.loads((workdir / "model.json").read_text())
        doc["forward"]["W_f"][0][0] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        code = main(["predict", "--model", str(bad), "--log", str(workdir / "log.csv")])
        assert code == 2
        assert "NaN" in capsys.readouterr().err

    def test_case_longer_than_model_predicted(self, workdir, tmp_path, capsys):
        # the model was trained on length-5 traces: its padding length is 6
        log = write_log(tmp_path / "long.csv", {"c1": "ABCDEAB", "c2": "AB"})
        assert main(["predict", "--model", str(workdir / "model.json"),
                     "--log", log]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [line.split(",") for line in captured.out.splitlines()[1:]]
        model = load_model(workdir / "model.json")
        samples = [encode_running_trace(t, model.vocab, model.max_len) for t in parse_log(log)]
        assert samples[0].max_len == 7 > model.max_len
        want = np.asarray([naive_bilstm_probs(model, s.x[s.max_len - s.true_length:].tolist())[1]
                           for s in samples])
        assert np.abs(predict_many(model, samples) - want).max() <= 1e-10
        assert rows == [[s.case_id, model.vocab.label_of(int(np.argmax(p))),
                         f"{float(p.max()):.6f}"] for s, p in zip(samples, want)]

    def test_trace_too_short_exits_3(self, workdir, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("case,activity,timestamp\nc1,A,2024-01-01 10:00:00\n")
        code = main(["predict", "--model", str(workdir / "model.json"),
                     "--log", str(short)])
        assert code == 3
        assert "too short" in capsys.readouterr().err


class TestExplain:
    def test_default_range_gives_three_rows_for_length_five(self, workdir, capsys):
        assert main(["explain", "--model", str(workdir / "model.json"),
                     "--log", str(workdir / "log.csv"), "--case", "case_00000",
                     "--render", "json"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [len(r["prefix"]) for r in rows] == [3, 4, 5]
        for r in rows:
            assert set(r) == {"case_id", "prefix", "target_class", "target_prob",
                              "raw_relevance", "display", "model_output",
                              "bias_absorbed", "initial_state_relevance",
                              "conservation_residual"}
            assert len(r["raw_relevance"]) == len(r["prefix"])
            assert all(0 <= d <= 1 for d in r["display"])
            total = (sum(r["raw_relevance"]) + r["initial_state_relevance"]
                     + r["bias_absorbed"])
            scale = max(1.0, abs(r["model_output"]))
            assert abs(total - r["model_output"]) <= 1e-9 * scale
            assert abs(r["conservation_residual"] - (r["model_output"] - total)) <= 1e-12 * scale

    def test_short_range_on_short_trace(self, workdir, tmp_path, capsys):
        two = tmp_path / "two.csv"
        two.write_text("case,activity,timestamp\n"
                       "c1,A,2024-01-01 10:00:00\nc1,B,2024-01-01 10:01:00\n")
        assert main(["explain", "--model", str(workdir / "model.json"),
                     "--log", str(two), "--min-prefix", "2",
                     "--render", "json"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == 1
        assert rows[0]["prefix"] == ["A", "B"]

    def test_too_short_trace_skipped_with_warning(self, workdir, tmp_path, capsys):
        mixed = tmp_path / "mixed.csv"
        mixed.write_text("case,activity,timestamp\n"
                         "c1,A,2024-01-01 10:00:00\n"
                         "c2,A,2024-01-01 10:00:00\n"
                         "c2,B,2024-01-01 10:01:00\n"
                         "c2,C,2024-01-01 10:02:00\n")
        assert main(["explain", "--model", str(workdir / "model.json"),
                     "--log", str(mixed), "--render", "json"]) == 0
        captured = capsys.readouterr()
        assert "skipped" in captured.err
        assert all(json.loads(l)["case_id"] == "c2"
                   for l in captured.out.splitlines())

    def test_json_rows_equal_library_explain(self, workdir, tmp_path, capsys):
        log = write_log(tmp_path / "mixed.csv", {
            "c1": "ABCDE", "c2": "AB", "c3": "EDCBAB", "c4": "BC", "c5": "CADB"})
        assert main(["explain", "--model", str(workdir / "model.json"),
                     "--log", log, "--min-prefix", "2", "--delta", "1",
                     "--render", "json"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        expected = [(t.case_id, k) for t in parse_log(log) for k in range(2, len(t) + 1)]
        assert [(r["case_id"], len(r["prefix"])) for r in rows] == expected
        model = load_model(workdir / "model.json")
        for row in rows:
            sample = encode_running_trace(make_trace(row["case_id"], row["prefix"]),
                                          model.vocab, model.max_len)
            want = explain(model, sample, LrpConfig(delta=1.0))
            scale = max(abs(want.model_output), float(np.abs(want.raw).max()))
            assert row["target_class"] == model.vocab.label_of(want.target_class)
            assert np.abs(np.array(row["raw_relevance"]) - want.raw).max() <= 1e-12 * scale
            for key, value in (("model_output", want.model_output),
                               ("initial_state_relevance", want.initial_state_relevance),
                               ("bias_absorbed", want.bias_absorbed),
                               ("target_prob", want.target_prob)):
                assert abs(row[key] - value) <= 1e-12 * scale, key

    def test_unknown_activity_skipped_with_warning(self, workdir, tmp_path, capsys):
        log = write_log(tmp_path / "unknown.csv", {"c1": "AZC", "c2": "ABC"})
        assert main(["explain", "--model", str(workdir / "model.json"),
                     "--log", log, "--render", "json"]) == 0
        captured = capsys.readouterr()
        assert "c1" in captured.err and "'Z'" in captured.err
        assert [json.loads(l)["case_id"] for l in captured.out.splitlines()] == ["c2"]
        code = main(["explain", "--model", str(workdir / "model.json"),
                     "--log", log, "--case", "c1"])
        assert code == 3

    def test_case_longer_than_model_explained(self, workdir, tmp_path, capsys):
        # the model's padding length is 6; c1's prefixes of 7 and 8 events exceed it
        log = write_log(tmp_path / "long.csv", {"c1": "ABCDEABC", "c2": "ABC"})
        assert main(["explain", "--model", str(workdir / "model.json"),
                     "--log", log, "--delta", "1", "--render", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [json.loads(l) for l in captured.out.splitlines()]
        assert [(r["case_id"], len(r["prefix"])) for r in rows] == \
            [("c1", k) for k in range(3, 9)] + [("c2", 3)]
        for r in rows:  # delta = 1 conserves relevance: nothing is absorbed
            scale = max(1.0, abs(r["model_output"]))
            assert abs(r["bias_absorbed"]) <= 1e-12 * scale
            assert abs(sum(r["raw_relevance"]) + r["initial_state_relevance"]
                       - r["model_output"]) <= 1e-9 * scale
        # a positive --max-prefix caps the explained range
        assert main(["explain", "--model", str(workdir / "model.json"),
                     "--log", log, "--case", "c1", "--max-prefix", "6",
                     "--render", "json"]) == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [len(r["prefix"]) for r in rows] == [3, 4, 5, 6]

    def test_unknown_target_class_is_a_usage_error(self, workdir, capsys):
        code = main(["explain", "--model", str(workdir / "model.json"),
                     "--log", str(workdir / "log.csv"), "--target-class", "NOPE",
                     "--render", "json"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--target-class" in captured.err and "'NOPE'" in captured.err
        assert "case" not in captured.err
        # a known activity is explained for every prefix
        assert main(["explain", "--model", str(workdir / "model.json"),
                     "--log", str(workdir / "log.csv"), "--case", "case_00001",
                     "--target-class", "C", "--render", "json"]) == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert rows and all(r["target_class"] == "C" for r in rows)

    def test_min_prefix_below_two_rejected(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explain", "--model", str(workdir / "model.json"),
                  "--log", str(workdir / "log.csv"), "--min-prefix", "1"])
        assert exc.value.code == 2
        assert "--min-prefix" in capsys.readouterr().err

    def test_start_from_is_not_an_option(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explain", "--model", str(workdir / "model.json"),
                  "--log", str(workdir / "log.csv"), "--start-from", "logit"])
        assert exc.value.code == 2
        assert "--start-from" in capsys.readouterr().err

    def test_max_prefix_zero_is_a_limit(self, workdir, capsys):
        code = main(["explain", "--model", str(workdir / "model.json"),
                     "--log", str(workdir / "log.csv"), "--max-prefix", "0",
                     "--render", "json"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no trace fits" in captured.err

    def test_html_cells_match_json_values(self, workdir, tmp_path, capsys):
        html_path = tmp_path / "heat.html"
        assert main(["explain", "--model", str(workdir / "model.json"),
                     "--log", str(workdir / "log.csv"), "--case", "case_00001",
                     "--render", "html", "--out", str(html_path)]) == 0
        assert main(["explain", "--model", str(workdir / "model.json"),
                     "--log", str(workdir / "log.csv"), "--case", "case_00001",
                     "--render", "json"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        html = html_path.read_text()
        colors = re.findall(r'background:(#[0-9A-F]{6})', html)
        expected = ["#%02X%02X%02X" % relevance_color(d)
                    for r in rows for d in r["display"]]
        assert colors == expected
        assert "<th>predicted</th><th>ground truth</th>" in html


class TestEvaluate:
    def test_metrics_csv_layout(self, workdir, tmp_path):
        out = tmp_path / "metrics.csv"
        assert main(["evaluate", "--log", str(workdir / "log.csv"),
                     "--out", str(out), "--folds", "10", "--seed", "4",
                     "--hidden", "4", "--epochs", "4", "--patience", "2",
                     "--batch-size", "32"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "fold,accuracy,precision,recall,f1"
        assert len(lines) == 1 + 10 + 2  # ten fold rows plus AVG and SD
        assert lines[-2].startswith("AVG,")
        assert lines[-1].startswith("SD,")

    def test_save_best_model_writes_the_best_folds_model(self, tmp_path, capsys):
        log = str(tmp_path / "copy.csv")
        assert main(["synth", "--out", log, "--grammar", "copy", "--traces", "40",
                     "--seed", "3"]) == 0
        out, saved = tmp_path / "metrics.csv", tmp_path / "best.json"
        assert main(["evaluate", "--log", log, "--out", str(out), "--folds", "3",
                     "--seed", "4", "--hidden", "4", "--epochs", "8", "--patience", "2",
                     "--batch-size", "32", "--save-best-model", str(saved)]) == 0
        config = TrainConfig(hidden_size=4, dropout_rate=0.2, batch_size=32, max_epochs=8,
                             patience=2, learning_rate=0.002, seed=4)
        save_model(run_cv(parse_log(log), config, k=3, seed=4).best_model,
                   tmp_path / "library.json")
        assert saved.read_bytes() == (tmp_path / "library.json").read_bytes()
        f1 = [line.split(",")[4] for line in out.read_text().splitlines()[1:4]]
        assert sorted(f1)[-1] > sorted(f1)[-2]  # one fold is best
        err = capsys.readouterr().err
        fold = int(re.fullmatch(rf"best model \(fold (\d)\) -> {re.escape(str(saved))}\n",
                                err).group(1))
        assert f1[fold - 1] == max(f1)
        # the saved model is that fold's: it scores the fold's F1 on its test cases
        model, parsed = load_model(saved), parse_log(log)
        test_cases = make_folds(parsed, k=3, seed=4).folds[fold - 1].test_cases
        test_set = assemble_dataset(parsed.select_cases(test_cases), model.vocab,
                                    max_augmented_length(parsed))
        score = weighted_metrics(*evaluate_model(model, test_set), model.vocab.size).f1
        assert f"{score:.6f}" == f1[fold - 1]

    def test_unknown_case_exits_2(self, workdir, capsys):
        code = main(["predict", "--model", str(workdir / "model.json"),
                     "--log", str(workdir / "log.csv"), "--case", "ghost"])
        assert code == 2
        assert "unknown case" in capsys.readouterr().err


class TestColors:
    def test_palette_endpoints(self):
        assert relevance_color(0.5) == (255, 255, 255)
        assert relevance_color(1.0) == (255, 0, 0)
        assert relevance_color(0.0) == (0, 0, 255)

    def test_linear_interpolation(self):
        assert relevance_color(0.75) == (255, 128, 128)
        assert relevance_color(0.25) == (128, 128, 255)


class TestOptionRanges:
    @pytest.mark.parametrize("command, option, value, named", [
        ("explain", "--epsilon", "0", "epsilon"),
        ("explain", "--delta", "0.5", "delta"),
        ("train", "--dropout", "1.0", "dropout_rate"),
        ("train", "--batch-size", "0", "batch_size"),
        ("train", "--epochs", "0", "max_epochs"),
        ("train", "--hidden", "0", "hidden_size"),
        ("train", "--sample-fraction", "0", "sample_fraction"),
        ("evaluate", "--folds", "1", "--folds"),
        ("explain", "--epsilon", "nan", "epsilon"),
        ("explain", "--epsilon", "inf", "epsilon"),
        ("train", "--lr", "nan", "learning_rate"),
        ("train", "--lr", "inf", "learning_rate"),
        ("train", "--lr", "0", "learning_rate"),
        ("evaluate", "--lr", "-1", "learning_rate"),
        ("train", "--patience", "0", "patience"),
        ("evaluate", "--patience", "-1", "patience"),
        ("train", "--val-fraction", "nan", "--val-fraction"),
        ("train", "--val-fraction", "0", "--val-fraction"),
        ("train", "--val-fraction", "1", "--val-fraction"),
        ("train", "--val-fraction", "2", "--val-fraction"),
        ("stats", "--delimiter", "", "delimiter"),
        ("explain", "--delimiter", ";;", "delimiter"),
    ])
    def test_out_of_range_value_exits_2(self, workdir, tmp_path, capsys,
                                        command, option, value, named):
        log = str(workdir / "log.csv")
        model = tmp_path / "model.json"
        needs = {"explain": ["--model", str(workdir / "model.json"), "--log", log],
                 "train": ["--log", log, "--out", str(model)],
                 "stats": ["--log", log],
                 "evaluate": ["--log", log, "--out", str(tmp_path / "metrics.csv")]}
        assert main([command, *needs[command], option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error: ") and "\n" not in err
        assert named in err and value in err
        assert list(tmp_path.iterdir()) == []  # nothing written

    @pytest.mark.parametrize("grammar, option, value", [
        ("linear", "--activities", "A,,B"),
        ("copy", "--fillers", "F1,"),
    ])
    def test_empty_activity_label_exits_2(self, tmp_path, capsys, grammar, option, value):
        assert main(["synth", "--out", str(tmp_path / "log.csv"), "--grammar", grammar,
                     option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error: ") and "\n" not in err and "non-empty" in err
        assert list(tmp_path.iterdir()) == []
