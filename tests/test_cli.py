import base64
import csv
import html
import io
import json
import re
import struct
import sys

import numpy as np
import pytest

from xnap import cli, errors, eventlog
from xnap.bilstm import TrainConfig, load_model, predict_many, save_model
from xnap.cli import main, relevance_color
from xnap.encoding import assemble_dataset, encode_running_trace, max_augmented_length
from xnap.evaluation import evaluate_model, make_folds, run_cv, weighted_metrics
from xnap.eventlog import parse_log, serialize_log
from xnap.lrp import LrpConfig, explain, explain_many

from conftest import make_trace
from oracles import naive_bilstm_probs, predict_per_sample, save_model_v1


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


    @pytest.mark.parametrize("row, reason", [
        ("c1,,2024-01-01 10:01:00", "row 3: empty activity"),
        (",B,2024-01-01 10:01:00", "row 3: empty case id"),
        ("c1,B", "row 3: 2 fields, the header has 3"),
    ], ids=["empty_activity", "empty_case_id", "short_row"])
    def test_bad_row_exits_2_naming_it(self, tmp_path, capsys, row, reason):
        log = tmp_path / "bad.csv"
        log.write_text("case,activity,timestamp\nc1,A,2024-01-01 10:00:00\n"
                       f"{row}\nc1,C,2024-01-01 10:02:00\n")
        assert main(["stats", "--log", str(log)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {reason}\n"

    def test_byte_order_mark_accepted(self, workdir, tmp_path, capsys):
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + (workdir / "log.csv").read_bytes())
        assert main(["stats", "--log", str(workdir / "log.csv")]) == 0
        plain = capsys.readouterr()
        assert main(["stats", "--log", str(marked)]) == 0
        assert capsys.readouterr() == plain

    @pytest.mark.parametrize("command", ["stats", "predict"])
    def test_over_long_field_exits_2(self, workdir, tmp_path, capsys, command):
        log = tmp_path / "long.csv"
        log.write_text("case,activity,timestamp\nc1,A,2024-01-01 10:00:00\n"
                       f"c1,{'B' * 131073},2024-01-01 10:01:00\n")
        needs = {"stats": [],
                 "predict": ["--model", str(workdir / "model.json"),
                             "--out", str(tmp_path / "out.csv")]}
        assert main([command, "--log", str(log), *needs[command]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: row 3: field larger than field limit (131072)\n"
        assert list(tmp_path.iterdir()) == [log]  # nothing written


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

    @pytest.mark.parametrize("activities", ["A,B,A", "A,B,A,C"])
    def test_repeated_linear_activity_exits_2(self, tmp_path, capsys, activities):
        assert main(["synth", "--out", str(tmp_path / "bad.csv"), "--grammar", "linear",
                     "--activities", activities]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: linear grammar repeats activity 'A'\n"
        assert list(tmp_path.iterdir()) == []  # nothing written

    def test_seed_defaults_to_42(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XNAP_SEED", "abc")  # no longer read
        assert main(["synth", "--out", str(tmp_path / "default.csv")]) == 0
        assert main(["synth", "--out", str(tmp_path / "seeded.csv"), "--seed", "42"]) == 0
        assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "seeded.csv").read_bytes()


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

    @pytest.mark.parametrize("version", [1, 2])
    def test_non_finite_model_exits_2(self, workdir, tmp_path, capsys, version):
        bad = tmp_path / "nan.json"
        if version == 1:
            model = load_model(workdir / "model.json")
            dict(model.param_items())["forward.W_f"][0, 0] = float("nan")
            with open(bad, "w", encoding="utf-8") as f:
                save_model_v1(model, f)
        else:
            doc = json.loads((workdir / "model.json").read_text())
            assert doc["format_version"] == 2
            stored = doc["forward"]["W"]
            payload = bytearray(base64.b64decode(stored["base64"]))
            payload[:8] = struct.pack("<d", float("nan"))
            stored["base64"] = base64.b64encode(payload).decode("ascii")
            bad.write_text(json.dumps(doc))
        code = main(["predict", "--model", str(bad), "--log", str(workdir / "log.csv")])
        assert code == 2
        assert "NaN" in capsys.readouterr().err

    @pytest.mark.parametrize("spoil", [
        lambda data: b"\xef\xbb\xbf" + data,
        lambda data: data.replace(b'"vocab": ["', b'"vocab": ["\xff', 1),
    ], ids=["utf8_bom", "not_utf8"])
    def test_model_file_not_plain_utf8_json_exits_2(self, workdir, tmp_path, capsys, spoil):
        # A model file is UTF-8 JSON without a byte order mark.
        data = (workdir / "model.json").read_bytes()
        bad = tmp_path / "bad.json"
        bad.write_bytes(spoil(data))
        assert bad.read_bytes() != data
        code = main(["predict", "--model", str(bad), "--log", str(workdir / "log.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and "Traceback" not in err

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("key, value", [
        ("hidden_size", "6"),
        ("hidden_size", 6.0),
        ("hidden_size", True),
        ("hidden_size", 0),
        ("max_len", -1),
        ("max_len", 0),
        ("max_len", True),
        ("max_len", "6"),
        ("vocab", [1, "B", "C", "D", "E", "__END__"]),
        ("vocab", []),
        ("vocab", "ABCDE"),
    ])
    def test_bad_model_header_exits_2(self, workdir, tmp_path, capsys, version, key, value):
        text = io.StringIO()
        (save_model_v1 if version == 1 else save_model)(load_model(workdir / "model.json"), text)
        doc = json.loads(text.getvalue())
        doc[key] = value
        bad, out = tmp_path / "bad.json", tmp_path / "out.csv"
        bad.write_text(json.dumps(doc))
        assert main(["predict", "--model", str(bad), "--log", str(workdir / "log.csv"),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"error: {key} must be [^\n]*\n", captured.err)
        assert not out.exists()

    @pytest.mark.parametrize("value", [2.0, True], ids=["float", "bool"])
    def test_format_version_not_an_int_exits_2(self, workdir, tmp_path, capsys, value):
        doc = json.loads((workdir / "model.json").read_text())
        doc["format_version"] = value
        bad, out = tmp_path / "bad.json", tmp_path / "out.csv"
        bad.write_text(json.dumps(doc))
        assert main(["predict", "--model", str(bad), "--log", str(workdir / "log.csv"),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: model format {value!r}, expected one of 1, 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("raw", ["1e400", "2.7", "true", "-1"],
                             ids=["inf", "float", "bool", "negative"])
    def test_trained_epochs_not_a_count_exits_2(self, workdir, tmp_path, capsys, raw):
        # JSON reads 1e400 as inf, which int() turned into an OverflowError
        # traceback; 2.7, true and -1 used to load without a word.
        doc = json.loads((workdir / "model.json").read_text())
        doc["hyperparams"]["trained_epochs"] = "@"
        bad, out = tmp_path / "bad.json", tmp_path / "out.csv"
        bad.write_text(json.dumps(doc).replace('"@"', raw))
        assert main(["predict", "--model", str(bad), "--log", str(workdir / "log.csv"),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        value = json.loads(raw)
        assert captured.err == f"error: trained_epochs must be an integer >= 0, got {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value, kind", [([], "list"), ([["a", 1]], "list"),
                                             ("ab", "str"), (None, "NoneType")],
                             ids=["list", "pairs", "string", "null"])
    def test_hyperparams_not_an_object_exits_2(self, workdir, tmp_path, capsys, value, kind):
        # dict() loaded the two lists without a word and turned "ab" into an
        # error about dictionary update sequences.
        doc = json.loads((workdir / "model.json").read_text())
        doc["hyperparams"] = value
        bad, out = tmp_path / "bad.json", tmp_path / "out.csv"
        bad.write_text(json.dumps(doc))
        assert main(["predict", "--model", str(bad), "--log", str(workdir / "log.csv"),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: hyperparams must be a JSON object, got {kind}\n"
        assert not out.exists()

    def test_missing_trained_epochs_reads_0(self, workdir, tmp_path):
        doc = json.loads((workdir / "model.json").read_text())
        assert doc["hyperparams"].pop("trained_epochs") > 0
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        assert load_model(path).trained_epochs == 0

    @pytest.mark.parametrize("command", ["predict", "explain"])
    def test_huge_max_len_sizes_nothing(self, workdir, tmp_path, capsys, command):
        # Running traces are encoded at their own length, so a model's
        # max_len allocates nothing and the output keeps its bytes.
        doc = json.loads((workdir / "model.json").read_text())
        doc["max_len"] = 10**12
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(doc))
        log = write_log(tmp_path / "log.csv", {"c1": "ABCDEAB", "c2": "ABC"})
        outputs = []
        for model in (workdir / "model.json", huge):
            out = tmp_path / f"{model.stem}.out"
            assert main([command, "--model", str(model), "--log", log,
                         "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

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

    def test_skip_warning_names_length_and_range(self, workdir, tmp_path, capsys):
        log = write_log(tmp_path / "two.csv", {"c1": "AB", "c2": "ABCD"})
        model = ["--model", str(workdir / "model.json"), "--log", log]
        assert main(["explain", *model, "--render", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "case c1: skipped, 2 events, no prefix length in [3, 2]\n"
        # A maximum below the minimum skips traces that are long enough.
        assert main(["explain", *model, "--max-prefix", "2", "--render", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("case c1: skipped, 2 events, no prefix length in [3, 2]\n"
                                "case c2: skipped, 4 events, no prefix length in [3, 2]\n"
                                "error: no trace fits the requested prefix range\n")

    @pytest.mark.parametrize("limits", [[], ["--max-prefix", "4"], ["--min-prefix", "2"]])
    def test_parsed_traces_are_not_checked_again(self, workdir, tmp_path, capsys,
                                                 monkeypatch, limits):
        log = write_log(tmp_path / "mixed.csv", {"c1": "ABCDE", "c2": "ABC", "c3": "EDCBAB"})
        argv = ["explain", "--model", str(workdir / "model.json"), "--log", log,
                "--render", "json", *limits]
        assert main(argv) == 0
        want = capsys.readouterr()
        checks = []
        check = eventlog.Trace.__post_init__
        monkeypatch.setattr(eventlog.Trace, "__post_init__",
                            lambda trace: checks.append(trace) or check(trace))
        assert main(argv) == 0
        assert checks == []  # parse_log checked every trace, and a slice keeps its checks
        assert capsys.readouterr() == want

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

    def test_repeated_prefixes_write_the_bytes_of_one_dump_per_row(self, workdir, tmp_path,
                                                                   capsys):
        # Repeated traces under case ids that hold '", "', a quote and
        # non-ASCII text: the JSON rows are json.dumps of every row, and
        # rows of equal prefixes differ in their case id only.
        cases = {'a", "b': "ABCDE", 'say "hi"': "ABCDE", "straße-東京": "ABCD",
                 "c4": "EDCBA", 'x", "y", "z': "ABCDE", "c6": "ABC"}
        log = tmp_path / "repeats.csv"
        with open(log, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["case", "activity", "timestamp"])
            for case, activities in cases.items():
                for i, a in enumerate(activities):
                    writer.writerow([case, a, f"2024-01-01 10:00:{i:02d}"])
        # The reference explains the whole log in one call, as the command does.
        model = load_model(workdir / "model.json")
        jobs = [(trace, cli._prefix_samples(model, trace, 3, None))
                for trace in parse_log(str(log))]
        results = iter(explain_many(model, [s for _, samples in jobs for s in samples]))
        per_trace = [(trace, cli._explained_rows(model, trace, samples,
                                                 [next(results) for _ in samples]))
                     for trace, samples in jobs]
        want_json = "".join(json.dumps({
            "case_id": row["result"].case_id,
            "prefix": row["prefix"],
            "target_class": row["predicted"],
            "target_prob": row["result"].target_prob,
            "raw_relevance": row["result"].raw.tolist(),
            "display": row["result"].display.tolist(),
            "model_output": row["result"].model_output,
            "bias_absorbed": row["result"].bias_absorbed,
            "initial_state_relevance": row["result"].initial_state_relevance,
            "conservation_residual": row["residual"],
        }) + "\n" for _, rows in per_trace for row in rows)
        want_html, want_ansi = io.StringIO(), io.StringIO()
        cli._render_html(per_trace, want_html)
        for trace, rows in per_trace:
            cli._render_ansi(rows, trace, want_ansi)
        for render, want in (("json", want_json), ("html", want_html.getvalue()),
                             ("ansi", want_ansi.getvalue())):
            out = tmp_path / f"explain.{render}"
            assert main(["explain", "--model", str(workdir / "model.json"), "--log", str(log),
                         "--render", render, "--out", str(out)]) == 0
            assert out.read_bytes() == want.encode("utf-8"), render
        rows = [json.loads(line) for line in want_json.splitlines()]
        assert [r["case_id"] for r in rows] == [c for c, a in cases.items()
                                                for _ in range(3, len(a) + 1)]
        groups = {}
        for r in rows:
            groups.setdefault(tuple(r.pop("prefix")), []).append(r)
        assert len(groups) == 6  # ABC, ABCD, ABCDE, EDC, EDCB, EDCBA
        for members in groups.values():
            for r in members:
                r.pop("case_id")
            assert all(r == members[0] for r in members)

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

    def test_html_escapes_log_strings(self, tmp_path):
        # Case ids and activity labels are text on the page, never markup.
        labels = ["<i>A</i>", "B&C", 'say "hi"']
        cases = ["c<1>", "c&2", 'c"3"']
        log = tmp_path / "odd.csv"
        with open(log, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["case", "activity", "timestamp"])
            for k, case in enumerate(cases):
                for i, a in enumerate(labels[k:] + labels[:k]):
                    writer.writerow([case, a, f"2024-01-01 10:00:{i:02d}"])
        model, page = tmp_path / "model.json", tmp_path / "heat.html"
        assert main(["train", "--log", str(log), "--out", str(model), "--hidden", "3",
                     "--epochs", "1", "--seed", "1"]) == 0
        assert main(["explain", "--model", str(model), "--log", str(log),
                     "--render", "html", "--out", str(page)]) == 0
        text = page.read_text()
        assert "<h2>case c&lt;1&gt;</h2>" in text
        assert "<h2>case c&amp;2</h2>" in text
        assert "<h2>case c&quot;3&quot;</h2>" in text
        for label in labels:
            assert f">{html.escape(label)}</td>" in text
        # Every tag on the page is the renderer's own.
        assert set(re.findall(r"</?([!\w]+)", text)) == {
            "!DOCTYPE", "html", "head", "meta", "title", "style", "body", "h2", "table",
            "tr", "th", "td"}

    def test_non_finite_explanations_are_skipped(self, tmp_path, capsys):
        # Finite weights whose recurrence overflows the relevance walk: its
        # NaN must not reach the output, where strict JSON rejects it.
        log, normal, huge = (str(tmp_path / name)
                             for name in ("copy.csv", "model.json", "huge.json"))
        assert main(["synth", "--grammar", "copy", "--traces", "40", "--out", log]) == 0
        assert main(["train", "--log", log, "--out", normal, "--hidden", "4",
                     "--epochs", "1"]) == 0
        model = load_model(normal)
        model.forward_params.U *= 1e308
        model.backward_params.U *= 1e308
        save_model(model, huge)
        capsys.readouterr()

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        for path in (normal, huge):
            assert main(["explain", "--model", path, "--log", log, "--render", "json"]) == 0
            captured = capsys.readouterr()
            rows = [json.loads(line, parse_constant=reject)
                    for line in captured.out.splitlines()]
            skipped = re.findall(r"^case (\S+): prefix length (\d+) skipped, its "
                                 r"explanation is not finite$", captured.err, re.M)
            assert captured.err == "".join(
                f"case {case}: prefix length {k} skipped, its explanation is not finite\n"
                for case, k in skipped)
            explained = [(r["case_id"], len(r["prefix"])) for r in rows]
            every = [(t.case_id, k) for t in parse_log(log) for k in range(3, len(t) + 1)]
            assert sorted(explained + [(c, int(k)) for c, k in skipped]) == sorted(every)
            assert rows
            assert bool(skipped) == (path == huge)
        for render in ("html", "ansi"):
            assert main(["explain", "--model", huge, "--log", log, "--render", render]) == 0
            assert capsys.readouterr().err.count("\n") == len(skipped)


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
        assert capsys.readouterr().err == "error: unknown case id 'ghost'\n"


class TestRepeatedCalls:
    """``main`` may be called again and again in one process: it builds its
    parser once, and nothing else carries over from one call to the next."""

    @staticmethod
    def run(workdir, capsys, command, *extra):
        argv = [command, "--model", str(workdir / "model.json"),
                "--log", str(workdir / "log.csv"), *extra]
        if command == "explain":
            argv += ["--render", "json"]
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("command", ["predict", "explain"])
    def test_identical_calls_write_identical_bytes(self, workdir, capsys, command):
        first = self.run(workdir, capsys, command)
        assert first[0] == 0 and first[1]
        assert self.run(workdir, capsys, command) == first

    @pytest.mark.parametrize("argv, code, out", [
        (["predict", "--bogus"], 2, ""),
        (["explain", "--render", "svg"], 2, ""),
        (["predict"], 2, ""),
        (["--version"], 0, "xnap 0.1.0\n"),
    ], ids=["unknown_option", "bad_choice", "missing_required", "version"])
    @pytest.mark.parametrize("command", ["predict", "explain"])
    def test_parser_exit_leaves_next_call_unchanged(self, workdir, capsys, command,
                                                    argv, code, out):
        before = self.run(workdir, capsys, command)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        assert capsys.readouterr().out == out
        assert self.run(workdir, capsys, command) == before

    def test_usage_error_leaves_next_call_unchanged(self, workdir, capsys):
        before = self.run(workdir, capsys, "predict")
        assert self.run(workdir, capsys, "predict", "--case", "ghost")[0] == 2
        assert self.run(workdir, capsys, "predict") == before

    @pytest.mark.parametrize("command", ["predict", "explain"])
    def test_case_does_not_leak_into_next_call(self, workdir, capsys, command):
        whole = self.run(workdir, capsys, command)
        case = parse_log(str(workdir / "log.csv")).case_ids[3]
        code, out, _ = self.run(workdir, capsys, command, "--case", case)
        assert code == 0
        assert out and all(case in line for line in out.splitlines()[command == "predict":])
        assert self.run(workdir, capsys, command) == whole

    def test_parser_is_built_once(self, workdir, capsys):
        cli.build_parser.cache_clear()
        for command in ("predict", "explain", "predict"):
            assert self.run(workdir, capsys, command)[0] == 0
        with pytest.raises(SystemExit):
            main(["predict", "--bogus"])
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        assert cli.build_parser() is cli.build_parser()


class TestExitCodes:
    def test_internal_error_exits_4(self, workdir, tmp_path, monkeypatch, capsys):
        def diverge(*args, **kwargs):
            raise errors.NonFiniteLoss(3)

        monkeypatch.setattr(cli, "train", diverge)
        assert main(["train", "--log", str(workdir / "log.csv"),
                     "--out", str(tmp_path / "model.json")]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: non-finite loss at epoch 3\n"
        assert list(tmp_path.iterdir()) == []

    def test_every_error_class_chooses_an_exit_code(self):
        internal = {errors.ShapeMismatch, errors.NonFiniteInput, errors.NonFiniteLoss,
                    errors.LengthMismatch}
        bases = {errors.XnapError, errors.InputError, errors.DomainError}
        classes = {c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, BaseException)}
        assert bases | internal <= classes
        for cls in classes - bases:
            kinds = [issubclass(cls, errors.InputError), issubclass(cls, errors.DomainError),
                     cls in internal]
            assert issubclass(cls, errors.XnapError) and kinds.count(True) == 1, cls


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

    @pytest.mark.parametrize("option", ["--min-prefix", "--max-prefix"])
    @pytest.mark.parametrize("value", ["1", "0", "-3"])
    def test_prefix_length_below_two_exits_2(self, workdir, capsys, option, value):
        # A prefix length bound below 2 is a usage error, read before the
        # model or the log; a maximum below the minimum but at least 2 is a
        # range that fits no trace (see test_skip_warning_names_length_and_range).
        with pytest.raises(SystemExit) as exc:
            main(["explain", "--model", str(workdir / "missing.json"),
                  "--log", str(workdir / "log.csv"), option, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert option in errors[0] and f"{value} is too short" in errors[0]
        assert "missing.json" not in captured.err

    @pytest.mark.parametrize("command", ["train", "evaluate", "synth"])
    def test_negative_seed_exits_2(self, workdir, tmp_path, capsys, command):
        log = ["--log", str(workdir / "log.csv")]
        needs = {"train": [*log, "--out", str(tmp_path / "model.json")],
                 "evaluate": [*log, "--out", str(tmp_path / "metrics.csv")],
                 "synth": ["--out", str(tmp_path / "log.csv")]}
        assert main([command, *needs[command], "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error: ") and "\n" not in err
        assert "seed" in err and "-1" in err
        assert list(tmp_path.iterdir()) == []  # nothing written

    @pytest.mark.parametrize("command", ["predict", "explain"])
    def test_bad_delimiter_exits_2_before_the_model_is_read(self, workdir, tmp_path, capsys,
                                                             command):
        assert main([command, "--model", str(tmp_path / "missing.json"),
                     "--log", str(workdir / "log.csv"), "--delimiter", ";;"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error: ") and "\n" not in err
        assert "delimiter" in err and "missing.json" not in err

    @pytest.mark.parametrize("command", ["stats", "train", "predict", "explain", "evaluate"])
    def test_log_not_utf8_exits_2(self, workdir, tmp_path, capsys, command):
        log = tmp_path / "latin1.csv"
        log.write_bytes(b"case,activity,timestamp\nc1,A\xff,2024-01-01 10:00:00\n")
        model = ["--model", str(workdir / "model.json")]
        out = ["--out", str(tmp_path / "out")]
        needs = {"stats": [], "train": out, "predict": model, "explain": model,
                 "evaluate": out}
        assert main([command, "--log", str(log), *needs[command]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {log}: not UTF-8 text\n"
        assert list(tmp_path.iterdir()) == [log]  # nothing written

    @pytest.mark.parametrize("command", ["stats", "train", "predict"])
    @pytest.mark.parametrize("stamp", ["9999-12-31T23:59:00-01:00", "0001-01-01T00:30:00+01:00"])
    def test_timestamp_outside_years_1_to_9999_exits_2(self, workdir, tmp_path, capsys,
                                                        command, stamp):
        log = tmp_path / "far.csv"
        log.write_text(f"case,activity,timestamp\nc1,A,{stamp}\nc1,B,{stamp}\n")
        needs = {"stats": [], "train": ["--out", str(tmp_path / "out")],
                 "predict": ["--model", str(workdir / "model.json"),
                             "--out", str(tmp_path / "out")]}
        assert main([command, "--log", str(log), *needs[command]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: row 2: cannot parse timestamp {stamp!r}\n"
        assert list(tmp_path.iterdir()) == [log]  # nothing written

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


class TestTimestampForms:
    """The README's timestamp rule, on whichever Python runs the tests: the
    portable forms read the same UTC time on every supported version; the
    wider ISO-8601 forms of Python 3.11's ``fromisoformat`` read on 3.11+
    and exit 2 on 3.10."""

    @pytest.mark.parametrize("stamp, utc", [
        ("2024-01-01", "2024-01-01 00:00:00"),
        ("2024-01-01 10:00", "2024-01-01 10:00:00"),
        ("2024-01-01T10:00", "2024-01-01 10:00:00"),
        ("2024-01-01 10:00:00", "2024-01-01 10:00:00"),
        ("2024-01-01T10:00:00", "2024-01-01 10:00:00"),
        ("2024-01-01 10:00:00.500", "2024-01-01 10:00:00.500000"),
        ("2024-01-01T10:00:00.123456", "2024-01-01 10:00:00.123456"),
        ("2024-01-01 10:00:00Z", "2024-01-01 10:00:00"),
        ("2024-01-01T10:00:00.123456z", "2024-01-01 10:00:00.123456"),
        ("2024-01-01T10:00:00+02:00", "2024-01-01 08:00:00"),
        ("2024-01-01 10:00-05:30", "2024-01-01 15:30:00"),
        ("2024-01-01 10:00:00.250+01:00", "2024-01-01 09:00:00.250000"),
    ])
    def test_portable_form_reads_everywhere(self, tmp_path, capsys, stamp, utc):
        log = tmp_path / "log.csv"
        log.write_text(f"case,activity,timestamp\nc1,A,{stamp}\nc1,B,{stamp}\n")
        assert main(["stats", "--log", str(log)]) == 0
        assert capsys.readouterr().err == ""
        out = tmp_path / "out.csv"
        serialize_log(parse_log(str(log)), str(out))
        assert out.read_text().splitlines()[1:] == [f"c1,A,{utc}", f"c1,B,{utc}"]

    @pytest.mark.parametrize("stamp", [
        "20240101", "2024-W01-1", "2024-01-01 10:00:00.5", "2024-01-01 10:00:00.5000",
        "20240101T100000", "2024-01-01 10:00:00+0200", "2024-01-01 10:00:00+02",
    ])
    def test_newer_iso_form_reads_from_python_3_11(self, tmp_path, capsys, stamp):
        log = tmp_path / "log.csv"
        log.write_text(f"case,activity,timestamp\nc1,A,{stamp}\nc1,B,{stamp}\n")
        code = main(["stats", "--log", str(log)])
        err = capsys.readouterr().err
        if sys.version_info >= (3, 11):
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (2, f"error: row 2: cannot parse timestamp {stamp!r}\n")
