"""Generated hostile inputs.

Model files: a valid model file with one key dropped, one header or array
field swapped for another JSON type, or one array's ``base64``, ``shape``
or ``dtype`` corrupted. ``xnap predict`` rejects every such file with exit
code 2 and one ``error:`` line, and writes no output file.

Logs: a valid log with one field, line or byte mutated, written with any
line ends and with or without a byte-order mark. ``xnap stats`` and ``xnap
predict`` accept it (0, or 3 when no case is left to predict on) or reject
it with exit code 2; they never raise, print at most one ``error:`` line
and write no output file on an error."""
import copy
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from xnap.bilstm import TrainConfig, init_model, save_model
from xnap.cli import main

from test_bilstm import dummy_vocab
from test_cli import write_log

_model = io.StringIO()
save_model(init_model(dummy_vocab(4), 6, TrainConfig(hidden_size=3, seed=0)), _model)
VALID = json.loads(_model.getvalue())
CASES = {"c1": ["a0", "a1", "a2", "a0"], "c2": ["a2", "a1"]}

ARRAYS = [(side, kind) for side in ("forward", "backward") for kind in ("W", "U", "b")] \
    + [("W_out",), ("b_out",)]
HEADERS = [("format_version",), ("hidden_size",), ("max_len",), ("vocab",), ("vocab", 0),
           ("hyperparams",), ("hyperparams", "trained_epochs")]
FIELDS = [array + (field,) for array in ARRAYS for field in ("dtype", "shape", "base64")]
# Every key a model file needs; the hyperparameters are optional.
REQUIRED = [(key,) for key in VALID if key != "hyperparams"] + ARRAYS + FIELDS
JSON_VALUES = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(-2, 10 ** 6),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: st.text(max_size=6),
    list: st.lists(st.integers(0, 9), max_size=3),
    dict: st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2),
}


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def corrupt_base64(draw, text):
    """Invalid base64, or valid base64 of the wrong byte count."""
    how = draw(st.sampled_from(["insert", "truncate", "append"]))
    if how == "insert":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from("!*-_. \né")) + text[at:]
    if how == "truncate":
        return text[:-draw(st.integers(1, len(text)))]
    return text + draw(st.sampled_from(["A", "AA==", "AAAA", "AAAAAAAA"]))


@st.composite
def corrupt_shape(draw, shape):
    """A shape list that differs from ``shape``."""
    shape = list(shape)
    how = draw(st.sampled_from(["grow", "text", "append", "drop"]))
    at = draw(st.integers(0, len(shape) - 1))
    if how == "grow":
        shape[at] += draw(st.sampled_from([-1, 1, 10 ** 9]))
    elif how == "text":
        shape[at] = str(shape[at])
    elif how == "append":
        shape.append(1)
    else:
        del shape[at]
    return shape


@st.composite
def hostile_models(draw):
    """:data:`VALID` with one mutation, and what it did."""
    doc = copy.deepcopy(VALID)
    how = draw(st.sampled_from(["drop", "swap", "base64", "shape", "dtype"]))
    if how == "drop":
        path = draw(st.sampled_from(REQUIRED))
        del _parent(doc, path)[path[-1]]
    elif how == "swap":
        path = draw(st.sampled_from(draw(st.sampled_from([HEADERS, ARRAYS, FIELDS]))))
        old = _parent(doc, path)[path[-1]]
        kind = draw(st.sampled_from([t for t in JSON_VALUES if t is not type(old)]))
        _parent(doc, path)[path[-1]] = draw(JSON_VALUES[kind])
    else:
        path = draw(st.sampled_from(ARRAYS)) + (how,)
        array = _parent(doc, path)
        array[how] = draw(corrupt_base64(array["base64"]) if how == "base64"
                          else corrupt_shape(array["shape"]) if how == "shape"
                          else st.sampled_from(["<f4", ">f8", "float64", "<i8", "", "<F8"]))
    return doc, (how, path)


def predict(doc) -> tuple[int, str, str, bool]:
    """``xnap predict`` of :data:`CASES` on the model file ``doc``: the exit
    code, stdout, stderr and whether the output file exists."""
    with tempfile.TemporaryDirectory() as tmp:
        log = write_log(Path(tmp, "log.csv"), CASES)
        model, out = Path(tmp, "model.json"), Path(tmp, "out.csv")
        model.write_text(json.dumps(doc))
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(["predict", "--model", str(model), "--log", log, "--out", str(out)])
        return code, stdout.getvalue(), stderr.getvalue(), out.exists()


def test_valid_model_predicts():
    code, _, err, wrote = predict(VALID)
    assert (code, err, wrote) == (0, "", True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hostile_models())
def test_hostile_model_file_exits_2(case):
    doc, mutation = case
    code, out, err, wrote = predict(doc)
    assert code == 2, mutation
    assert out == ""
    assert re.fullmatch(r"error: [^\n]*\n", err), (mutation, err)
    assert not wrote


# --- hostile logs -------------------------------------------------------------

LOG_LINES = ["case,activity,timestamp"] + [
    f"{case},{a},2024-01-01 10:00:{i:02d}" for case, acts in CASES.items()
    for i, a in enumerate(acts)]
ODD_STAMPS = ["2024-01-01 10:61:00", "2024-02-30 10:00:00", "2024-01-01 24:00:00",
              "9999-12-31T23:59:00-01:00", "0001-01-01T00:30:00+01:00",
              "9999-12-31T23:59:59+23:59", "2024-01-01T10:00:00+24:00", "2024-01-01T10:00:00Z",
              "2024-01-01", "20240101T100000", "2024-W01-1", "2024-01-01 10:00:00.5",
              "0000-01-01 00:00:00", "10000-01-01 00:00:00", "1e400", "nan", "", " \t "]
MARKUP = ["<script>alert(1)</script>", "<b>a0</b>", "a0&amp;", "]]>", "\"><img src=x>",
          "\u202ea0", "__END__"]
INSERTS = ["\0", "\t", '"', "'", ",", ";", "\ufeff", "\u2028", "\\", " "]


# (mutation, value): every listed value is run; None draws the value.
MUTATIONS = [("none", None), ("unclosed_quote", None), ("stray_quote", None),
             ("extra_field", None), ("missing_field", None), ("repeated_header", None),
             ("non_utf8", None), ("long_field", 131072), ("long_field", 131073),
             ("timestamp", None)] \
    + [("insert", c) for c in INSERTS] + [("timestamp", t) for t in ODD_STAMPS] \
    + [("markup", m) for m in MARKUP]


@st.composite
def hostile_log_lines(draw, how, value):
    """The lines of :data:`LOG_LINES`, as UTF-8 bytes without line ends,
    with the mutation ``how`` of ``value`` at a drawn place."""
    lines = [line.split(",") for line in LOG_LINES]
    at = draw(st.integers(1, len(lines) - 1))  # a row
    col = draw(st.integers(0, 2))
    row = lines[at]
    if how == "unclosed_quote":
        row[col] = '"' + row[col]
    elif how == "stray_quote":
        cut = draw(st.integers(1, len(row[col])))
        row[col] = row[col][:cut] + '"' + row[col][cut:]
    elif how == "extra_field":
        row.append(draw(st.sampled_from(["", "x", "2024-01-01 10:00:00"])))
    elif how == "missing_field":
        del row[col]
    elif how == "repeated_header":  # the repeated name reads the last column
        for line in lines:
            line.append(line[col])
    elif how == "long_field":
        row[col] = "B" * value
    elif how == "timestamp":
        row[2] = draw(st.text(max_size=12)) if value is None else value
    elif how == "markup":
        row[draw(st.integers(0, 1))] = value
    data = [",".join(line).encode() for line in lines]
    if how == "insert":
        at = draw(st.integers(0, len(lines) - 1))  # the header too
        cut = draw(st.integers(0, len(data[at])))
        data[at] = data[at][:cut] + value.encode() + data[at][cut:]
    elif how == "non_utf8":
        cut = draw(st.integers(0, len(data[at])))
        data[at] = data[at][:cut] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at][cut:]
    return data


def run_on_log(command: str, data: bytes) -> tuple[int, str, str, bool]:
    """``xnap stats`` or ``xnap predict`` (on :data:`VALID`) of the log
    ``data``: the exit code, stdout, stderr and whether ``--out`` exists."""
    with tempfile.TemporaryDirectory() as tmp:
        log, out = Path(tmp, "log.csv"), Path(tmp, "out.csv")
        log.write_bytes(data)
        argv = ["stats", "--log", str(log)]
        if command == "predict":
            model = Path(tmp, "model.json")
            model.write_text(json.dumps(VALID))
            argv = ["predict", "--model", str(model), "--log", str(log), "--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        return code, stdout.getvalue(), stderr.getvalue(), out.exists()


@pytest.mark.parametrize("command", ["stats", "predict"])
def test_valid_log_runs(command):
    code, out, err, wrote = run_on_log(command, "\n".join(LOG_LINES).encode() + b"\n")
    assert (code, err, wrote) == (0, "", command == "predict")


@pytest.mark.parametrize("how, value", MUTATIONS)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(draws=st.data(), line_end=st.sampled_from([b"\n", b"\r\n", b"\r"]), bom=st.booleans())
def test_hostile_log_exits_0_2_or_3(how, value, draws, line_end, bom):
    lines = draws.draw(hostile_log_lines(how, value))
    log = (b"\xef\xbb\xbf" if bom else b"") + b"".join(line + line_end for line in lines)
    codes = {}
    for command in ("stats", "predict"):
        code, out, err, wrote = run_on_log(command, log)
        codes[command] = code
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code in (0, 2, 3), (how, command, err)
        assert len(errors) == (code != 0), (how, command, err)
        if code:
            assert out == "" and not wrote, (how, command)
        if how == "non_utf8" or b"\0" in log or b"B" * 131073 in log:
            assert code == 2, (how, command, err)
    # Line ends and a leading byte-order mark change no outcome.
    plain = b"".join(line + b"\n" for line in lines)
    if plain != log:
        assert run_on_log("stats", plain)[0] == codes["stats"], (how, line_end, bom)
