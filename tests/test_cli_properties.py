"""Generated hostile model files: a valid model file with one key dropped,
one header or array field swapped for another JSON type, or one array's
``base64``, ``shape`` or ``dtype`` corrupted. ``xnap predict`` rejects
every such file with exit code 2 and one ``error:`` line, and writes no
output file."""
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
