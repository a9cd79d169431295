"""Property test of the index-encoded dataset against the dense one-hot
assembly, over random logs."""
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from xnap.encoding import build_vocabulary, max_augmented_length

from conftest import make_log
from test_encoding import assert_matches_dense


@settings(max_examples=60, deadline=None)
@given(traces=st.lists(st.lists(st.sampled_from("ABCDEF"), min_size=1, max_size=8),
                       min_size=1, max_size=6),
       extra=st.integers(0, 3))
def test_random_logs_match_dense_oracle(traces, extra):
    log = make_log(traces)
    vocab = build_vocabulary(log)
    assert_matches_dense(log, vocab, max_augmented_length(log) + extra)
