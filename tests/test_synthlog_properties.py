"""Property test: the Markov sampler draws the same walks as the
``rng.choice`` oracle, event for event, on random valid grammars."""
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from xnap.errors import InvalidSpec
from xnap.synthlog import GrammarSpec, generate

from oracles import generate_markov_choice

# 0.1 + 0.2 + 0.7 sums to 0.9999999999999999, so normalization is not a no-op.
_WEIGHTS = st.sampled_from([0.0, 0.1, 0.2, 0.7, 1.0])


@st.composite
def markov_specs(draw):
    """States s0..s{k-1}; s_i always can move on to s_{i+1} (the last one
    to a stop), so every state can terminate and the chain walk of length
    k fits the length range. Other edges, zero-probability ones included,
    are random; a state with no other edge is a single-choice state."""
    k = draw(st.integers(1, 4))
    states = [f"s{i}" for i in range(k)]
    transitions = {}
    for i, state in enumerate(states):
        chain = states[i + 1] if i + 1 < k else None
        others = draw(st.lists(st.sampled_from([None, *states]), max_size=3))
        weighted = [(chain, draw(st.sampled_from([1.0, 3.0])))]
        weighted += [(nxt, draw(_WEIGHTS)) for nxt in others]
        weighted = draw(st.permutations(weighted))
        total = sum(w for _, w in weighted)
        transitions[state] = tuple((nxt, w / total) for nxt, w in weighted)
    min_length = draw(st.integers(1, k))
    max_length = draw(st.integers(max(k, min_length), k + 3))  # caps that force resampling
    return GrammarSpec(mode="markov", n_traces=draw(st.integers(1, 15)),
                       seed=draw(st.integers(0, 2**32 - 1)), start="s0",
                       transitions=transitions, min_length=min_length,
                       max_length=max_length)


def _outcome(make):
    try:
        return make()
    except InvalidSpec as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(spec=markov_specs())
def test_generate_matches_choice_oracle(spec):
    assert _outcome(lambda: generate(spec)) == _outcome(lambda: generate_markov_choice(spec))
