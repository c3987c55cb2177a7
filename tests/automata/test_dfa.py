"""Tests for subset construction and DFA behaviour."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import regex as rx
from repro.automata.dfa import DFA, subset_construct
from repro.automata.nfa import EPSILON, NFA, thompson_construct

REGEX_CASES = [
    "0",
    "(0|1)*",
    "1(0|1)",
    "(0|1)*((0|1)1|1(0|1))",
    "(01)*",
    "0*1*",
]


def build(pattern: str) -> DFA:
    return subset_construct(
        thompson_construct(rx.parse_regex(pattern), alphabet=("0", "1"))
    )


def all_strings(max_len):
    yield ""
    frontier = [""]
    for _ in range(max_len):
        frontier = [s + c for s in frontier for c in "01"]
        yield from frontier


class TestValidation:
    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            DFA(alphabet=("0", "1"), start=0, accepts=frozenset(), transitions=((0,),))

    def test_successor_range_checked(self):
        with pytest.raises(ValueError):
            DFA(alphabet=("0", "1"), start=0, accepts=frozenset(), transitions=((0, 5),))

    def test_start_range_checked(self):
        with pytest.raises(ValueError):
            DFA(alphabet=("0", "1"), start=3, accepts=frozenset(), transitions=((0, 0),))

    def test_accept_range_checked(self):
        with pytest.raises(ValueError):
            DFA(
                alphabet=("0", "1"),
                start=0,
                accepts=frozenset({9}),
                transitions=((0, 0),),
            )


class TestSubsetConstruction:
    @pytest.mark.parametrize("pattern", REGEX_CASES)
    def test_language_equivalence_with_nfa(self, pattern):
        nfa = thompson_construct(rx.parse_regex(pattern), alphabet=("0", "1"))
        dfa = subset_construct(nfa)
        for text in all_strings(7):
            assert dfa.accepts_string(text) == nfa.accepts_string(text), (
                pattern,
                text,
            )

    @pytest.mark.parametrize("pattern", REGEX_CASES)
    def test_result_is_complete(self, pattern):
        dfa = build(pattern)
        for row in dfa.transitions:
            assert len(row) == 2
            for successor in row:
                assert 0 <= successor < dfa.num_states

    def test_start_is_zero(self):
        assert build("(0|1)*").start == 0

    def test_dead_state_for_finite_language(self):
        dfa = build("01")
        # "011" must be rejected, and further symbols stay rejected.
        state = dfa.run("011")
        assert state not in dfa.accepts
        assert dfa.step(state, "0") == state  # trapped

    def test_deterministic_output(self):
        a, b = build("(01)*"), build("(01)*")
        assert a.transitions == b.transitions
        assert a.accepts == b.accepts


class TestRunHelpers:
    def test_run_from_custom_start(self):
        dfa = build("(0|1)*1")
        mid = dfa.run("1")
        assert dfa.run("0", start=mid) == dfa.run("10")

    def test_symbol_index_unknown(self):
        with pytest.raises(KeyError):
            build("0").symbol_index("x")

    def test_reachable_states_cover_all(self):
        dfa = build("(0|1)*((0|1)1|1(0|1))")
        # Subset construction only emits reachable states.
        assert dfa.reachable_states() == set(range(dfa.num_states))


@given(st.sampled_from(REGEX_CASES), st.text("01", max_size=10))
def test_property_dfa_matches_nfa(pattern, text):
    nfa = thompson_construct(rx.parse_regex(pattern), alphabet=("0", "1"))
    dfa = subset_construct(nfa)
    assert dfa.accepts_string(text) == nfa.accepts_string(text)


@st.composite
def arbitrary_nfas(draw):
    """Random NFAs with epsilon cycles, backward epsilon edges, unreachable
    states and empty moves -- shapes Thompson construction never makes."""
    n = draw(st.integers(1, 40))
    rng = random.Random(draw(st.integers(0, 2**16)))
    p_eps = draw(st.sampled_from([0.0, 0.05, 0.2]))
    p_sym = draw(st.sampled_from([0.03, 0.1, 0.3]))
    transitions = {}
    for state in range(n):
        for symbol, p in ((EPSILON, p_eps), ("0", p_sym), ("1", p_sym)):
            dsts = frozenset(t for t in range(n) if rng.random() < p)
            if dsts:
                transitions[(state, symbol)] = dsts
    return NFA(
        num_states=n,
        alphabet=("0", "1"),
        start=rng.randrange(n),
        accepts=frozenset(t for t in range(n) if rng.random() < 0.25),
        transitions=transitions,
    )


@settings(max_examples=60, deadline=None)
@given(arbitrary_nfas())
def test_property_arbitrary_nfa_language_preserved(nfa):
    dfa = subset_construct(nfa)
    for text in all_strings(6):
        assert dfa.accepts_string(text) == nfa.accepts_string(text), text
