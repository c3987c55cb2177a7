"""End-to-end tests of the design pipeline, anchored on the paper's
worked example (Sections 4.2-4.7, Figure 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.markov import MarkovModel
from repro.core.pipeline import (
    DesignConfig,
    FSMDesigner,
    design_predictor,
    reference_chain,
)
from repro.logic.cube import Cube, cover_contains


def all_strings_of_length(n):
    frontier = [""]
    for _ in range(n):
        frontier = [s + c for s in frontier for c in "01"]
    return frontier


class TestWorkedExample:
    """Every number the paper reports for trace t."""

    def test_cover_is_x1_or_1x(self, paper_trace):
        result = design_predictor(paper_trace, order=2)
        assert set(result.cover) == {Cube.from_string("-1"), Cube.from_string("1-")}

    def test_cover_strings_notation(self, paper_trace):
        result = design_predictor(paper_trace, order=2)
        assert set(result.cover_strings()) == {"x1", "1x"}

    def test_minimized_machine_has_five_states(self, paper_trace):
        # Figure 1 left: the Hopcroft-minimized machine with start-up states.
        result = design_predictor(paper_trace, order=2)
        assert result.minimized_states == 5

    def test_two_startup_states_removed(self, paper_trace):
        result = design_predictor(paper_trace, order=2)
        assert result.startup_states_removed == 2

    def test_final_machine_has_three_states(self, paper_trace):
        # Figure 1 right.
        result = design_predictor(paper_trace, order=2)
        assert result.machine.num_states == 3

    def test_final_machine_captures_patterns(self, paper_trace):
        # "the patterns ending in 01, 10, and 11 are still captured
        # correctly" -- from any state.
        machine = design_predictor(paper_trace, order=2).machine
        for start in range(machine.num_states):
            assert machine.outputs[machine.run("01", start=start)] == 1
            assert machine.outputs[machine.run("10", start=start)] == 1
            assert machine.outputs[machine.run("11", start=start)] == 1
            assert machine.outputs[machine.run("00", start=start)] == 0

    def test_exactly_one_predict_zero_state(self, paper_trace):
        machine = design_predictor(paper_trace, order=2).machine
        assert sorted(machine.outputs) == [0, 1, 1]

    def test_summary_mentions_cover(self, paper_trace):
        assert "x1|1x" in design_predictor(paper_trace, order=2).summary()


class TestConfigValidation:
    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            DesignConfig(order=0)

    def test_canonical_history_length_checked(self):
        with pytest.raises(ValueError):
            DesignConfig(order=3, canonical_history="01")

    def test_canonical_history_alphabet_checked(self):
        with pytest.raises(ValueError):
            DesignConfig(order=2, canonical_history="2x")


class TestDegenerateCases:
    def test_all_ones_trace(self):
        result = design_predictor([1] * 40, order=3)
        assert result.machine.num_states == 1
        assert result.machine.outputs == (1,)

    def test_all_zeros_trace(self):
        result = design_predictor([0] * 40, order=3)
        assert result.machine.num_states == 1
        assert result.machine.outputs == (0,)

    def test_alternating_trace(self):
        result = design_predictor([0, 1] * 30, order=2)
        machine = result.machine
        # Prediction must track the alternation: after 01 predict 0 etc.
        assert machine.output_after("0101") == 0
        assert machine.output_after("1010") == 1

    def test_design_from_model_truncates_higher_order(self, paper_trace):
        model = MarkovModel.from_trace(paper_trace, order=4)
        designer = FSMDesigner(DesignConfig(order=2))
        result = designer.design_from_model(model)
        assert result.model.order == 2

    def test_no_reduction_keeps_startup_states(self, paper_trace):
        # The reference chain's machine before start-state reduction still
        # carries Figure 1's start-up states.
        result = design_predictor(paper_trace, order=2)
        chain = reference_chain(result.cover, order=2)
        assert chain.minimized.num_states == 5
        assert chain.final.num_states == 3


class TestKeyInvariant:
    """Section 7.6: 'no matter what state the FSM predictor was in before
    performing the H branch updates, after the updates it will be in the
    desired prediction state.'"""

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_output_determined_by_last_n_bits(self, paper_trace, order):
        result = design_predictor(paper_trace, order=order)
        machine = result.machine
        for history in all_strings_of_length(order):
            expected = 1 if cover_contains(result.cover, int(history, 2)) else 0
            for start in range(machine.num_states):
                assert machine.outputs[machine.run(history, start=start)] == expected

    def test_equivalent_to_direct_construction(self, paper_trace):
        # Production (the direct construction) and the paper's chain both
        # start in their all-zeros-history state, so they must agree on
        # every input string, not only long ones.
        result = design_predictor(paper_trace, order=2)
        chain = reference_chain(result.cover, order=2).final
        assert chain.num_states == result.machine.num_states
        for length in range(6):
            for text in all_strings_of_length(length):
                assert result.machine.output_after(text) == chain.output_after(text)


@given(
    st.lists(st.integers(0, 1), min_size=20, max_size=80),
    st.integers(1, 4),
)
@settings(max_examples=30)
def test_property_pipeline_machine_matches_direct_oracle(trace, order):
    """The production machine (the directly constructed minimal history
    automaton) must be equivalent on steady-state strings to the final
    machine of the paper's regex->NFA->DFA->Hopcroft->reduction chain."""
    result = design_predictor(trace, order=order)
    oracle = reference_chain(result.cover, order=order).final
    assert result.machine.num_states == oracle.num_states
    frontier = [""]
    for _ in range(order + 3):
        frontier = [s + c for s in frontier for c in "01"]
    for text in frontier:
        assert result.machine.output_after(text) == oracle.output_after(text)


@given(
    st.lists(st.integers(0, 1), min_size=20, max_size=80),
    st.integers(1, 4),
    st.floats(0.5, 1.0),
)
@settings(max_examples=30)
def test_property_machine_realizes_cover(trace, order, threshold):
    result = design_predictor(trace, order=order, bias_threshold=threshold)
    machine = result.machine
    for history_int in range(1 << order):
        history = format(history_int, f"0{order}b")
        expected = 1 if cover_contains(result.cover, history_int) else 0
        for start in range(machine.num_states):
            assert machine.outputs[machine.run(history, start=start)] == expected
