"""Production builds every machine with the direct history construction;
the paper's regex -> NFA -> DFA chain only runs when asked for."""

from __future__ import annotations

import itertools

import pytest

import repro.core.pipeline as pipeline
from repro.core import cancel
from repro.core.markov import MarkovModel
from repro.core.patterns import PatternSets
from repro.core.pipeline import (
    DesignConfig,
    FSMDesigner,
    design_predictor,
    reference_chain,
)
from repro.perf.cache import cache_stats, reset_cache_stats
from repro.reliability.errors import DeadlineError

PAPER_TRACE = [int(ch) for ch in "000010001011110111101111"]


def _all_pattern_sets(width: int):
    """Every assignment of the 2^width histories to predict-1, predict-0
    or don't-care."""
    histories = range(1 << width)
    for labels in itertools.product((1, 0, None), repeat=1 << width):
        yield PatternSets(
            order=width,
            predict_one=frozenset(h for h in histories if labels[h] == 1),
            predict_zero=frozenset(h for h in histories if labels[h] == 0),
        )


def test_production_equals_reference_chain_exhaustively():
    """Every truth table of width <= 3 with don't-cares (3^2 + 3^4 + 3^8 =
    6,651 tables): the direct construction lands on exactly the chain's
    final machine -- same states, numbering, start and outputs."""
    checked = 0
    for width in (1, 2, 3):
        designer = FSMDesigner(DesignConfig(order=width))
        model = MarkovModel(order=width)
        for patterns in _all_pattern_sets(width):
            result = designer.design_from_patterns(model, patterns)
            chain = reference_chain(result.cover, width)
            assert result.machine == chain.final, (
                f"width {width}: {patterns} cover={result.cover_strings()}"
            )
            checked += 1
    assert checked == 3**2 + 3**4 + 3**8


@pytest.mark.parametrize("canonical", ["00", "01", "10", "11"])
def test_canonical_history_matches_reference_chain(canonical):
    result = FSMDesigner(
        DesignConfig(order=2, canonical_history=canonical)
    ).design_from_patterns(
        MarkovModel(order=2),
        PatternSets(order=2, predict_one=frozenset({1, 2, 3}), predict_zero=frozenset({0})),
    )
    chain = reference_chain(result.cover, 2, canonical_history=canonical)
    assert result.machine == chain.final


class TestChainOnlyOnDemand:
    def _forbid_chain(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("the reference chain ran on the design path")

        monkeypatch.setattr(pipeline, "thompson_construct", refuse)
        monkeypatch.setattr(pipeline, "subset_construct", refuse)

    @pytest.mark.parametrize("order", [1, 2, 4, 6])
    def test_design_never_runs_subset_construction(self, monkeypatch, order):
        trace = PAPER_TRACE * 8
        monkeypatch.setenv("REPRO_CACHE", "0")
        expected = design_predictor(trace, order=order).machine
        self._forbid_chain(monkeypatch)
        result = design_predictor(trace, order=order)
        assert result.machine == expected
        model = MarkovModel.from_trace(trace, order)
        assert FSMDesigner(DesignConfig(order=order)).design_from_model(
            model
        ).machine == expected

    def test_cache_hit_validation_never_runs_the_chain(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        expected = design_predictor(PAPER_TRACE, order=4).machine
        self._forbid_chain(monkeypatch)
        reset_cache_stats()
        assert design_predictor(PAPER_TRACE, order=4).machine == expected
        stats = cache_stats()
        assert (stats.hits, stats.quarantined) == (1, 0)

    def test_reading_a_count_runs_the_chain_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        calls = []
        real = pipeline.subset_construct

        def counting(nfa):
            calls.append(nfa.num_states)
            return real(nfa)

        monkeypatch.setattr(pipeline, "subset_construct", counting)
        result = design_predictor(PAPER_TRACE, order=2)
        assert calls == []
        assert result.minimized_states == 5
        assert result.startup_states_removed == 2
        assert result.dfa_states >= result.minimized_states
        assert result.nfa_states > 0
        assert str(result.regex)
        assert len(calls) == 1


def test_empty_cover_counts():
    result = design_predictor([0] * 40, order=3)
    assert result.cover == []
    assert (result.nfa_states, result.dfa_states, result.minimized_states) == (0, 1, 1)
    assert result.startup_states_removed == 0
    assert result.machine == reference_chain([], 3).final


def test_reading_counts_past_the_deadline_stops_the_chain(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    result = design_predictor(PAPER_TRACE, order=3)
    with cancel.deadline_scope(1e-9):
        with pytest.raises(DeadlineError):
            result.nfa_states
    assert result.nfa_states > 0  # no half-built memo was left behind
