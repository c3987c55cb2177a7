"""Conformance check #10: the optimal-predictor bound.

The stage's contract: a designed machine small enough for the exhaustive
oracle to search can never mispredict *fewer* times than the oracle's
exact optimum at that size.  These tests prove the stage is wired in,
passes on honest pipelines, and actually fires when the bound is
(artificially) violated.
"""

from __future__ import annotations

from repro.automata.moore import BINARY_ALPHABET, MooreMachine
from repro.conformance.diff import OPTIMAL_CHECK_MAX_BITS, STAGES, check_conformance
from repro.conformance.golden import check_oracle_corpus
from repro.predictors.optimal import OptimalResult


class TestStageRegistration:
    def test_sim_optimal_is_the_last_stage(self):
        assert STAGES[-1] == "sim.optimal"
        assert len(STAGES) == 11
        # The production construction is checked right after the chain.
        assert STAGES.index("core.direct") == STAGES.index("automata.startup") + 1

    def test_trace_length_gate_is_sane(self):
        assert OPTIMAL_CHECK_MAX_BITS >= 1024


class TestHonestPipelinesConform:
    def test_paper_trace_passes_through_stage_ten(self):
        trace = [int(c) for c in "000010001011110111101111" * 2]
        for order in (1, 2):
            assert check_conformance(trace, order) is None

    def test_oracle_corpus_has_no_violations(self):
        assert check_oracle_corpus() == []


class TestStageFiresOnViolation:
    def test_inflated_bound_is_reported_as_sim_optimal(self, monkeypatch):
        trace = [int(c) for c in "000010001011110111101111"]

        def inflated(bits, kmax=None, **kwargs):
            witness = MooreMachine(
                alphabet=BINARY_ALPHABET,
                start=0,
                outputs=(0,),
                transitions=((0, 0),),
            )
            return {
                k: OptimalResult(
                    num_states=k,
                    mispredicts=len(bits) + 1,  # unbeatable => always fires
                    lookups=len(bits),
                    witness=witness,
                    structures_searched=1,
                )
                for k in range(1, (kmax or 4) + 1)
            }

        monkeypatch.setattr(
            "repro.predictors.optimal.optimal_predictors", inflated
        )
        divergence = check_conformance(trace, 2)
        assert divergence is not None
        assert divergence.stage == "sim.optimal"
        assert "beating the exhaustive optimum" in divergence.detail

    def test_corpus_checker_reports_violations(self, monkeypatch):
        def inflated(bits, kmax=None, **kwargs):
            witness = MooreMachine(
                alphabet=BINARY_ALPHABET,
                start=0,
                outputs=(0,),
                transitions=((0, 0),),
            )
            return {
                k: OptimalResult(
                    num_states=k,
                    mispredicts=len(bits) + 1,
                    lookups=len(bits),
                    witness=witness,
                    structures_searched=1,
                )
                for k in range(1, (kmax or 4) + 1)
            }

        monkeypatch.setattr(
            "repro.predictors.optimal.optimal_predictors", inflated
        )
        issues = check_oracle_corpus()
        assert issues, "inflated bound must be reported"
        assert any("beats the exhaustive optimum" in issue for issue in issues)
