"""Cross-module integration tests: the full design-to-silicon story."""

import pytest

from repro.automata.equivalence import equivalent
from repro.core.pipeline import design_predictor, reference_chain
from repro.harness.branch_training import (
    collect_branch_models,
    design_branch_predictors,
    fsm_correct_counts,
    rank_branches_by_misses,
)
from repro.predictors.base import simulate_predictor
from repro.predictors.custom import CustomBranchPredictor
from repro.predictors.xscale import XScalePredictor
from repro.synth.area import estimate_area
from repro.synth.logic_synthesis import synthesize_machine
from repro.synth.vhdl import generate_vhdl
from repro.workloads.programs import branch_trace


class TestDesignToSilicon:
    """trace -> machine -> encoded netlist -> VHDL, all consistent."""

    def test_full_stack_on_paper_trace(self, paper_trace):
        result = design_predictor(paper_trace, order=2)
        machine = result.machine

        # The machine provably matches the paper's chain on its cover.
        oracle = reference_chain(result.cover, order=2).final
        assert equivalent(machine, oracle)

        # The synthesized netlist simulates identically.
        synth = synthesize_machine(machine)
        for text in ("", "0", "1", "0110", "111000111"):
            _code, output = synth.run_codes(text)
            assert output == machine.output_after(text)

        # The VHDL mentions exactly the machine's states.
        vhdl = generate_vhdl(machine)
        assert f"type state_type is ({', '.join(f's{i}' for i in range(machine.num_states))});" in vhdl

        # And the area report is consistent with the netlist.
        report, synth2 = estimate_area(machine, return_synth=True)
        assert report.flip_flops == synth2.num_flip_flops

    @pytest.mark.parametrize("order", [3, 5, 7])
    def test_full_stack_on_benchmark_branch(self, cached_trace, order):
        trace = cached_trace("ijpeg", 8_000)
        models = collect_branch_models(trace, order=order)
        ranked = rank_branches_by_misses(trace)
        pc = ranked[0][0]
        designs = design_branch_predictors(models, [pc])
        machine = designs[pc].machine
        oracle = reference_chain(designs[pc].cover, order=order).final
        assert equivalent(machine, oracle)
        synth = synthesize_machine(machine)
        for text in ("0" * order, "1" * order, "01" * order):
            _code, output = synth.run_codes(text)
            assert output == machine.output_after(text)


class TestCustomArchitectureEndToEnd:
    def test_customization_improves_ijpeg(self, cached_trace):
        """The Section 7 flow on real VM traces: profile, design, deploy,
        and beat the baseline on a *different* input."""
        train = cached_trace("ijpeg", 12_000)
        evaluation = branch_trace("ijpeg", "eval", 12_000)

        ranked = rank_branches_by_misses(train)
        models = collect_branch_models(train)
        designs = design_branch_predictors(models, [pc for pc, _ in ranked[:4]])
        custom = CustomBranchPredictor.from_machines(
            {pc: d.machine for pc, d in designs.items()}
        )
        baseline_stats = simulate_predictor(XScalePredictor(), evaluation)
        custom_stats = simulate_predictor(custom, evaluation)
        assert custom_stats.miss_rate < baseline_stats.miss_rate

    def test_replay_matches_simulation(self, cached_trace):
        """The harness's fast update-all replay must agree with the real
        CustomBranchPredictor simulation, branch for branch."""
        trace = cached_trace("ijpeg", 6_000)
        ranked = rank_branches_by_misses(trace)
        models = collect_branch_models(trace)
        pc = ranked[0][0]
        designs = design_branch_predictors(models, [pc])
        machine = designs[pc].machine

        fast = fsm_correct_counts(trace, {pc: machine})
        execs, correct = fast[pc]

        custom = CustomBranchPredictor.from_machines({pc: machine})
        slow_execs = slow_correct = 0
        for branch_pc, taken in trace:
            prediction = custom.predict(branch_pc)
            if branch_pc == pc:
                slow_execs += 1
                slow_correct += prediction == taken
            custom.update(branch_pc, taken)
        assert (execs, correct) == (slow_execs, slow_correct)


class TestPublicAPI:
    def test_package_exports(self):
        import repro

        assert callable(repro.design_predictor)
        assert repro.__version__
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None

    def test_readme_quickstart_snippet(self):
        from repro import design_predictor as dp

        trace = [int(c) for c in "000010001011110111101111"]
        result = dp(trace, order=2)
        assert result.cover_strings() == ["x1", "1x"]
