"""Ablations for the design choices the paper asserts in text.

* **Don't-care sizing** (Section 4.3): "by placing only the 1% least seen
  histories in the 'don't care' set can reduce the size of the predictor
  by a factor of two with negligible impact on prediction accuracy."
  ``run_dontcare_ablation`` sweeps the fraction and reports state count
  and training-trace miss rate per setting.

* **Start-up states** (Section 4.7): "There can be up to 2^N start-up
  states, and they typically account for around one half of all states."
  ``run_startup_ablation`` designs with and without the reduction.

* **GA search** (extension; Emer & Gloy contrast, Section 3.2):
  ``run_ga_comparison`` pits a genetic-programming search for a Moore
  machine of the same size budget against the constructed predictor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.markov import MarkovModel
from repro.core.pipeline import DesignConfig, FSMDesigner
from repro.harness.branch_training import (
    collect_branch_models,
    rank_branches_by_misses,
)
from repro.harness.reporting import format_table
from repro.perf.cache import digest_of
from repro.reliability.durability import durable_map
from repro.workloads.programs import branch_trace


# ----------------------------------------------------------------------
# Don't-care fraction
# ----------------------------------------------------------------------

@dataclass
class DontCareRow:
    fraction: float
    num_states: int
    num_terms: float
    expected_miss_rate: float  # from the Markov model, see below


def _model_miss_rate(model: MarkovModel, machine) -> float:
    """Expected steady-state miss rate of ``machine`` under the history
    distribution recorded in ``model``: for each observed history, the
    machine (from any state) lands in a state predicting cover(h); compare
    with the per-history outcome counts."""
    total = 0
    misses = 0
    order = model.order
    for history in model.histories():
        count = model.count(history)
        ones = round((model.probability_of_one(history) or 0.0) * count)
        bits = format(history, f"0{order}b")
        prediction = machine.output_after(bits)
        misses += (count - ones) if prediction == 1 else ones
        total += count
    return misses / total if total else 0.0


def run_dontcare_ablation(
    benchmark: str = "vortex",
    fractions: Sequence[float] = (0.0, 0.005, 0.01, 0.02, 0.05),
    order: int = 9,
    max_branches: int = 60_000,
    top_branches: int = 5,
    run_id: Optional[str] = None,
) -> List[DontCareRow]:
    """Average predictor size and model-expected miss rate over the worst
    branches of ``benchmark``, for each don't-care fraction.

    The paper's size-halving claim needs histories that are *observed but
    rare*; vortex (noisy hashed-digest branches) is our densest-model
    benchmark and shows the effect, while motif-driven benchmarks like gs
    observe so few distinct histories that the implicit unseen-history
    don't-cares already dominate (see EXPERIMENTS.md)."""
    trace = branch_trace(benchmark, "train", max_branches)
    ranked = rank_branches_by_misses(trace)
    models = collect_branch_models(trace, order=order)
    chosen = [pc for pc, _m in ranked[:top_branches]]
    chosen_models = {pc: models.models[pc] for pc in chosen}
    return durable_map(
        partial(_dontcare_shard, order=order, models=chosen_models, chosen=chosen),
        list(fractions),
        run_id=run_id,
        sweep="ablation.dontcare",
        fingerprint=digest_of(benchmark, order, max_branches, top_branches),
    )


def _dontcare_shard(
    fraction: float,
    order: int,
    models: Dict[int, MarkovModel],
    chosen: Sequence[int],
) -> DontCareRow:
    """One don't-care fraction's row (a parallel_map shard)."""
    config = DesignConfig(
        order=order, bias_threshold=0.5, dont_care_fraction=fraction
    )
    designer = FSMDesigner(config)
    states: List[int] = []
    terms: List[int] = []
    miss_rates: List[float] = []
    for pc in chosen:
        model = models[pc]
        result = designer.design_from_model(model)
        states.append(result.machine.num_states)
        terms.append(len(result.cover))
        miss_rates.append(_model_miss_rate(model, result.machine))
    return DontCareRow(
        fraction=fraction,
        num_states=round(sum(states) / len(states)),
        num_terms=sum(terms) / len(terms),
        expected_miss_rate=sum(miss_rates) / len(miss_rates),
    )


def render_dontcare(rows: List[DontCareRow]) -> str:
    return format_table(
        ["dontcare_fraction", "avg_states", "avg_terms", "expected_miss_rate"],
        [(r.fraction, r.num_states, r.num_terms, r.expected_miss_rate) for r in rows],
        title="Ablation: don't-care fraction vs predictor size and accuracy",
    )


# ----------------------------------------------------------------------
# Start-up state reduction
# ----------------------------------------------------------------------

@dataclass
class StartupRow:
    benchmark: str
    branch_pc: int
    states_with_startup: int
    states_final: int

    @property
    def removed_fraction(self) -> float:
        if self.states_with_startup == 0:
            return 0.0
        return 1.0 - self.states_final / self.states_with_startup


def run_startup_ablation(
    benchmarks: Sequence[str] = ("ijpeg", "gs", "vortex"),
    order: int = 9,
    max_branches: int = 60_000,
    top_branches: int = 4,
    run_id: Optional[str] = None,
) -> List[StartupRow]:
    shards = durable_map(
        partial(
            _startup_shard,
            order=order,
            max_branches=max_branches,
            top_branches=top_branches,
        ),
        list(benchmarks),
        run_id=run_id,
        sweep="ablation.startup",
        fingerprint=digest_of(order, max_branches, top_branches),
    )
    return [row for shard in shards for row in shard]


def _startup_shard(
    benchmark: str, order: int, max_branches: int, top_branches: int
) -> List[StartupRow]:
    """One benchmark's startup-reduction rows (a parallel_map shard)."""
    trace = branch_trace(benchmark, "train", max_branches)
    ranked = rank_branches_by_misses(trace)
    models = collect_branch_models(trace, order=order)
    designer = FSMDesigner(DesignConfig(order=order, dont_care_fraction=0.01))
    rows: List[StartupRow] = []
    for pc, _misses in ranked[:top_branches]:
        design = designer.design_from_model(models.models[pc])
        rows.append(
            StartupRow(
                benchmark=benchmark,
                branch_pc=pc,
                # The reference chain's machine before start-state reduction.
                states_with_startup=design.minimized_states,
                states_final=design.machine.num_states,
            )
        )
    return rows


def render_startup(rows: List[StartupRow]) -> str:
    return format_table(
        ["benchmark", "branch", "with_startup", "final", "removed_frac"],
        [
            (r.benchmark, hex(r.branch_pc), r.states_with_startup,
             r.states_final, r.removed_fraction)
            for r in rows
        ],
        title="Ablation: start-up state reduction (Section 4.7)",
    )


# ----------------------------------------------------------------------
# GA-search comparison (extension)
# ----------------------------------------------------------------------

@dataclass
class GAComparisonRow:
    benchmark: str
    branch_pc: int
    constructed_states: int
    constructed_accuracy: float
    ga_states: int
    ga_accuracy: float


def run_ga_comparison(
    benchmark: str = "ijpeg",
    order: int = 6,
    max_branches: int = 30_000,
    top_branches: int = 2,
    generations: int = 40,
    seed: int = 7,
    run_id: Optional[str] = None,
) -> List[GAComparisonRow]:
    """Constructed FSMs vs. GA-searched machines of the same state budget,
    scored on per-branch prediction accuracy over the training trace."""
    from repro.search.ga import GAConfig, search_predictor
    from repro.harness.branch_training import fsm_correct_counts

    trace = branch_trace(benchmark, "train", max_branches)
    ranked = rank_branches_by_misses(trace)
    models = collect_branch_models(trace, order=order)
    designer = FSMDesigner(DesignConfig(order=order, dont_care_fraction=0.01))
    rows: List[GAComparisonRow] = []
    interesting = []
    for pc, _misses in ranked:
        design = designer.design_from_model(models.models[pc])
        if design.machine.num_states >= 4:  # skip trivially-biased branches
            interesting.append((pc, design))
        if len(interesting) >= top_branches:
            break
    for pc, design in interesting:
        constructed = design.machine
        counts = fsm_correct_counts(trace, {pc: constructed})
        execs, correct = counts[pc]
        constructed_accuracy = correct / execs if execs else 0.0

        config = GAConfig(
            num_states=max(2, constructed.num_states),
            generations=generations,
            seed=seed,
        )
        # With run_id the GA checkpoints per generation and resumes a
        # killed search from the last complete generation.
        ga_machine, ga_accuracy = search_predictor(
            trace, pc, config,
            run_id=run_id, checkpoint_tag=f"{benchmark}-{pc:x}",
        )
        rows.append(
            GAComparisonRow(
                benchmark=benchmark,
                branch_pc=pc,
                constructed_states=constructed.num_states,
                constructed_accuracy=constructed_accuracy,
                ga_states=ga_machine.num_states,
                ga_accuracy=ga_accuracy,
            )
        )
    return rows


def render_ga(rows: List[GAComparisonRow]) -> str:
    return format_table(
        ["benchmark", "branch", "constructed_states", "constructed_acc",
         "ga_states", "ga_acc"],
        [
            (r.benchmark, hex(r.branch_pc), r.constructed_states,
             r.constructed_accuracy, r.ga_states, r.ga_accuracy)
            for r in rows
        ],
        title="Extension: constructed FSMs vs GA-searched FSMs (Emer & Gloy contrast)",
    )
