"""``fig2-panel`` and ``fig5-panel``: whole figure panels, cache off.

A run renders panels in cycles: each cycle is every panel of the
workload's benchmark list, in an order the seed picks, and the run stops
at the first cycle boundary after ``--seconds``, so every run times the
same mix of panels.  The panel inputs are fixed: panel cost moved by a
third between fig2's bias-threshold grids and erratically with fig5's
trace length, which no bound could absorb.  Every rendered panel and
every simulated statistic is compared with the digests recorded when the
benchmark was added (``goldens.json``).

Set-up is a cold import of the figure driver in a fresh interpreter.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import statistics
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from common import clock, python_import_s, quantile, timed_setup

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "goldens.json")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fig2_stats(result) -> str:
    points = [("up/down", p) for p in result.sud_points]
    for history in sorted(result.fsm_curves):
        points += [(f"h{history}", p) for p in result.fsm_curves[history]]
    rows = [
        [series, p.label, repr(p.accuracy), repr(p.coverage), p.num_states,
         repr(p.machine_miss_rate), repr(p.gap_to_optimal)]
        for series, p in points
    ]
    optimal = {str(k): repr(v) for k, v in sorted(result.optimal_rates.items())}
    return json.dumps({"points": rows, "optimal": optimal}, sort_keys=True)


def _fig5_stats(result) -> str:
    rows = [
        [name, p.label, repr(p.area), repr(p.miss_rate)]
        for name in sorted(result.series)
        for p in result.series[name].points
    ]
    return json.dumps(rows)


FIG2_LOADS = 10_000


def _fig2_panel(benchmark: str):
    from repro.harness.fig2 import run_fig2_benchmark

    return run_fig2_benchmark(benchmark, num_loads=FIG2_LOADS)


#: fig5 programs and trace length.  g721 and vortex are left out: one of
#: their panels can spend 20-40 s in exact cover inside ``estimate_area``,
#: longer than a whole run (see README.md).
FIG5_PROGRAMS = ("compress", "gs", "gsm", "ijpeg")
FIG5_BRANCHES = 11_000


def _fig5_panel(benchmark: str):
    from repro.harness.fig5 import run_fig5_benchmark

    return run_fig5_benchmark(benchmark, max_branches=FIG5_BRANCHES)


@dataclass(frozen=True)
class Figure:
    name: str
    module: str
    env: Dict[str, str]
    benchmarks: Callable[[], Sequence[str]]
    panel: Callable[[str], Any]
    stats: Callable[[Any], str]

    @property
    def ENV(self) -> Dict[str, str]:  # noqa: N802 - the workload interface
        return self.env

    def choose_inputs(self, seed: int) -> Dict[str, Any]:
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        order = list(self.benchmarks())
        rng.shuffle(order)
        return {"order": order}

    def digests(self, result) -> Dict[str, str]:
        return {"render": _digest(result.render()),
                "stats": _digest(self.stats(result))}

    def measure(self, inputs: Dict[str, Any], seconds: float):
        """Whole cycles of panels until ``seconds`` have elapsed.
        Returns (panel times, mean panel time of each cycle,
        [(benchmark, result)], elapsed)."""
        times: List[float] = []
        cycle_means: List[float] = []
        results: List[Tuple[str, Any]] = []
        start = clock()
        while True:
            cycle_start = clock()
            for benchmark in inputs["order"]:
                began = clock()
                results.append((benchmark, self.panel(benchmark)))
                times.append(clock() - began)
            cycle_means.append((clock() - cycle_start) / len(inputs["order"]))
            if clock() - start >= seconds:
                return times, cycle_means, results, clock() - start

    def check(self, results) -> Tuple[int, List[str]]:
        with open(GOLDENS, encoding="utf-8") as handle:
            goldens = json.load(handle)[self.name]
        failures = []
        for key, result in results:
            digests = self.digests(result)
            want = goldens.get(key)
            if want is None:
                failures.append(f"{key}: no recorded digest")
            elif want != digests:
                bad = sorted(k for k in digests if digests[k] != want.get(k))
                failures.append(f"{key}: {', '.join(bad)} digest differs")
        return len(failures), failures

    def run(self, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
        inputs = self.choose_inputs(seed)
        setup_s, _ = timed_setup(lambda: python_import_s(self.module))
        # Warm-up: the import ``setup_s`` times cold, done here too so
        # that it does not land in whichever panel the seed puts first
        # (0.3-0.6 s of a 20-30 s run).
        importlib.import_module(self.module)
        layers = None
        if traced:
            import tracer

            tracer.install()
            times, cycles, results, elapsed = self.measure(inputs, seconds)
            layers = tracer.finish_run(elapsed)
        else:
            times, cycles, results, elapsed = self.measure(inputs, seconds)
        failed, failures = self.check(results)
        return {
            "inputs": inputs,
            "setup_s": setup_s,
            "attempted": len(results),
            "failed": failed,
            "failures": failures,
            "panel_s": times,
            "ops_per_s": len(times) / elapsed,
            # The median over cycles of the mean panel time: a median of
            # single panels would fall in the gap between cheap and
            # expensive benchmarks and flip between them.
            "op_p50_ms": statistics.median(cycles) * 1e3,
            "op_p95_ms": quantile(times, 0.95) * 1e3,
            "layers": layers,
        }


def _value_benchmarks():
    from repro.workloads.values import VALUE_BENCHMARKS

    return VALUE_BENCHMARKS


FIG2 = Figure(
    name="fig2-panel",
    module="repro.harness.fig2",
    env={"REPRO_CACHE": "0", "REPRO_JOBS": "2"},
    benchmarks=_value_benchmarks,
    panel=_fig2_panel,
    stats=_fig2_stats,
)

FIG5 = Figure(
    name="fig5-panel",
    module="repro.harness.fig5",
    env={"REPRO_CACHE": "0", "REPRO_MODERN": "1"},
    benchmarks=lambda: FIG5_PROGRAMS,
    panel=_fig5_panel,
    stats=_fig5_stats,
)


def record(figure: Figure) -> Dict[str, Dict[str, str]]:
    """Digests of every panel the workload can draw."""
    return {
        benchmark: figure.digests(figure.panel(benchmark))
        for benchmark in figure.benchmarks()
    }
