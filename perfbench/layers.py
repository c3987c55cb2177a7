"""The per-layer metric catalog and its computation from traced self times.

Every traced run reports every metric below; a layer a workload never
calls reads 0.  The ``.s`` metrics are self seconds of the spans in
``tracer.py``; together with ``unattributed.s`` they add up to the traced
wall time (for ``serve-open``: to the replicas' compute time).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

#: (metric, unit) in report order.
PER_LAYER = (
    ("markov.s", "s"),
    ("patterns.s", "s"),
    ("cover.s", "s"),
    ("cover.terms", "count"),
    ("regex.s", "s"),
    ("nfa.s", "s"),
    ("nfa.states", "count"),
    ("dfa.s", "s"),
    ("dfa.states", "count"),
    ("minimize.s", "s"),
    ("minimize.states", "count"),
    ("startup.s", "s"),
    ("startup.removed", "count"),
    ("optimal.s", "s"),
    ("sim.tage.s", "s"),
    ("sim.perceptron.s", "s"),
    ("sim.xscale.s", "s"),
    ("sim.gshare_lgc.s", "s"),
    ("sim.fsm.s", "s"),
    ("sim.sud.s", "s"),
    ("sim.branches_per_s", "1/s"),
    ("area.s", "s"),
    ("area.calls", "count"),
    ("hdl.s", "s"),
    ("verify.s", "s"),
    ("tracegen.s", "s"),
    ("parallel.tasks", "count"),
    ("parallel.s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.reads", "count"),
    ("cache.writes", "count"),
    ("pool.dispatches", "count"),
    ("pool.redispatches", "count"),
    ("pool.queue_depth_max", "count"),
    ("router.hedge_waste_ratio", "ratio"),
    ("router.coalesced_ratio", "ratio"),
    ("router.shed_ratio", "ratio"),
    ("hop.compute_p50_ms", "ms"),
    ("hop.overhead_p50_ms", "ms"),
    ("hop.router_p50_ms", "ms"),
    ("unattributed.s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("op.p50_ms", "ms"),
    ("tail.p95_ms", "ms"),
)

#: Span layers whose self time is a reported ``<layer>.s`` metric.
TIMED_LAYERS = tuple(name[:-2] for name, unit in PER_LAYER
                     if unit == "s" and name != "unattributed.s")

SIM_LAYERS = tuple(layer for layer in TIMED_LAYERS if layer.startswith("sim."))


def layer_metrics(
    self_s: Mapping[str, float],
    counts: Mapping[str, float],
    wall_s: float,
    overhead_ratio: float,
    op_p50_ms: float,
    tail_p95_ms: float,
    extra: Optional[Mapping[str, float]] = None,
) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric from traced self times and counts.
    ``extra`` supplies the serving metrics read from the stack."""
    values: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        values[f"{layer}.s"] = float(self_s.get(layer, 0.0))
    sim_s = sum(values[f"{layer}.s"] for layer in SIM_LAYERS)
    branches = counts.get("sim.branches", 0)
    values["sim.branches_per_s"] = branches / sim_s if sim_s > 0 else 0.0
    for name, unit in PER_LAYER:
        if unit == "count" and name not in values:
            values[name] = counts.get(name, 0)
    values["unattributed.s"] = wall_s - sum(
        values[f"{layer}.s"] for layer in TIMED_LAYERS
    )
    values["trace.overhead_ratio"] = overhead_ratio
    values["op.p50_ms"] = op_p50_ms
    values["tail.p95_ms"] = tail_p95_ms
    for name, value in (extra or {}).items():
        values[name] = value
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in PER_LAYER
    }
