"""Outside-in tracer: spans around the public functions each layer's
callers use, recorded without touching anything under ``src/``.

``install()`` replaces module attributes and a few class attributes with
thin wrappers.  Each wrapper records one span -- layer name, start, end, the
span that caused it -- and charges the call's *self* time (its duration
minus the time its traced children cover) to its layer.  Where a caller
imported a function by name, the caller's binding is the one patched, so
for example only ``repro.core.pipeline.logic_minimize`` counts as
``cover``: the same minimizer called from inside ``estimate_area`` stays
part of ``area``.

Work that ``parallel_map`` ships to pool workers is traced in the worker
and its self times come back with the task result.  In the parent they
replace the time ``parallel_map`` spent waiting, scaled so that the sum
of self times still equals the parent's wall time (two workers running
at once cannot make the parent's wall time longer).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept in memory per process; beyond this only the aggregates grow.
MAX_SPANS = 200_000

_clock = time.perf_counter


class Tracer:
    """Per-process span store and per-layer aggregates."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.span_count = 0
        self.started = _clock()

    def enter(self, layer: str) -> list:
        self.span_count += 1
        frame = [layer, _clock(), 0.0, self.span_count,
                 self.stack[-1][3] if self.stack else 0]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> float:
        end = _clock()
        self.stack.pop()
        layer, start, child_s, span_id, parent_id = frame
        duration = end - start
        self.self_s[layer] += duration - child_s
        self.calls[layer] += 1
        if self.stack:
            self.stack[-1][2] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent_id, layer, start, end))
        return duration

    def absorb(self, frame: list, remote_self: Dict[str, float],
               remote_counts: Dict[str, int], remote_calls: Dict[str, int],
               busy_s: float) -> None:
        """Fold self times measured in pool workers into the open
        ``frame`` (the ``parallel_map`` call that waited for them)."""
        total = sum(remote_self.values())
        if total <= 0:
            return
        scale = min(1.0, busy_s / total)
        for layer, seconds in remote_self.items():
            self.self_s[layer] += seconds * scale
        frame[2] += total * scale
        self.counts.update(remote_counts)
        self.calls.update(remote_calls)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "pid": os.getpid(),
                    "span_count": self.span_count,
                    "spans_kept": len(self.spans),
                    "self_s": dict(self.self_s),
                    "calls": dict(self.calls),
                    "counts": dict(self.counts),
                    "spans": [
                        [i, p, name, round(s - self.started, 6),
                         round(e - self.started, 6)]
                        for i, p, name, s, e in self.spans
                    ],
                },
                handle,
            )


TRACER: Optional[Tracer] = None


def _wrap(fn: Callable, layer, after: Optional[Callable] = None) -> Callable:
    """``layer`` is a name, or a callable picking one from the arguments;
    ``after(tracer, args, kwargs, result)`` records counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = TRACER
        if tracer is None:
            return fn(*args, **kwargs)
        name = layer(args, kwargs) if callable(layer) else layer
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(frame)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


# ----------------------------------------------------------------------
# Counts recorded at the boundaries
# ----------------------------------------------------------------------

def _count(name: str, value: Callable[[Any], int]):
    def after(tracer, _args, _kwargs, result):
        tracer.counts[name] += value(result)
    return after


def _trace_len(trace) -> int:
    pcs = getattr(trace, "pcs", None)
    return len(pcs) if pcs is not None else len(trace)


def _sim_layer(args, kwargs) -> str:
    predictor = args[0] if args else kwargs.get("predictor")
    name = type(predictor).__name__
    if name.startswith("Tage"):
        return "sim.tage"
    if name.startswith("Perceptron"):
        return "sim.perceptron"
    if name.startswith("XScale"):
        return "sim.xscale"
    if name.startswith(("GShare", "LocalGlobal")):
        return "sim.gshare_lgc"
    return "sim.other"


def _steps(trace_index: int, width: Optional[Callable] = None):
    """Branch-steps simulated by a call: trace length x machines."""
    def after(tracer, args, kwargs, _result):
        trace = args[trace_index] if len(args) > trace_index else None
        if trace is None:
            return
        tracer.counts["sim.branches"] += _trace_len(trace) * (
            width(args) if width else 1
        )
    return after


def _traced_parallel_map(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(task_fn, items, *args, **kwargs):
        tracer = TRACER
        if tracer is None:
            return fn(task_fn, items, *args, **kwargs)
        parent = tracer.stack[-1][0] if tracer.stack else "unattributed"
        on_result = kwargs.get("on_result")
        if on_result is not None:
            kwargs["on_result"] = lambda i, packed: on_result(i, packed[0])
        frame = tracer.enter("parallel")
        remote_self: Dict[str, float] = defaultdict(float)
        remote_counts: Counter = Counter()
        remote_calls: Counter = Counter()
        try:
            packed = fn(
                RemoteTask(task_fn, os.getpid(), parent),
                items,
                *args,
                **kwargs,
            )
            results = []
            for value, report in packed:
                results.append(value)
                if report is not None:
                    for layer, seconds in report[0].items():
                        remote_self[layer] += seconds
                    remote_counts.update(report[1])
                    remote_calls.update(report[2])
            busy = _clock() - frame[1] - frame[2]
            tracer.absorb(frame, remote_self, remote_counts, remote_calls,
                          busy)
        finally:
            tracer.leave(frame)
        tracer.counts["parallel.tasks"] += len(results)
        return results

    return wrapper


class RemoteTask:
    """Picklable task wrapper: in a pool worker it traces ``fn`` under a
    fresh tracer and ships the self times back with the value.  Run in
    the parent process (the serial path) it is transparent."""

    def __init__(self, fn: Callable, parent_pid: int, parent_layer: str):
        self.fn = fn
        self.parent_pid = parent_pid
        self.parent_layer = parent_layer

    def __call__(self, item):
        global TRACER
        if os.getpid() == self.parent_pid:
            return self.fn(item), None
        TRACER = Tracer()
        frame = TRACER.enter(self.parent_layer)
        try:
            value = self.fn(item)
        finally:
            TRACER.leave(frame)
        report = (dict(TRACER.self_s), dict(TRACER.counts),
                  dict(TRACER.calls))
        return value, report


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------

def _patch_everywhere(module_name: str, attr: str, wrapper_factory) -> None:
    """Wrap ``module.attr`` and every ``repro`` module binding of the same
    function object (``from module import attr`` copies)."""
    module = sys.modules[module_name]
    original = getattr(module, attr)
    wrapped = wrapper_factory(original)
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro") or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def _patch_binding(module_name: str, attr: str, wrapper_factory) -> None:
    """Wrap one caller's binding only."""
    module = sys.modules[module_name]
    setattr(module, attr, wrapper_factory(getattr(module, attr)))


def _patch_classmethod(cls, attr: str, layer: str, after=None) -> None:
    original = cls.__dict__[attr].__func__
    setattr(cls, attr, classmethod(_wrap(original, layer, after)))


def _patch_method(cls, attr: str, layer: str, after=None) -> None:
    setattr(cls, attr, _wrap(cls.__dict__[attr], layer, after))


def install() -> Tracer:
    """Import the traced modules, patch their public entry points, and
    arm a fresh tracer for this process."""
    global TRACER
    import repro.core.pipeline as pipeline
    import repro.harness.branch_training  # noqa: F401
    import repro.harness.fig2  # noqa: F401
    import repro.harness.fig5  # noqa: F401
    import repro.perf.batched  # noqa: F401
    import repro.perf.parallel  # noqa: F401
    import repro.predictors.base  # noqa: F401
    import repro.predictors.optimal  # noqa: F401
    import repro.reliability.durability  # noqa: F401
    import repro.reliability.verify  # noqa: F401
    import repro.serve.jobs  # noqa: F401
    import repro.synth.area  # noqa: F401
    import repro.synth.verilog  # noqa: F401
    import repro.synth.vhdl  # noqa: F401
    import repro.valuepred.confidence  # noqa: F401
    import repro.workloads.programs  # noqa: F401
    import repro.workloads.values  # noqa: F401
    from repro.automata.moore import MooreMachine
    from repro.core.markov import MarkovModel

    # core + logic + automata: the design stages, at the pipeline's own
    # bindings so that other callers of the same helpers are not counted.
    stage = functools.partial
    _patch_binding("repro.core.pipeline", "define_patterns",
                   stage(_wrap, layer="patterns"))
    _patch_binding("repro.core.pipeline", "logic_minimize",
                   stage(_wrap, layer="cover",
                         after=_count("cover.terms", len)))
    _patch_binding("repro.core.pipeline", "history_language_regex",
                   stage(_wrap, layer="regex"))
    _patch_binding("repro.core.pipeline", "thompson_construct",
                   stage(_wrap, layer="nfa",
                         after=_count("nfa.states", lambda r: r.num_states)))
    _patch_binding("repro.core.pipeline", "subset_construct",
                   stage(_wrap, layer="dfa",
                         after=_count("dfa.states", lambda r: r.num_states)))
    _patch_binding("repro.core.pipeline", "hopcroft_minimize",
                   stage(_wrap, layer="minimize",
                         after=_count("minimize.states",
                                      lambda r: r.num_states)))
    _patch_binding("repro.core.pipeline", "startup_state_count",
                   stage(_wrap, layer="startup",
                         after=_count("startup.removed", int)))
    _patch_binding("repro.core.pipeline", "steady_state_reduce",
                   stage(_wrap, layer="startup"))
    _patch_classmethod(MooreMachine, "from_dfa", "minimize")
    _patch_classmethod(MarkovModel, "from_trace", "markov")
    _patch_method(MarkovModel, "update_from_trace", "markov")
    _patch_method(MarkovModel, "truncated", "markov")
    _patch_method(pipeline.FSMDesigner, "design_from_trace", "design")
    _patch_method(pipeline.FSMDesigner, "design_from_model", "design")
    _patch_everywhere("repro.harness.branch_training",
                      "collect_branch_models", stage(_wrap, layer="markov"))

    # reliability.verify
    for name in ("design_ok", "verify_design"):
        _patch_everywhere("repro.reliability.verify", name,
                          stage(_wrap, layer="verify"))

    # predictors, predictors.optimal, valuepred, perf.batched
    _patch_everywhere("repro.predictors.base", "simulate_predictor",
                      stage(_wrap, layer=_sim_layer, after=_steps(1)))
    _patch_everywhere("repro.perf.batched", "simulate_predictors_batched",
                      stage(_wrap, layer="batched"))
    # Building a predictor's tables is part of simulating it.
    from repro.predictors.gshare import GSharePredictor
    from repro.predictors.local_global import LocalGlobalChooser
    from repro.predictors.perceptron import PerceptronPredictor
    from repro.predictors.tage import TagePredictor
    from repro.predictors.xscale import XScalePredictor

    for cls, layer in ((GSharePredictor, "sim.gshare_lgc"),
                       (LocalGlobalChooser, "sim.gshare_lgc"),
                       (PerceptronPredictor, "sim.perceptron"),
                       (TagePredictor, "sim.tage"),
                       (XScalePredictor, "sim.xscale")):
        _patch_method(cls, "__init__", layer)
    _patch_everywhere("repro.harness.branch_training", "fsm_correct_counts",
                      stage(_wrap, layer="sim.fsm",
                            after=_steps(0, lambda a: max(1, len(a[1])))))
    _patch_everywhere("repro.harness.branch_training",
                      "rank_branches_by_misses",
                      stage(_wrap, layer="sim.xscale", after=_steps(0)))
    _patch_everywhere("repro.harness.fig5", "evaluate_custom_curve",
                      stage(_wrap, layer="sim.xscale", after=_steps(0)))
    _patch_everywhere("repro.valuepred.confidence",
                      "evaluate_counter_confidence",
                      stage(_wrap, layer="sim.sud", after=_steps(1)))
    _patch_everywhere("repro.valuepred.confidence",
                      "evaluate_fsm_confidence",
                      stage(_wrap, layer="sim.fsm", after=_steps(1)))
    _patch_everywhere("repro.predictors.optimal", "machine_mispredicts",
                      stage(_wrap, layer="sim.fsm", after=_steps(1)))
    _patch_everywhere("repro.predictors.optimal", "optimal_predictors",
                      stage(_wrap, layer="optimal"))

    # synth
    _patch_everywhere("repro.synth.area", "estimate_area",
                      stage(_wrap, layer="area",
                            after=_count("area.calls", lambda _r: 1)))
    _patch_everywhere("repro.synth.verilog", "generate_verilog",
                      stage(_wrap, layer="hdl"))
    _patch_everywhere("repro.synth.vhdl", "generate_vhdl",
                      stage(_wrap, layer="hdl"))
    _patch_method(MooreMachine, "to_dot", "hdl")

    # workloads (+ the correctness-stream builder fig2 feeds on)
    _patch_everywhere("repro.workloads.values", "load_trace",
                      stage(_wrap, layer="tracegen"))
    _patch_everywhere("repro.workloads.programs", "branch_trace",
                      stage(_wrap, layer="tracegen"))
    _patch_everywhere("repro.valuepred.confidence", "correctness_trace",
                      stage(_wrap, layer="tracegen"))

    # perf.parallel
    _patch_everywhere("repro.perf.parallel", "parallel_map",
                      _traced_parallel_map)

    # serve: the executor every pool worker runs per request
    _patch_everywhere("repro.serve.jobs", "execute_request",
                      stage(_wrap, layer="compute"))

    TRACER = Tracer()
    return TRACER


def finish_run(wall_s: float) -> Dict[str, Any]:
    """Disarm the tracer, write its spans next to the run record, and
    return the aggregates ``layers.layer_metrics`` takes."""
    global TRACER
    done, TRACER = TRACER, None
    span_dir = os.environ.get("PERFBENCH_SPAN_DIR", ".")
    done.dump(os.path.join(span_dir, f"spans-{os.getpid()}.json"))
    return {
        "self_s": dict(done.self_s),
        "counts": dict(done.counts),
        "wall_s": wall_s,
        "overhead_ratio": done.span_count * span_cost_s() / wall_s,
    }


def span_cost_s(samples: int = 20_000) -> float:
    """Measured cost of one wrapper span around a no-op, in seconds."""
    global TRACER
    saved = TRACER
    TRACER = Tracer()
    try:
        noop = _wrap(lambda: None, "calibrate")
        start = _clock()
        for _ in range(samples):
            noop()
        traced = _clock() - start
        bare = lambda: None  # noqa: E731
        start = _clock()
        for _ in range(samples):
            bare()
        plain = _clock() - start
    finally:
        TRACER = saved
    return max(0.0, traced - plain) / samples
