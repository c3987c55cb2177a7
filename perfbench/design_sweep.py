"""``design-sweep``: the design flow alone, over a seeded corpus.

The corpus mirrors the two ways the repository designs predictors:

* value-confidence machines -- ``design_from_trace`` on the correctness
  stream of every value benchmark, at orders 2-10 and two bias
  thresholds;
* branch machines -- ``design_from_model`` on the global-history Markov
  models (H=9) of the 8 most-mispredicted branches of every MiniVM
  program, exactly as ``customize`` selects them;

both on the train and the eval input of every benchmark.  The corpus is
the same for every seed and the seed picks the order designs run in:
when the seed picked the input variants instead, designs per second moved
by 25% between seeds, more than any bound could absorb.  Building the corpus
(trace generation and profiling, sharded over two pool workers) is the
set-up; the measured loop designs corpus entries in seeded order with the
design cache off and does no area estimation and no simulation.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Any, Dict, List, Tuple

from common import clock, quantile

VALUE_ORDERS = (2, 4, 6, 8, 10)
THRESHOLDS = (0.5, 0.8)
NUM_LOADS = 20_000
BRANCHES_PER_PROGRAM = 8
MAX_BRANCHES = 20_000
BRANCH_ORDER = 9
DONT_CARE = 0.01

ENV = {"REPRO_CACHE": "0", "REPRO_JOBS": "2"}


def corpus_inputs(seed: int) -> Dict[str, Any]:
    from repro.workloads.programs import BRANCH_BENCHMARKS
    from repro.workloads.values import VALUE_BENCHMARKS

    variants = ("train", "eval")
    return {
        "values": [(name, v) for name in VALUE_BENCHMARKS for v in variants],
        "programs": [(name, v) for name in BRANCH_BENCHMARKS for v in variants],
        "num_loads": NUM_LOADS,
        "max_branches": MAX_BRANCHES,
        "order_seed": seed,
    }


def _value_shard(item: Tuple[str, str]) -> List[int]:
    from repro.valuepred.confidence import correctness_trace
    from repro.workloads.values import load_trace

    benchmark, variant = item
    _indices, bits = correctness_trace(load_trace(benchmark, variant, NUM_LOADS))
    return bits


def _branch_shard(item: Tuple[str, str]) -> List[Tuple[int, Any]]:
    from repro.harness.branch_training import (
        collect_branch_models,
        rank_branches_by_misses,
    )
    from repro.workloads.programs import branch_trace

    program, variant = item
    trace = branch_trace(program, variant, MAX_BRANCHES)
    ranked = rank_branches_by_misses(trace)
    models = collect_branch_models(trace, order=BRANCH_ORDER)
    return [
        (pc, models.models[pc])
        for pc, _misses in ranked[:BRANCHES_PER_PROGRAM]
    ]


def _shard(item: Tuple[str, str, str]):
    kind, name, variant = item
    if kind == "value":
        return _value_shard((name, variant))
    return _branch_shard((name, variant))


def build_corpus(inputs: Dict[str, Any]) -> List[Tuple[str, Any, Any]]:
    """``[(label, DesignConfig, ("trace"|"model", data))]``."""
    from repro.core.pipeline import DesignConfig
    from repro.perf.parallel import parallel_map

    items = [("value", name, variant) for name, variant in inputs["values"]]
    items += [("branch", name, variant) for name, variant in inputs["programs"]]
    shards = parallel_map(_shard, items)
    corpus: List[Tuple[str, Any, Any]] = []
    for (kind, name, variant), data in zip(items, shards):
        if kind == "value":
            for order in VALUE_ORDERS:
                for threshold in THRESHOLDS:
                    config = DesignConfig(order=order, bias_threshold=threshold,
                                          dont_care_fraction=DONT_CARE)
                    corpus.append((f"{name}.{variant}.h{order}.t{threshold}",
                                   config, ("trace", data)))
        else:
            config = DesignConfig(order=BRANCH_ORDER, bias_threshold=0.5,
                                  dont_care_fraction=DONT_CARE)
            for pc, model in data:
                corpus.append((f"{name}.{variant}.pc{pc:#x}", config,
                               ("model", model)))
    return corpus


def _design(config, source):
    from repro.core.pipeline import FSMDesigner

    kind, data = source
    designer = FSMDesigner(config)
    if kind == "trace":
        return designer.design_from_trace(data)
    return designer.design_from_model(data)


def measure(corpus, seed: int, seconds: float):
    """Design corpus entries in seeded passes until ``seconds`` elapse.
    Returns (latencies, [(index, machine, cover)], first results by
    index, elapsed).  Only the first result of an entry is kept whole,
    so memory does not grow with the number of designs run."""
    rng = random.Random(f"perfbench:design-sweep:{seed}")
    latencies: List[float] = []
    produced: List[Tuple[int, Any, Any]] = []
    first: Dict[int, Any] = {}
    start = clock()
    while True:
        order = list(range(len(corpus)))
        rng.shuffle(order)
        for index in order:
            _label, config, source = corpus[index]
            began = clock()
            result = _design(config, source)
            latencies.append(clock() - began)
            first.setdefault(index, result)
            produced.append((index, result.machine, result.cover))
            if clock() - start >= seconds:
                return latencies, produced, first, clock() - start


def check(corpus, produced, first) -> Tuple[int, List[str]]:
    """The correctness gate: the first machine of every corpus entry must
    pass ``design_ok`` (the direct-construction oracle, which shares no
    code with the design chain); every repeat must equal it."""
    from repro.reliability.verify import design_ok

    failures: List[str] = []
    for index, result in sorted(first.items()):
        if not design_ok(result):
            failures.append(f"{corpus[index][0]}: design_ok rejected it")
    seen = set()
    for index, machine, cover in produced:
        if index not in seen:
            seen.add(index)
            continue
        reference = first[index]
        if machine != reference.machine or cover != reference.cover:
            failures.append(f"{corpus[index][0]}: repeat differs from the "
                            "first design")
    return len(failures), failures


def run(seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    from common import timed_setup

    inputs = corpus_inputs(seed)
    if traced:
        import tracer

        tracer.install()
        began = clock()
        corpus = build_corpus(inputs)
        setup_s = clock() - began
    else:
        setup_s, corpus = timed_setup(partial(build_corpus, inputs))
    latencies, produced, first, elapsed = measure(corpus, seed, seconds)
    layers = None
    if traced:
        layers = tracer.finish_run(clock() - began)
    failed, failures = check(corpus, produced, first)
    return {
        "inputs": dict(inputs, corpus=len(corpus)),
        "setup_s": setup_s,
        "attempted": len(produced),
        "failed": failed,
        "failures": failures[:20],
        "ops_per_s": len(produced) / elapsed,
        "op_p50_ms": quantile(latencies, 0.50) * 1e3,
        "op_p95_ms": quantile(latencies, 0.95) * 1e3,
        "layers": layers,
    }
