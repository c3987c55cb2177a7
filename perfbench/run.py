"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics, measured with no tracing installed; with
``--trace 1`` it carries the per-layer metrics of a traced run of the
same workload.  The line before it holds the run's metadata, and
``.perfbench-runs/<run>/`` keeps the full record and, for traced runs,
the spans.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("design-sweep", "fig2-panel", "fig5-panel", "serve-open")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _module(workload: str):
    if workload == "design-sweep":
        import design_sweep

        return design_sweep
    if workload in ("fig2-panel", "fig5-panel"):
        import figures

        return figures.FIG2 if workload == "fig2-panel" else figures.FIG5
    import serve_open

    return serve_open


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    import common

    try:
        root = common.checkout_root()
    except common.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = _module(args.workload)
    traced = bool(args.trace)
    run_dir = common.prepare(root, args.workload, args.seed, traced,
                             workload.ENV)
    if traced:
        os.environ["PERFBENCH_SPAN_DIR"] = str(run_dir)
    outcome = workload.run(args.seed, args.seconds, traced)
    meta = common.metadata(root, args.workload, args.seed, traced,
                           outcome["inputs"])
    if traced:
        import layers

        metrics = layers.layer_metrics(
            op_p50_ms=outcome["op_p50_ms"], tail_p95_ms=outcome["op_p95_ms"],
            **outcome["layers"])
    else:
        metrics = {
            "setup_s": common.metric(outcome["setup_s"], "s"),
            "ok_ratio": common.metric(
                1.0 - outcome["failed"] / outcome["attempted"], "ratio"),
            "peak_rss_mb": common.metric(common.peak_rss_mb(), "MB"),
            "ops_per_s": common.metric(outcome["ops_per_s"], "1/s"),
        }
    common.finish(run_dir, meta, outcome["attempted"], outcome["failed"],
                  metrics, extra=outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
