"""Launch ``python -m repro <args>`` (a replica or the router) for the
``serve-open`` workload.

With ``PERFBENCH_SPAN_DIR`` set, the tracer is installed before the
server starts, so the forked pool workers inherit it, and every call of
``execute_request`` appends one record -- its duration and the self time
of each layer inside it -- to ``serve-<pid>.jsonl`` in that directory.
Workers are killed rather than exited at shutdown, so records are
written per request instead of at the end.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _record_requests(span_dir: str) -> None:
    import repro.serve.jobs as jobs
    import tracer

    traced_execute = jobs.execute_request

    @functools.wraps(traced_execute)
    def execute_request(request, **kwargs):
        current = tracer.TRACER
        before_self = dict(current.self_s)
        before_counts = dict(current.counts)
        before_spans = current.span_count
        started = time.perf_counter()
        try:
            return traced_execute(request, **kwargs)
        finally:
            record = {
                "id": request.request_id,
                "compute_s": time.perf_counter() - started,
                "spans": current.span_count - before_spans,
                "self_s": {k: v - before_self.get(k, 0.0)
                           for k, v in current.self_s.items()
                           if v != before_self.get(k, 0.0)},
                "counts": {k: v - before_counts.get(k, 0)
                           for k, v in current.counts.items()
                           if v != before_counts.get(k, 0)},
            }
            path = os.path.join(span_dir, f"serve-{os.getpid()}.jsonl")
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")

    jobs.execute_request = execute_request


def main() -> int:
    span_dir = os.environ.get("PERFBENCH_SPAN_DIR")
    if span_dir:
        import tracer

        tracer.install()
        _record_requests(span_dir)
    from repro.cli import main as repro_main

    return repro_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
