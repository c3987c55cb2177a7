"""Shared plumbing: a hermetic run directory, run metadata, quantiles and
the one-line result the benchmark prints last."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Where each run keeps its private cache, journals, spans and record,
#: relative to the checkout root (listed in the root .gitignore).
RUNS_DIR = ".perfbench-runs"

clock = time.perf_counter


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def checkout_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise SourceMissing(
            f"no src/repro package under {root}; run from the root of a "
            "checkout of the repository"
        )
    return root


def prepare(root: Path, workload: str, seed: int, trace: bool,
            env: Dict[str, str]) -> Path:
    """Make a fresh run directory and a hermetic environment: every
    inherited ``REPRO_*`` variable is dropped, the design cache and the
    durable-run journals point inside the run directory, and ``src`` is
    importable here and in every subprocess."""
    run_dir = root / RUNS_DIR / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    (run_dir / "cache").mkdir(parents=True)
    (run_dir / "journals").mkdir()
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    os.environ["REPRO_RUN_DIR"] = str(run_dir / "journals")
    os.environ.update(env)
    src = str(root / "src")
    os.environ["PYTHONPATH"] = src
    if src not in sys.path:
        sys.path.insert(0, src)
    return run_dir


def source_digest(root: Path) -> str:
    """Content digest of every file under ``src/``: identifies the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def metadata(root: Path, workload: str, seed: int, trace: bool,
             inputs: Dict[str, Any]) -> Dict[str, Any]:
    from repro.perf.batched import backend_info

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": git_commit(root),
        "source_digest": source_digest(root),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("REPRO_")},
        "backend": backend_info(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": nproc,
        "inputs": inputs,
    }


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_setup(step, repeats: int = 3) -> tuple:
    """Run ``step`` ``repeats`` times; return (median seconds, last value)."""
    times: List[float] = []
    value = None
    for _ in range(repeats):
        start = clock()
        value = step()
        times.append(clock() - start)
    return statistics.median(times), value


def python_import_s(module: str) -> float:
    """Wall time of a fresh interpreter importing ``module``."""
    start = clock()
    subprocess.run(
        [sys.executable, "-c", f"import {module}"], check=True, timeout=120,
        stdin=subprocess.DEVNULL,
    )
    return clock() - start


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def finish(run_dir: Path, meta: Dict[str, Any], attempted: int,
           failed: int, metrics: Dict[str, Dict[str, Any]],
           extra: Optional[Dict[str, Any]] = None) -> None:
    """Write the run record, drop the private cache, print the result."""
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    record = dict(meta, result=result, details=extra or {})
    with open(run_dir / "record.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)
    for name in ("cache", "journals"):
        shutil.rmtree(run_dir / name, ignore_errors=True)
    print(json.dumps({"meta": meta}, sort_keys=True, default=str))
    print(json.dumps(result, sort_keys=True))
