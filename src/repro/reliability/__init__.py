"""Fault tolerance and verification for the design flow.

The production contract this package enforces end-to-end: a sweep either
completes with the same bytes a clean serial run would produce (recovered
fault) or fails with a structured :class:`ReproError` naming the stage --
never a silent wrong result.

Modules:

- :mod:`repro.reliability.errors` -- the ``ReproError`` hierarchy;
- :mod:`repro.reliability.faults` -- deterministic fault injection
  (``REPRO_FAULTS``) for chaos-testing the cache, the pool, the pipeline,
  the journal (``journal_write``), and whole processes (``kill_point``);
- :mod:`repro.reliability.verify` -- proves produced machines against the
  paper's regex -> NFA -> DFA reference chain;
- :mod:`repro.reliability.durability` -- write-ahead journal, checkpoint
  blobs, and :func:`~repro.reliability.durability.durable_map`
  (kill/resume-safe sweeps; imported lazily by callers, not here, to keep
  the package import light);
- :mod:`repro.reliability.selfcheck` -- ``python -m repro selfcheck``.
"""

from repro.reliability.errors import (
    CacheError,
    DesignError,
    ReproError,
    TraceError,
    WorkerError,
)

__all__ = [
    "CacheError",
    "DesignError",
    "ReproError",
    "TraceError",
    "WorkerError",
]
