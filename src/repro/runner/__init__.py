"""Runner & caching — parallel experiment execution with a result cache.

The serial reference paths (:func:`repro.analysis.sweeps.sweep` and the
per-experiment loop in ``repro.experiments.__main__``) recompute every
point from scratch on each invocation.  This package is the scaling
layer on top of them:

* :func:`run_sweep_parallel` — a process-pool executor for sweep grids
  with chunked work distribution and record ordering identical to the
  serial :func:`~repro.analysis.sweeps.sweep` path (differentially
  tested against it);
* :func:`run_experiments` — the same treatment for the experiment
  registry (:func:`repro.experiments.base.all_experiments`);
* :class:`ResultCache` — a content-addressed on-disk cache (key =
  experiment id + canonicalised params + package version) with hit/miss
  statistics and explicit invalidation;
* :class:`RunnerStats` — per-point wall-time, cache hit-rate and
  worker-utilisation instrumentation, rendered as a summary table and
  surfaced in ``ExperimentResult.notes``;
* :class:`PersistentWorkerPool` — long-lived worker processes hosting
  named per-worker actors (build state once, then send it many small
  commands).

Exposed on the CLI as ``python -m repro experiments --parallel
--workers N --cache-dir DIR`` (``--no-cache`` disables a configured
cache).
"""

from __future__ import annotations

from .cache import CacheStats, ResultCache, canonical_key
from .executor import run_experiments
from .instrumentation import PointTiming, RunnerStats
from .parallel import resolve_workers, run_sweep_parallel
from .pool import PersistentWorkerPool, WorkerError

__all__ = [
    "CacheStats",
    "PersistentWorkerPool",
    "PointTiming",
    "ResultCache",
    "RunnerStats",
    "WorkerError",
    "canonical_key",
    "resolve_workers",
    "run_experiments",
    "run_sweep_parallel",
]
