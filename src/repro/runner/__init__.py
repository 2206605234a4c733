"""Runner & caching — parallel experiment execution with a result cache.

This package is the scaling layer over the serial sweep reference
(:func:`repro.analysis.sweeps.sweep`), and the one place experiments
are run:

* :func:`run_experiments` — the only loop over the experiment registry
  (:func:`repro.experiments.base.all_experiments`): inline or over a
  process pool, through an optional cache, timed per experiment.
  ``repro experiments``, ``python -m repro.experiments``, ``repro
  report`` and served experiment jobs all call it;
* :func:`run_sweep_parallel` — a process-pool executor for sweep grids
  with chunked work distribution and record ordering identical to the
  serial :func:`~repro.analysis.sweeps.sweep` path (differentially
  tested against it);
* :class:`ResultCache` — a content-addressed on-disk cache (key =
  experiment id + canonicalised params + package version) with hit/miss
  statistics and explicit invalidation;
* :class:`RunnerStats` — per-point wall-time, cache hit-rate and
  worker-utilisation instrumentation, rendered as a summary table and
  surfaced in ``ExperimentResult.notes``;
* :class:`PersistentWorkerPool` — long-lived worker processes hosting
  named per-worker actors (build state once, then send it many small
  commands).

Exposed on the CLI as ``python -m repro experiments [--workers N]
[--cache-dir DIR]``; ``--workers`` defaults to 1 (inline).
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
