"""Process-pool parallel execution of sweep grids.

:func:`run_sweep_parallel` is a drop-in replacement for the serial
:func:`repro.analysis.sweeps.sweep` reference path: same arguments, same
:class:`~repro.analysis.sweeps.SweepResult`, and records in exactly the
same order with exactly the same values (the property suite
differentially tests the two).  On top of the reference semantics it
adds

* chunked distribution of grid points over a
  :class:`~concurrent.futures.ProcessPoolExecutor` (``workers=``
  defaults to the process's usable cores; ``0`` or ``1`` runs inline
  in the calling process, which is also how the cache logic is
  exercised without pool overhead);
* per-point lookup/store through a :class:`~repro.runner.cache.ResultCache`
  (key: ``cache_id`` + base params + overrides + package version), so a
  repeated sweep evaluates nothing;
* :class:`~repro.runner.instrumentation.RunnerStats` timing hooks.

``evaluate`` must be a **module-level callable** (the pool pickles it by
reference); parameter validation (``skip_invalid``) happens in the
parent process, exactly mirroring the serial path's ordering.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..analysis.sweeps import SweepResult, grid
from ..cpus import usable_cpus
from ..obs import MetricsRegistry, Observability, POINT_WALL_EDGES
from .cache import ResultCache
from .instrumentation import RunnerStats

__all__ = ["resolve_workers", "run_sweep_parallel"]

_MISS = object()


def resolve_workers(workers: int | None) -> int:
    """Effective worker count: ``None`` means every usable core
    (:func:`repro.cpus.usable_cpus`)."""
    if workers is None:
        return usable_cpus()
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def _chunked(items: Sequence, chunk_size: int) -> list[list]:
    return [list(items[i:i + chunk_size]) for i in range(0, len(items), chunk_size)]


def _evaluate_chunk(
    evaluate: Callable[[Any], Mapping[str, Any]],
    chunk: list[tuple[int, dict[str, Any], Any]],
    collect_metrics: bool = False,
) -> tuple[list[tuple[int, dict[str, Any], float]], dict | None]:
    """Worker entry point: evaluate one chunk of (index, overrides, params).

    With ``collect_metrics`` the chunk also returns a picklable
    worker-local :class:`~repro.obs.MetricsRegistry` snapshot
    (``runner.worker.*`` metrics) for the parent to merge — counter and
    histogram merges commute, so the completion order of pool futures
    cannot change the folded totals.
    """
    out: list[tuple[int, dict[str, Any], float]] = []
    for index, overrides, params in chunk:
        t0 = time.perf_counter()
        record: dict[str, Any] = dict(overrides)
        record.update(evaluate(params))
        out.append((index, record, time.perf_counter() - t0))
    if not collect_metrics:
        return out, None
    registry = MetricsRegistry()
    registry.inc("runner.worker.points", len(out))
    registry.observe_many("runner.worker.point_wall_seconds",
                          [wall for _, _, wall in out], POINT_WALL_EDGES)
    return out, registry.snapshot()


def _sweep_cache_id(evaluate: Callable, cache_id: str | None) -> str:
    if cache_id is not None:
        return cache_id
    module = getattr(evaluate, "__module__", "<unknown>")
    qualname = getattr(evaluate, "__qualname__", repr(evaluate))
    return f"sweep:{module}.{qualname}"


def run_sweep_parallel(
    base: Any,
    axes: Mapping[str, Iterable[Any]],
    evaluate: Callable[[Any], Mapping[str, Any]],
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    cache: ResultCache | None = None,
    cache_id: str | None = None,
    skip_invalid: bool = True,
    stats: RunnerStats | None = None,
    obs: Observability | None = None,
) -> SweepResult:
    """Parallel, cached equivalent of :func:`repro.analysis.sweeps.sweep`.

    Returns a :class:`SweepResult` whose records are identical (same
    order, same values) to the serial reference path.  ``cache_id``
    names the grid in the cache (default: the qualified name of
    ``evaluate``); pass ``stats`` to collect timing instrumentation,
    ``obs`` to additionally collect the ``runner.*`` metric family with
    per-worker metric snapshots merged on result return.
    """
    started = time.perf_counter()
    n_workers = resolve_workers(workers)
    stats = stats if stats is not None else RunnerStats()
    stats.workers = max(1, n_workers)
    stats.cache = cache.stats if cache is not None else None
    if obs is not None and obs.enabled:
        stats.obs = obs
    collect_metrics = stats.obs is not None

    axes_lists = {name: list(values) for name, values in axes.items()}

    # Validate every grid point in the parent, preserving the serial
    # path's ordering and skip semantics exactly.
    points: list[tuple[int, dict[str, Any], Any]] = []
    for index, overrides in enumerate(grid(**axes_lists)):
        try:
            params = base.with_(**overrides)
        except ValueError:
            if skip_invalid:
                continue
            raise
        points.append((index, overrides, params))

    entry_id = _sweep_cache_id(evaluate, cache_id)
    records_by_index: dict[int, dict[str, Any]] = {}
    pending: list[tuple[int, dict[str, Any], Any]] = []
    for index, overrides, params in points:
        if cache is not None:
            hit = cache.get(entry_id, {"base": base, "overrides": overrides}, _MISS)
            if hit is not _MISS:
                records_by_index[index] = hit
                stats.record(f"point[{index}]", 0.0, cached=True)
                continue
        pending.append((index, overrides, params))

    if pending:
        if n_workers <= 1:
            computed, snapshot = _evaluate_chunk(evaluate, pending,
                                                 collect_metrics)
            if snapshot is not None:
                stats.obs.merge_metrics({"metrics": snapshot})
        else:
            if chunk_size is None:
                chunk_size = max(1, math.ceil(len(pending) / (4 * n_workers)))
            computed = []
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                futures = [
                    pool.submit(_evaluate_chunk, evaluate, chunk,
                                collect_metrics)
                    for chunk in _chunked(pending, chunk_size)
                ]
                for future in as_completed(futures):
                    chunk_out, snapshot = future.result()
                    computed.extend(chunk_out)
                    if snapshot is not None:
                        stats.obs.merge_metrics({"metrics": snapshot})
        overrides_by_index = {index: overrides for index, overrides, _ in pending}
        for index, record, wall in computed:
            records_by_index[index] = record
            stats.record(f"point[{index}]", wall)
            if cache is not None:
                cache.put(
                    entry_id,
                    {"base": base, "overrides": overrides_by_index[index]},
                    record,
                )

    stats.elapsed = time.perf_counter() - started
    if stats.obs is not None:
        stats.obs.add_span("runner.sweep", stats.elapsed)
    return SweepResult(
        axes=axes_lists,
        records=[records_by_index[index] for index, _, _ in points],
    )
