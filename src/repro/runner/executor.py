"""The one loop that runs experiments: :func:`run_experiments`.

:func:`run_experiments` runs a set of registered experiments
(:func:`repro.experiments.base.all_experiments`) inline or over a
process pool, through an optional
:class:`~repro.runner.cache.ResultCache` holding whole
:class:`~repro.experiments.base.ExperimentResult` objects, and times
each one into :class:`~repro.runner.instrumentation.RunnerStats`.
``repro experiments``, ``python -m repro.experiments``, ``repro
report`` and served experiment jobs all run through it.  Results are
always returned in the requested id order, whatever order the pool
completes them in.  Each experiment's ``run`` is looked up in the
registry when the call runs, so an entry replaced after import is the
one that runs.

Option handling
---------------
``options`` is filtered per experiment against the ``run`` signature:
each experiment receives only the options it accepts (typically
``render_plots``, plus knobs such as ``duration`` or ``engine``), so
one options mapping can be offered to the whole registry.  The cache
key is the accepted options and nothing else.
"""

from __future__ import annotations

import inspect
import time
from typing import Any, Mapping

from ..experiments.base import ExperimentResult, all_experiments, get_experiment
from ..obs import Observability
from .cache import ResultCache
from .instrumentation import RunnerStats
from .parallel import resolve_workers

__all__ = ["run_experiments"]

_MISS = object()


def _accepted_options(run, options: Mapping[str, Any]) -> dict[str, Any]:
    """Subset of ``options`` the experiment's ``run`` signature accepts."""
    parameters = inspect.signature(run).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return dict(options)
    return {k: v for k, v in options.items() if k in parameters}


def _run_one(experiment_id: str, options: dict[str, Any]) -> tuple[ExperimentResult, float]:
    """Worker entry point: run one registered experiment, timed."""
    import repro.experiments  # noqa: F401 — registration side effects

    run = get_experiment(experiment_id)
    t0 = time.perf_counter()
    result = run(**options)
    return result, time.perf_counter() - t0


def run_experiments(
    ids: list[str] | None = None,
    *,
    workers: int | None = None,
    cache: ResultCache | None = None,
    options: Mapping[str, Any] | None = None,
    stats: RunnerStats | None = None,
    obs: Observability | None = None,
) -> list[tuple[str, ExperimentResult]]:
    """Run experiments by id, in parallel and through the cache.

    Parameters
    ----------
    ids:
        Experiment ids to run (default: every registered experiment,
        sorted).
    workers:
        Pool size; ``None`` means every usable core, ``0``/``1`` runs
        inline.  A single requested experiment always runs inline.
    cache:
        Optional :class:`ResultCache`; hits skip the run entirely and
        are annotated in the result's notes.
    options:
        Keyword options offered to every ``run``, filtered per
        signature (see module docstring).
    stats:
        Optional :class:`RunnerStats` to populate (one work unit per
        experiment).
    obs:
        Optional :class:`~repro.obs.Observability` handle; recorded
        work units feed the ``runner.*`` metric family and the whole
        invocation reports a ``runner.experiments`` span.
    """
    started = time.perf_counter()
    if ids is None:
        ids = sorted(all_experiments())
    options = dict(options or {})
    n_workers = resolve_workers(workers)
    pooled = n_workers > 1 and len(ids) > 1
    stats = stats if stats is not None else RunnerStats()
    stats.workers = max(1, n_workers) if pooled else 1
    stats.cache = cache.stats if cache is not None else None
    if obs is not None and obs.enabled:
        stats.obs = obs

    per_id_options = {
        experiment_id: _accepted_options(get_experiment(experiment_id), options)
        for experiment_id in ids
    }

    results: dict[str, ExperimentResult] = {}
    pending: list[str] = []
    for experiment_id in ids:
        if cache is not None:
            entry = cache.get(
                experiment_id, {"options": per_id_options[experiment_id]}, _MISS
            )
            if entry is not _MISS:
                result, stored_wall = entry["result"], entry["wall"]
                result.notes.append(
                    f"runner: cache hit (previous wall {stored_wall:.3f}s)"
                )
                results[experiment_id] = result
                stats.record(experiment_id, 0.0, cached=True)
                continue
        pending.append(experiment_id)

    def finish(experiment_id: str, result: ExperimentResult, wall: float) -> None:
        stats.record(experiment_id, wall)
        if cache is not None:
            cache.put(
                experiment_id,
                {"options": per_id_options[experiment_id]},
                {"result": result, "wall": wall},
            )
        result.notes.append(f"runner: computed in {wall:.3f}s")
        results[experiment_id] = result

    if pending:
        if not pooled:
            for experiment_id in pending:
                result, wall = _run_one(experiment_id, per_id_options[experiment_id])
                finish(experiment_id, result, wall)
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                futures = {
                    pool.submit(_run_one, experiment_id,
                                per_id_options[experiment_id]): experiment_id
                    for experiment_id in pending
                }
                for future, experiment_id in futures.items():
                    result, wall = future.result()
                    finish(experiment_id, result, wall)

    stats.elapsed = time.perf_counter() - started
    if stats.obs is not None:
        stats.obs.add_span("runner.experiments", stats.elapsed)
    return [(experiment_id, results[experiment_id]) for experiment_id in ids]
