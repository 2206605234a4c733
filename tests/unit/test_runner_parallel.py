"""Unit tests for the parallel sweep runner (repro.runner.parallel).

The Hypothesis differential suite lives in
``tests/property/test_prop_runner.py``; these are the deterministic
corner cases: ordering, skip/strict semantics, chunking, worker
resolution and instrumentation.
"""

import pytest

from repro.analysis.sweeps import sweep
from repro.core.parameters import BCNParams
from repro.core.stability import required_buffer
from repro.cpus import usable_cpus
from repro.runner import ResultCache, RunnerStats, resolve_workers, run_sweep_parallel

BASE = BCNParams(capacity=1e9, n_flows=10, q0=1e6, buffer_size=8e6)
AXES = {"n_flows": [5, 10, 20], "q0": [1e6, 2e6]}


def evaluate(params: BCNParams) -> dict:
    return {"buffer": required_buffer(params), "flows": params.n_flows}


def failing_evaluate(params: BCNParams) -> dict:
    raise RuntimeError("boom")


class TestResolveWorkers:
    def test_none_means_cpu_count(self):
        # the cores of the process's CPU set, not the machine's count
        assert resolve_workers(None) == usable_cpus()

    def test_none_follows_the_cpu_set_like_the_fluid_kernel(
            self, monkeypatch):
        import os

        from repro.kernels.fluid import _fluid_threads

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert resolve_workers(None) == 1
        assert _fluid_threads(4096) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert resolve_workers(None) == 3
        assert _fluid_threads(4096) == 3

    def test_cpu_count_without_affinity(self, monkeypatch):
        import os

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert usable_cpus() == resolve_workers(None) == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1

    def test_explicit_passthrough(self):
        assert resolve_workers(0) == 0
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestDifferential:
    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_matches_serial_reference(self, workers):
        serial = sweep(BASE, AXES, evaluate)
        parallel = run_sweep_parallel(BASE, AXES, evaluate, workers=workers)
        assert parallel.axes == serial.axes
        assert parallel.records == serial.records

    @pytest.mark.parametrize("chunk_size", [1, 2, 100])
    def test_chunking_preserves_order(self, chunk_size):
        serial = sweep(BASE, AXES, evaluate)
        parallel = run_sweep_parallel(
            BASE, AXES, evaluate, workers=2, chunk_size=chunk_size
        )
        assert parallel.records == serial.records

    def test_skip_invalid_matches_serial(self):
        axes = {"q0": [1e6, 9e6]}  # 9e6 >= buffer: invalid, skipped
        serial = sweep(BASE, axes, evaluate)
        parallel = run_sweep_parallel(BASE, axes, evaluate, workers=2)
        assert len(parallel.records) == 1
        assert parallel.records == serial.records

    def test_strict_mode_raises_like_serial(self):
        with pytest.raises(ValueError):
            run_sweep_parallel(BASE, {"q0": [9e6]}, evaluate,
                               workers=0, skip_invalid=False)

    def test_evaluate_errors_propagate(self):
        with pytest.raises(RuntimeError, match="boom"):
            run_sweep_parallel(BASE, AXES, failing_evaluate, workers=2)

    def test_empty_grid(self):
        result = run_sweep_parallel(BASE, {"n_flows": []}, evaluate, workers=2)
        assert result.records == []


class TestCacheIntegration:
    def test_second_run_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_sweep_parallel(BASE, AXES, evaluate, workers=0, cache=cache)
        stats = RunnerStats()
        second = run_sweep_parallel(
            BASE, AXES, evaluate, workers=0, cache=cache, stats=stats
        )
        assert second.records == first.records
        assert stats.evaluated == 0
        assert stats.cache_hits == len(first.records)
        assert stats.cache_hit_rate == 1.0

    def test_cache_shared_between_parallel_and_inline(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep_parallel(BASE, AXES, evaluate, workers=2, cache=cache)
        stats = RunnerStats()
        run_sweep_parallel(BASE, AXES, evaluate, workers=0, cache=cache,
                           stats=stats)
        assert stats.evaluated == 0

    def test_distinct_cache_ids_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep_parallel(BASE, AXES, evaluate, workers=0, cache=cache,
                           cache_id="one")
        stats = RunnerStats()
        run_sweep_parallel(BASE, AXES, evaluate, workers=0, cache=cache,
                           cache_id="two", stats=stats)
        assert stats.cache_hits == 0

    def test_base_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep_parallel(BASE, AXES, evaluate, workers=0, cache=cache)
        stats = RunnerStats()
        run_sweep_parallel(BASE.with_(w=3.0), AXES, evaluate, workers=0,
                           cache=cache, stats=stats)
        assert stats.cache_hits == 0


class TestInstrumentation:
    def test_stats_populated(self):
        stats = RunnerStats()
        run_sweep_parallel(BASE, AXES, evaluate, workers=2, stats=stats)
        assert len(stats.points) == 6
        assert stats.evaluated == 6
        assert stats.elapsed > 0
        assert stats.workers == 2
        assert stats.compute_wall > 0
        assert 0 < stats.utilization <= 1.0
        assert stats.max_point_wall >= stats.mean_point_wall

    def test_summary_table_and_notes_render(self):
        stats = RunnerStats()
        run_sweep_parallel(BASE, AXES, evaluate, workers=0, stats=stats)
        table = stats.summary_table()
        assert "work units" in table and "worker utilization" in table
        notes = stats.notes()
        assert any("runner:" in line for line in notes)


# -- persistent worker pool (repro.runner.pool) ----------------------------


class Accumulator:
    """Module-level actor class so pool workers can unpickle it."""

    def __init__(self, start=0):
        self.total = start

    def add(self, x):
        self.total += x
        return self.total

    def boom(self):
        raise RuntimeError("remote failure")


class TestPersistentWorkerPool:
    def test_actors_keep_state_across_calls(self):
        from repro.runner.pool import PersistentWorkerPool

        with PersistentWorkerPool(2) as pool:
            pool.create(0, "acc", Accumulator, 10)
            pool.result(0)
            assert pool.call_sync(0, "acc", "add", 5) == 15
            assert pool.call_sync(0, "acc", "add", 5) == 20

    def test_pipelined_calls_reply_in_order(self):
        from repro.runner.pool import PersistentWorkerPool

        with PersistentWorkerPool(1) as pool:
            pool.create(0, "acc", Accumulator)
            pool.result(0)
            for x in (1, 2, 3):
                pool.call(0, "acc", "add", x)
            assert [pool.result(0) for _ in range(3)] == [1, 3, 6]

    def test_remote_exception_surfaces_as_worker_error(self):
        from repro.runner.pool import PersistentWorkerPool, WorkerError

        with PersistentWorkerPool(1) as pool:
            pool.create(0, "acc", Accumulator)
            pool.result(0)
            with pytest.raises(WorkerError) as exc_info:
                pool.call_sync(0, "acc", "boom")
            assert exc_info.value.worker == 0
            assert "remote failure" in exc_info.value.remote_traceback
            # the worker survives its own exception
            assert pool.call_sync(0, "acc", "add", 1) == 1

    def test_result_without_command_is_an_error(self):
        from repro.runner.pool import PersistentWorkerPool

        with PersistentWorkerPool(1) as pool:
            with pytest.raises(RuntimeError, match="no outstanding"):
                pool.result(0)

    def test_closed_pool_rejects_commands(self):
        from repro.runner.pool import PersistentWorkerPool

        pool = PersistentWorkerPool(1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.create(0, "acc", Accumulator)

    def test_rejects_zero_workers(self):
        from repro.runner.pool import PersistentWorkerPool

        with pytest.raises(ValueError):
            PersistentWorkerPool(0)
