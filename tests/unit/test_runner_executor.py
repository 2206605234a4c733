"""Unit tests for the experiment-registry runner (repro.runner.executor)."""

import pytest

import repro.experiments  # noqa: F401 — registration side effects
from repro.experiments import base
from repro.experiments.base import ExperimentResult
from repro.runner import ResultCache, RunnerStats, run_experiments

FAST_IDS = ["fig6", "fig4", "fig9"]  # closed-form experiments, ~ms each
OPTIONS = {"render_plots": False}


class TestOrdering:
    def test_inline_preserves_requested_order(self):
        pairs = run_experiments(FAST_IDS, workers=0, options=OPTIONS)
        assert [eid for eid, _ in pairs] == FAST_IDS
        assert all(isinstance(r, ExperimentResult) for _, r in pairs)
        assert all(r.passed for _, r in pairs)

    def test_pooled_preserves_requested_order(self):
        pairs = run_experiments(FAST_IDS, workers=2, options=OPTIONS)
        assert [eid for eid, _ in pairs] == FAST_IDS
        assert all(r.passed for _, r in pairs)

    def test_pooled_matches_inline_results(self):
        inline = run_experiments(FAST_IDS, workers=0, options=OPTIONS)
        pooled = run_experiments(FAST_IDS, workers=2, options=OPTIONS)
        for (_, a), (_, b) in zip(inline, pooled):
            assert a.experiment_id == b.experiment_id
            assert a.verdicts == b.verdicts
            assert a.table_rows == b.table_rows

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiments(["nope"], workers=0)


class TestOptionFiltering:
    def test_each_experiment_receives_only_the_options_it_takes(
            self, monkeypatch):
        seen = {}

        def run(*, render_plots=True, duration=1.0):
            seen.update(render_plots=render_plots, duration=duration)
            return ExperimentResult(experiment_id="v3", title="stand-in")

        monkeypatch.setitem(base._REGISTRY, "v3", run)
        # fig4's run() takes only render_plots: duration must not reach it
        pairs = dict(run_experiments(["fig4", "v3"], workers=0,
                                     options={**OPTIONS, "duration": 0.01}))
        assert pairs["fig4"].passed
        assert seen == {"render_plots": False, "duration": 0.01}


class TestCaching:
    def test_second_run_hits_and_skips(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_experiments(FAST_IDS, workers=0, cache=cache,
                                options=OPTIONS)
        stats = RunnerStats()
        second = run_experiments(FAST_IDS, workers=0,
                                 cache=ResultCache(tmp_path),
                                 options=OPTIONS, stats=stats)
        assert stats.evaluated == 0
        assert stats.cache_hits == len(FAST_IDS)
        for (_, a), (_, b) in zip(first, second):
            assert a.verdicts == b.verdicts
            assert a.table_rows == b.table_rows
            assert any("cache hit" in note for note in b.notes)

    def test_options_an_experiment_does_not_take_stay_out_of_its_key(
            self, tmp_path):
        run_experiments(["fig6"], workers=0, cache=ResultCache(tmp_path),
                        options=OPTIONS)
        stats = RunnerStats()
        run_experiments(["fig6"], workers=0, cache=ResultCache(tmp_path),
                        options={**OPTIONS, "duration": 0.01}, stats=stats)
        assert stats.cache_hits == 1

    def test_render_plots_is_part_of_the_key(self, tmp_path):
        run_experiments(["fig6"], workers=0, cache=ResultCache(tmp_path),
                        options={"render_plots": False})
        stats = RunnerStats()
        run_experiments(["fig6"], workers=0, cache=ResultCache(tmp_path),
                        options={"render_plots": True}, stats=stats)
        assert stats.cache_hits == 0


class TestInstrumentation:
    def test_stats_one_unit_per_experiment(self):
        stats = RunnerStats()
        run_experiments(FAST_IDS, workers=0, options=OPTIONS, stats=stats)
        assert len(stats.points) == len(FAST_IDS)
        assert stats.evaluated == len(FAST_IDS)
        assert stats.elapsed > 0

    def test_computed_results_note_their_wall_time(self):
        pairs = run_experiments(["fig6"], workers=0, options=OPTIONS)
        notes = pairs[0][1].notes
        assert any(note.startswith("runner: computed in") for note in notes)
