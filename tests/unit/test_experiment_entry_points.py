"""Every command that runs experiments goes through one loop.

``repro experiments``, ``python -m repro.experiments`` and ``repro
report`` all call :func:`repro.runner.executor.run_experiments`, and it
looks each experiment up in the registry when it runs, so an entry
replaced after import (as a tracing harness does) is the one that runs.
"""

import functools
import re

import pytest

import repro.runner.executor as executor
from repro.cli import main as cli_main
from repro.experiments import base
from repro.experiments.__main__ import main as experiments_main


def _repro_experiments(ids, tmp_path):
    return cli_main(["experiments", *ids, "--no-plots"])


def _python_m_experiments(ids, tmp_path):
    return experiments_main([*ids, "--no-plots"])


def _repro_report(ids, tmp_path):
    return cli_main(["report", "--out", str(tmp_path / "REPORT.md"), *ids])


ENTRY_POINTS = {
    "repro experiments": _repro_experiments,
    "python -m repro.experiments": _python_m_experiments,
    "repro report": _repro_report,
}


@pytest.fixture
def runner_calls(monkeypatch):
    """The ids of every call to ``run_experiments``, which still runs."""
    calls = []
    original = executor.run_experiments

    @functools.wraps(original)
    def spy(ids=None, **kwargs):
        calls.append(list(ids) if ids is not None else None)
        return original(ids, **kwargs)

    monkeypatch.setattr(executor, "run_experiments", spy)
    return calls


@pytest.fixture
def replaced_fig4(monkeypatch):
    """Re-register fig4 after import; returns the options of each run."""
    runs = []
    original = base.get_experiment("fig4")

    @functools.wraps(original)
    def run(**options):
        runs.append(options)
        return original(**options)

    # save the entry for restoring, then replace it the way a harness does
    monkeypatch.setitem(base._REGISTRY, "fig4", original)
    base.register("fig4")(run)
    return runs


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_runs_through_run_experiments(entry, runner_calls, replaced_fig4,
                                      tmp_path, capsys):
    assert ENTRY_POINTS[entry](["fig4", "fig5"], tmp_path) == 0
    assert runner_calls == [["fig4", "fig5"]]
    assert replaced_fig4 == [{"render_plots": False}]


def test_report_takes_each_wall_time_from_the_runner(tmp_path, capsys):
    from repro.analysis.reporting import run_reproduction_report

    report = run_reproduction_report(["fig4"])
    (entry,) = report.entries
    assert entry.wall_seconds > 0
    assert f"runner: computed in {entry.wall_seconds:.3f}s" in entry.rendered


def test_experiments_prints_where_the_wall_time_went(capsys):
    assert experiments_main(["fig4", "--no-plots"]) == 0
    captured = capsys.readouterr()
    assert "runner: computed in" in captured.out
    assert "compute wall (s)" in captured.err


def test_workers_run_a_pool_with_the_inline_series(tmp_path, capsys):
    inline, pooled = tmp_path / "inline", tmp_path / "pooled"
    ids = ["fig4", "fig5"]
    assert cli_main(["experiments", *ids, "--no-plots",
                     "--csv", str(inline)]) == 0
    assert cli_main(["experiments", *ids, "--no-plots", "--workers", "2",
                     "--csv", str(pooled)]) == 0
    assert re.search(r"^workers +2 ", capsys.readouterr().err, re.M)
    for experiment_id in ids:
        name = f"{experiment_id}.csv"
        assert (pooled / name).read_bytes() == (inline / name).read_bytes()


@pytest.mark.parametrize("main", [
    lambda argv: cli_main(["experiments", *argv]),
    experiments_main,
], ids=["repro experiments", "python -m repro.experiments"])
@pytest.mark.parametrize("argv", [
    ["fig4", "--parallel"],
    ["fig4", "--cache-dir", "c", "--no-cache"],
    ["fig4", "--workers", "0"],
], ids=["--parallel", "--no-cache", "--workers"])
def test_removed_and_invalid_flags_are_rejected(main, argv, runner_calls,
                                                capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    flag = next(arg for arg in argv if arg.startswith("--")
                and arg != "--cache-dir")
    assert flag in capsys.readouterr().err
    assert runner_calls == []
