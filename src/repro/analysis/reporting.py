"""Reproduction report generation.

Runs every registered experiment through
:func:`repro.runner.run_experiments` and assembles a single markdown
report — the artefact a reviewer reads: per-experiment verdict tables,
pass/fail roll-up with each experiment's wall time from the runner's
:class:`~repro.runner.RunnerStats`, and optionally the CSV series on
the side.  Exposed on the CLI as ``python -m repro report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["ReportEntry", "ReproductionReport", "run_reproduction_report"]


@dataclass
class ReportEntry:
    """One experiment's outcome inside the report."""

    experiment_id: str
    title: str
    passed: bool
    failing: list[str]
    wall_seconds: float
    rendered: str


@dataclass
class ReproductionReport:
    """The assembled report."""

    entries: list[ReportEntry] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def total_wall_seconds(self) -> float:
        return sum(e.wall_seconds for e in self.entries)

    def summary_rows(self) -> list[list]:
        return [
            [e.experiment_id, "PASS" if e.passed else "FAIL",
             f"{e.wall_seconds:.1f}s", e.title]
            for e in self.entries
        ]

    def to_markdown(self) -> str:
        lines = [
            "# Reproduction report",
            "",
            f"{len(self.entries)} experiments, "
            f"{sum(e.passed for e in self.entries)} passed, "
            f"total {self.total_wall_seconds:.0f}s.",
            "",
            "| id | verdict | wall | title |",
            "|---|---|---|---|",
        ]
        for e in self.entries:
            verdict = "PASS" if e.passed else f"FAIL ({', '.join(e.failing)})"
            lines.append(
                f"| {e.experiment_id} | {verdict} | {e.wall_seconds:.1f}s "
                f"| {e.title} |"
            )
        lines.append("")
        for e in self.entries:
            lines += ["---", "", "```", e.rendered, "```", ""]
        return "\n".join(lines)

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_markdown())
        return path


def run_reproduction_report(
    ids: list[str] | None = None,
    *,
    csv_dir: str | Path | None = None,
) -> ReproductionReport:
    """Run experiments (all by default) inline and assemble the report."""
    from ..runner.executor import run_experiments
    from ..runner.instrumentation import RunnerStats

    stats = RunnerStats()
    pairs = run_experiments(ids, workers=1, options={"render_plots": False},
                            stats=stats)
    walls = {point.label: point.wall for point in stats.points}
    report = ReproductionReport()
    for experiment_id, result in pairs:
        if csv_dir is not None:
            result.save_series(csv_dir)
        report.entries.append(
            ReportEntry(
                experiment_id=experiment_id,
                title=result.title,
                passed=result.passed,
                failing=result.failing_verdicts(),
                wall_seconds=walls[experiment_id],
                rendered=result.render(),
            )
        )
    return report
