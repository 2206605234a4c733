"""Timing and utilisation instrumentation for the parallel runner.

Every unit of work (one sweep grid point, one registered experiment)
reports a :class:`PointTiming` (defined in :mod:`repro.obs.profile`,
re-exported here); a :class:`RunnerStats` aggregates them into the
numbers a scaling PR cares about — total and per-point wall time, cache
hit rate, and worker utilisation (the fraction of the
``workers x elapsed`` budget actually spent computing).  The aggregate
renders as a plain-text summary table and as short note lines that the
experiment framework attaches to ``ExperimentResult.notes``.

When an :class:`~repro.obs.Observability` handle is attached (``obs``
field), every recorded point also feeds the runner metric family:
``runner.evaluated`` / ``runner.cache_hit`` counters and the
``runner.point_wall_seconds`` histogram.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs import Observability, PointTiming, POINT_WALL_EDGES
from ..viz.series import format_table
from .cache import CacheStats

__all__ = ["PointTiming", "RunnerStats"]


@dataclass
class RunnerStats:
    """Aggregated runner instrumentation for one parallel run."""

    workers: int = 1
    elapsed: float = 0.0
    points: list[PointTiming] = field(default_factory=list)
    cache: CacheStats | None = None
    obs: Observability | None = None

    # -- recording ----------------------------------------------------------

    def record(self, label: str, wall: float, *,
               cached: bool = False) -> None:
        self.points.append(PointTiming(label=label, wall=wall, cached=cached))
        if self.obs is not None:
            self.obs.count("runner.cache_hit" if cached
                           else "runner.evaluated")
            if not cached:
                self.obs.observe("runner.point_wall_seconds", wall,
                                 POINT_WALL_EDGES)

    # -- derived quantities -------------------------------------------------

    @property
    def evaluated(self) -> int:
        """Work units actually computed (not served from the cache)."""
        return sum(1 for p in self.points if not p.cached)

    @property
    def cache_hits(self) -> int:
        return sum(1 for p in self.points if p.cached)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / len(self.points) if self.points else 0.0

    @property
    def compute_wall(self) -> float:
        """Total wall time spent evaluating (sum over non-cached points)."""
        return sum(p.wall for p in self.points if not p.cached)

    @property
    def mean_point_wall(self) -> float:
        walls = [p.wall for p in self.points if not p.cached]
        return sum(walls) / len(walls) if walls else 0.0

    @property
    def max_point_wall(self) -> float:
        walls = [p.wall for p in self.points if not p.cached]
        return max(walls) if walls else 0.0

    @property
    def utilization(self) -> float:
        """``compute_wall / (workers * elapsed)`` — pool busy fraction.

        1.0 means every worker computed for the whole run; low values
        mean the pool idled (tiny grids, long tails, or cache hits).
        """
        budget = self.workers * self.elapsed
        return self.compute_wall / budget if budget > 0 else 0.0

    # -- rendering ----------------------------------------------------------

    def summary_rows(self) -> list[list]:
        rows = [
            ["work units", len(self.points)],
            ["evaluated", self.evaluated],
            ["cache hits", self.cache_hits],
            ["cache hit rate", self.cache_hit_rate],
            ["workers", self.workers],
            ["elapsed (s)", self.elapsed],
            ["compute wall (s)", self.compute_wall],
            ["mean point wall (s)", self.mean_point_wall],
            ["max point wall (s)", self.max_point_wall],
            ["worker utilization", self.utilization],
        ]
        if self.cache is not None:
            rows.append(["cache (process-wide)", self.cache.summary()])
        return rows

    def summary_table(self) -> str:
        """Plain-text summary in the house ``format_table`` style."""
        return format_table(["runner metric", "value"], self.summary_rows())

    def notes(self) -> list[str]:
        """Short note lines for ``ExperimentResult.notes``."""
        lines = [
            f"runner: {len(self.points)} work units on {self.workers} "
            f"worker(s) in {self.elapsed:.3f}s "
            f"(utilization {self.utilization:.0%})",
        ]
        if self.cache is not None or self.cache_hits:
            lines.append(
                f"runner cache: {self.cache_hits} hit(s), "
                f"{self.evaluated} evaluated "
                f"(hit rate {self.cache_hit_rate:.0%})"
            )
        return lines
