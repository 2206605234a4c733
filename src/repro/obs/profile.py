"""Span-based profiling hooks with a near-free disabled path.

A :class:`SpanProfiler` accumulates named wall-clock spans measured
with the monotonic clock.  The two usage patterns are::

    with obs.span("fluid.batch.kernel"):
        ...                              # timed block

    obs.add_span("packet.run", elapsed)  # pre-measured duration

When the profiler is disabled, ``span()`` returns one pre-built no-op
context manager (no allocation, no clock read), so instrumented hot
paths cost a single attribute check.

:class:`PointTiming` — the per-work-unit wall record the parallel
runner aggregates — lives here as well; ``repro.runner.instrumentation``
re-exports it for backwards compatibility.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..viz.series import format_table

__all__ = ["PointTiming", "SpanStats", "SpanProfiler"]


@dataclass(frozen=True)
class PointTiming:
    """Wall-clock record of one executed (or cache-served) work unit."""

    label: str
    wall: float
    cached: bool = False


@dataclass
class SpanStats:
    """Accumulated timings for one span name."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "SpanStats") -> None:
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)


class _NullSpan:
    """Reusable no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_profiler", "_name", "_t0")

    def __init__(self, profiler: "SpanProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self):
        self._t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self._profiler.add(self._name, time.monotonic() - self._t0)
        return False


class SpanProfiler:
    """Accumulates named monotonic-clock spans."""

    __slots__ = ("enabled", "spans")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: dict[str, SpanStats] = {}

    def span(self, name: str):
        """Context manager timing a block under ``name``."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def add(self, name: str, seconds: float) -> None:
        """Record a pre-measured duration under ``name``."""
        if not self.enabled:
            return
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats()
        stats.add(seconds)

    # -- snapshots / merging ------------------------------------------------

    def snapshot(self) -> dict:
        return {
            name: [s.count, s.total, s.min, s.max]
            for name, s in self.spans.items()
        }

    def merge_snapshot(self, snap: dict) -> None:
        for name, (count, total, mn, mx) in snap.items():
            stats = self.spans.get(name)
            if stats is None:
                stats = self.spans[name] = SpanStats()
            stats.merge(SpanStats(count=count, total=total, min=mn, max=mx))

    # -- rendering ----------------------------------------------------------

    def summary_rows(self) -> list[list]:
        rows = []
        for name in sorted(self.spans, key=lambda n: -self.spans[n].total):
            s = self.spans[name]
            rows.append([name, s.count, f"{s.total:.6f}", f"{s.mean():.6f}",
                         f"{s.min:.6f}", f"{s.max:.6f}"])
        return rows

    def summary_table(self) -> str:
        return format_table(
            ["span", "count", "total (s)", "mean (s)", "min (s)", "max (s)"],
            self.summary_rows(),
        )
