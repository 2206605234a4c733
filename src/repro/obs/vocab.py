"""The registered observability *name* vocabulary.

:mod:`repro.obs.trace` owns the cross-engine **event kind** vocabulary
(:data:`~repro.obs.trace.EVENT_KINDS`).  This module registers every
other name the instrumentation layer is allowed to write — span names,
counter names and histogram names — so ad-hoc strings cannot leak into
metric registries or profiles where they would silently fork the
cross-engine conformance contract.

The registries are **plain string literals** on purpose: the
``obs-vocab`` check in :mod:`repro.lint` extracts them from this file's
AST without importing the package, so the vocabulary is enforceable
before any code runs.  Names with a dynamic component (per-engine
histograms, per-backend warm-up spans) are registered as ``_PREFIXES``
or ``_SUFFIXES``: a dynamic name is legal when one of its registered
literal anchors matches.

Adding an instrumentation point therefore means adding its name here
first; a typo'd or unregistered name is a lint error, not a mystery row
in a metrics table.
"""

from __future__ import annotations

from .trace import EVENT_KINDS

__all__ = [
    "EVENT_KINDS",
    "SPAN_NAMES",
    "SPAN_PREFIXES",
    "SPAN_SUFFIXES",
    "COUNTER_NAMES",
    "COUNTER_PREFIXES",
    "HISTOGRAM_NAMES",
    "HISTOGRAM_PREFIXES",
    "GAUGE_NAMES",
    "registered_span",
    "registered_counter",
    "registered_histogram",
    "registered_gauge",
]

#: Exact span names (profiler wall-time buckets).
SPAN_NAMES = (
    "runner.experiments",      # repro.runner.executor: whole-suite wall
    "runner.sweep",            # repro.runner.parallel: one sweep's wall
    "fluid.reference.simulate",  # solve_ivp reference integrator
    "fluid.batch.kernel",      # batch RK4 kernel (numpy and compiled)
    "serve.job",               # repro.serve.server: one job's compute wall
    "serve.drain",             # repro.serve.server: drain-to-quiesce wall
)

#: Span-name prefixes with a dynamic tail.
SPAN_PREFIXES = (
    "kernels.jit_warmup.",     # + backend tier name (cffi)
)

#: Span-name suffixes with a dynamic engine head.
SPAN_SUFFIXES = (
    ".run",                    # packet.<engine>.run, <engine>.multihop.run
)

#: Exact counter names (beyond the per-kind event counters).
COUNTER_NAMES = (
    "runner.evaluated",
    "runner.cache_hit",
    "runner.cache_miss",
    "runner.worker.points",
    "serve.connections",       # repro.serve.server: client connections seen
    "serve.requests",          # protocol requests handled (all ops)
    "serve.submitted",         # submit ops accepted (incl. deduplicated)
    "serve.dedup.inflight",    # submissions attached to a running job
    "serve.dedup.cache",       # submissions served from the result cache
    "serve.computed",          # jobs that actually executed (unique work)
    "serve.completed",         # jobs reaching the done state
    "serve.failed",            # jobs reaching the failed state
    "serve.retried",           # attempts retried after a WorkerError
    "serve.requeued",          # queued jobs written to the requeue file
)

#: Counter-name prefixes with a dynamic tail.
COUNTER_PREFIXES = (
    "events.",                 # + event kind (validated against EVENT_KINDS)
)

#: Exact histogram names.
HISTOGRAM_NAMES = (
    "runner.point_wall_seconds",
    "runner.worker.point_wall_seconds",
    "serve.job_wall_seconds",  # repro.serve.server: per-job compute wall
)

#: Histogram-name prefixes with a dynamic engine tail.
HISTOGRAM_PREFIXES = (
    "queue_frac.",             # + engine tag (occupancy / buffer)
    "sojourn_rel.",            # + engine tag (sojourn / reference)
    "fct_slowdown.",           # + engine tag (FCT / ideal transfer time)
)

#: Exact gauge names (none registered yet).
GAUGE_NAMES: tuple[str, ...] = ()


def _registered(name: str, names: tuple[str, ...],
                prefixes: tuple[str, ...] = (),
                suffixes: tuple[str, ...] = ()) -> bool:
    if name in names:
        return True
    if any(name.startswith(p) and len(name) > len(p) for p in prefixes):
        return True
    return any(name.endswith(s) and len(name) > len(s) for s in suffixes)


def registered_span(name: str) -> bool:
    """True when ``name`` is a registered profiler span name."""
    return _registered(name, SPAN_NAMES, SPAN_PREFIXES, SPAN_SUFFIXES)


def registered_counter(name: str) -> bool:
    """True when ``name`` is a registered metrics counter name."""
    if name.startswith("events."):
        return name.removeprefix("events.") in EVENT_KINDS
    return _registered(name, COUNTER_NAMES, COUNTER_PREFIXES)


def registered_histogram(name: str) -> bool:
    """True when ``name`` is a registered metrics histogram name."""
    return _registered(name, HISTOGRAM_NAMES, HISTOGRAM_PREFIXES)


def registered_gauge(name: str) -> bool:
    """True when ``name`` is a registered metrics gauge name."""
    return _registered(name, GAUGE_NAMES)
