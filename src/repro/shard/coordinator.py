"""Window-barrier coordinator for sharded fabric runs.

:func:`run_sharded` drives ``n_shards`` :class:`~repro.shard.runtime.
ShardRuntime` instances through the conservative window schedule of a
:class:`~repro.shard.plan.ShardPlan` and merges their partial results
with :func:`merge_partials`, the same fold that assembles the serial
network's one region into a
:class:`~repro.simulation.multihop.MultiHopResult`.

Two execution modes share the loop:

* ``workers <= 1`` — every runtime lives in-process and is stepped
  inline.  No pickling, no processes; used for the determinism tests
  and as the degenerate path on single-CPU boxes.
* ``workers > 1`` — runtimes are actors in a
  :class:`~repro.runner.pool.PersistentWorkerPool`; shard ``s`` lives
  on worker ``s % n_workers``.  Per window the coordinator pipelines
  one ``run_window`` command to every worker, gathers replies in shard
  order, and routes the outboxes — one barrier round trip per window.

Determinism: the message exchange tags every message with its source
shard and per-buffer position, and receivers sort on ``(arrival,
src_shard, seq)``, so results are bitwise identical for any worker
count (including the inline path).  Observability metrics and spans
from the shards are merged commutatively into the caller's handle;
per-event trace records stay in the workers (documented limitation —
traces are not merged across shards).
"""

from __future__ import annotations

import time

import numpy as np

from ..runner.parallel import resolve_workers
from ..runner.pool import PersistentWorkerPool
from ..simulation.multihop import MultiHopResult
from .plan import ShardPlan
from .runtime import ShardRuntime

__all__ = ["merge_partials", "run_sharded"]

TimedEvent = tuple[float, int, str, tuple]
Outbox = dict[int, list[tuple[float, str, object, object]]]


def run_sharded(
    plan: ShardPlan,
    duration: float,
    *,
    workers: int | None = None,
    timed_events: list[TimedEvent] | None = None,
    obs=None,
) -> MultiHopResult:
    """Run the sharded fabric for ``duration`` seconds."""
    obs = obs if (obs is not None and obs.enabled) else None
    wall_start = time.perf_counter() if obs is not None else 0.0
    events = list(timed_events or [])
    per_shard_events = [
        plan.events_for_shard(shard, events) for shard in range(plan.n_shards)
    ]
    barriers = plan.window_edges(duration)
    n_workers = min(resolve_workers(workers) or 1, plan.n_shards)

    if n_workers <= 1:
        partials = _run_inline(plan, duration, barriers, per_shard_events,
                               obs is not None)
    else:
        partials = _run_pooled(plan, duration, barriers, per_shard_events,
                               obs is not None, n_workers)

    result = merge_partials(plan, duration, partials)
    if obs is not None:
        for part in partials:
            if part["obs"] is not None:
                obs.merge_metrics(part["obs"])
        obs.count("shard.windows", len(barriers))
        obs.add_span(f"packet.{plan.engine}.sharded.run",
                     time.perf_counter() - wall_start)
    return result


def _route(outboxes: list[Outbox], n_shards: int):
    """Turn per-shard outboxes into per-shard canonical inboxes.

    Sources are visited in shard order and each message keeps its
    position in its (src, dst) buffer, so the ``(arrival, src_shard,
    seq)`` tags — and therefore the receiver-side sort — are identical
    for every worker layout.
    """
    inboxes: list[list] = [[] for _ in range(n_shards)]
    for src_shard, outbox in enumerate(outboxes):
        for dst_shard in sorted(outbox):
            for seq, (arrival, kind, target, payload) in enumerate(
                outbox[dst_shard]
            ):
                inboxes[dst_shard].append(
                    (arrival, src_shard, seq, kind, target, payload)
                )
    return inboxes


def _run_inline(plan, duration, barriers, per_shard_events, obs_enabled):
    runtimes = [
        ShardRuntime(plan, shard, per_shard_events[shard], obs_enabled)
        for shard in range(plan.n_shards)
    ]
    for runtime in runtimes:
        runtime.start(duration)
    inboxes: list[list] = [[] for _ in runtimes]
    for t_end in barriers:
        outboxes = [
            runtime.run_window(t_end, inbox)
            for runtime, inbox in zip(runtimes, inboxes)
        ]
        inboxes = _route(outboxes, plan.n_shards)
    return [runtime.finish() for runtime in runtimes]


def _run_pooled(plan, duration, barriers, per_shard_events, obs_enabled,
                n_workers):
    worker_of = [shard % n_workers for shard in range(plan.n_shards)]
    names = [f"shard-{shard}" for shard in range(plan.n_shards)]
    shards = range(plan.n_shards)
    with PersistentWorkerPool(n_workers) as pool:
        # One pipelined command wave per step; replies gathered in shard
        # order, which per worker matches send order (FIFO pipes).
        for shard in shards:
            pool.create(worker_of[shard], names[shard], ShardRuntime,
                        plan, shard, per_shard_events[shard], obs_enabled)
        for shard in shards:
            pool.result(worker_of[shard])
        for shard in shards:
            pool.call(worker_of[shard], names[shard], "start", duration)
        for shard in shards:
            pool.result(worker_of[shard])
        inboxes: list[list] = [[] for _ in shards]
        for t_end in barriers:
            for shard in shards:
                pool.call(worker_of[shard], names[shard], "run_window",
                          t_end, inboxes[shard])
            outboxes = [pool.result(worker_of[shard]) for shard in shards]
            inboxes = _route(outboxes, plan.n_shards)
        for shard in shards:
            pool.call(worker_of[shard], names[shard], "finish")
        return [pool.result(worker_of[shard]) for shard in shards]


def merge_partials(plan: ShardPlan, duration: float, partials: list[dict]
                   ) -> MultiHopResult:
    """Fold region partials (:meth:`FabricRegion.finish`) into one result.

    Every merged quantity is either owned by exactly one shard (rates,
    port queues, finish times, delivered bits of a flow) or a plain sum
    of disjoint counters, so the fold is order-independent.  Sample
    timestamps are identical in every shard (same recorder cadence);
    the first shard's row is used.
    """
    delivered = {spec.flow_id: 0.0 for spec in plan.flows}
    rates: dict[int, float] = {}
    finish_times: dict[int, float] = {}
    port_queues: dict[tuple[str, str], np.ndarray] = {}
    dropped = bcn_negative = bcn_positive = pauses = 0
    for part in partials:
        for fid, bits in part["delivered"].items():
            delivered[fid] += bits
        rates.update(part["rates"])
        finish_times.update(part["finish_times"])
        port_queues.update(part["port_queues"])
        dropped += part["dropped"]
        bcn_negative += part["bcn_negative"]
        bcn_positive += part["bcn_positive"]
        pauses += part["pauses"]
    return MultiHopResult(
        duration=duration,
        per_flow_delivered_bits=delivered,
        per_flow_rate=rates,
        port_queues=port_queues,
        port_queue_times=np.asarray(partials[0]["sample_times"], dtype=float),
        dropped_frames=dropped,
        bcn_negative=bcn_negative,
        bcn_positive=bcn_positive,
        pauses=pauses,
        finish_times=finish_times,
        start_times={spec.flow_id: spec.start_time for spec in plan.flows},
    )
