"""Sharded fabric simulation — conservative parallel multi-hop engine.

Partitions a topology into shards (:mod:`repro.topology.partition`),
builds one fabric region per shard (:mod:`.runtime`, on the
:class:`~repro.simulation.multihop.FabricRegion` builder the serial
network uses too) inside the persistent runner pool
(:class:`repro.runner.PersistentWorkerPool`), and advances all shards
in lockstep conservative windows sized from the minimum cross-shard
link latency (:mod:`.plan`), exchanging frames, BCN feedback and PAUSE
as batched message buffers at every window barrier
(:mod:`.coordinator`), whose merge also assembles the serial result.

The public seam is ``MultiHopNetwork(..., shards=..., workers=...)``;
this package is the machinery behind it.  Results are bitwise
identical for any worker count, and one shard is the serial run by
construction.
"""

from __future__ import annotations

from .coordinator import run_sharded
from .plan import ShardPlan, build_plan, resolve_shards
from .runtime import RemoteLink, ShardRuntime

__all__ = [
    "RemoteLink",
    "ShardPlan",
    "ShardRuntime",
    "build_plan",
    "resolve_shards",
    "run_sharded",
]
