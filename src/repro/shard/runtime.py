"""Per-shard runtime: one fabric region plus its barrier exchange.

A :class:`ShardRuntime` is a :class:`~repro.simulation.multihop.
FabricRegion` — the one fabric builder, shared with the serial
network — whose channels into other shards are :class:`RemoteLink`
stubs that append to a per-destination outbox instead of scheduling
locally; the coordinator exchanges outboxes at every window barrier.

Determinism contract
--------------------
The region builds and starts in plan order, the same code a serial
:class:`~repro.simulation.multihop.MultiHopNetwork` runs, so a
one-shard plan produces its event sequence by construction.  Inbound
messages are scheduled in the canonical ``(arrival_time,
source_shard, message_seq)`` order, which depends only on the plan,
never on how shards map to workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

from ..simulation.multihop import FabricRegion, TimedEvent
from .plan import ShardPlan

__all__ = ["RemoteLink", "ShardRuntime"]


@dataclass
class RemoteLink:
    """A :class:`~repro.simulation.link.Link` whose far end is remote.

    Duck-types ``transmit``: instead of scheduling a local delivery it
    stamps the arrival time (``now + delay``) and appends to the
    runtime's outbox for the owning shard.  The conservative window
    guarantees the message is exchanged before the receiver simulates
    past its arrival.
    """

    runtime: "ShardRuntime"
    dst_shard: int
    delay: float
    kind: str
    target: object

    def transmit(self, payload) -> None:
        self.runtime._emit(
            self.dst_shard,
            self.runtime.sim.now + self.delay,
            self.kind,
            self.target,
            payload,
        )


class ShardRuntime(FabricRegion):
    """Build and step one shard of a sharded fabric run.

    Lifecycle (driven by the coordinator, locally or over the worker
    pool): construct, :meth:`start`, :meth:`run_window` per barrier,
    :meth:`finish` for the partial result.  With ``obs_enabled`` the
    region narrates into its own handle, whose snapshot rides back in
    the partial for the coordinator to merge.
    """

    def __init__(
        self,
        plan: ShardPlan,
        shard: int,
        timed_events: list[TimedEvent],
        obs_enabled: bool = False,
    ) -> None:
        obs = None
        if obs_enabled:
            from ..obs import Observability

            obs = Observability()
        self._outbox: dict[int, list[tuple[float, str, object, object]]] = {}
        self._msgs_sent = 0
        self._msgs_recv = 0
        super().__init__(plan, shard, timed_events, obs)

    def _remote_link(self, owner: int, delay: float, kind: str,
                     target) -> RemoteLink:
        return RemoteLink(self, owner, delay, kind, target)

    def _emit(self, dst_shard: int, arrival: float, kind: str,
              target: object, payload: object) -> None:
        self._outbox.setdefault(dst_shard, []).append(
            (arrival, kind, target, payload)
        )
        self._msgs_sent += 1

    def run_window(
        self,
        t_end: float,
        inbound: list[tuple[float, int, int, str, object, object]],
    ) -> dict[int, list[tuple[float, str, object, object]]]:
        """Deliver inbound barrier messages, simulate up to ``t_end``.

        ``inbound`` rows are ``(arrival, src_shard, seq, kind, target,
        payload)``; they are scheduled in canonical sorted order so the
        local tie-break is identical for every worker layout.  Returns
        (and clears) the outbox accumulated during the window.
        """
        wall = time.perf_counter() if self.obs is not None else 0.0
        now = self.sim.now
        for arrival, _src, _seq, kind, target, payload in sorted(
            inbound, key=lambda m: (m[0], m[1], m[2])
        ):
            self._msgs_recv += 1
            # Guard against float round-off placing the arrival a hair
            # before the barrier the receiver already reached; the clamp
            # is layout-independent (every shard sits exactly at the
            # window edge when messages are delivered).
            self.sim.schedule_at(max(arrival, now),
                                 partial(self._receiver(kind, target), payload))
        self.sim.run_window(t_end)
        out = self._outbox
        self._outbox = {}
        if self.obs is not None:
            self.obs.add_span("shard.window", time.perf_counter() - wall)
        return out

    def finish(self) -> dict:
        """The region's partial result plus barrier traffic and obs."""
        if self.obs is not None:
            self.obs.count("shard.msgs.sent", self._msgs_sent)
            self.obs.count("shard.msgs.recv", self._msgs_recv)
        part = super().finish()
        part["msgs_sent"] = self._msgs_sent
        part["msgs_recv"] = self._msgs_recv
        part["obs"] = self.obs.snapshot() if self.obs is not None else None
        return part
