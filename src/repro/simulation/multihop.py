"""Multi-hop BCN simulation over arbitrary data-center topologies.

Generalises the dumbbell of :mod:`repro.simulation.network` to any
:mod:`networkx` fabric from :mod:`repro.topology`: every *directed*
switch-output port traversed by at least one flow gets its own FIFO,
service loop and BCN congestion point (a :class:`.switch.CoreSwitch`),
and frames hop port to port along each flow's (ECMP-selected) route.
BCN messages travel back to the originating source over control links
whose delay is proportional to the hop distance.

802.3x PAUSE is wired **hop-by-hop** by default (``hop_level_pause``):
a congested port pauses the *port feeding it*, so congestion rolls back
upstream with the head-of-line blocking the paper's Section I
criticises (the victim-flow experiment M1 measures it); pass
``hop_level_pause=False`` for the simpler source-directed PAUSE.

One builder wires every fabric: :class:`FabricRegion` instantiates the
ports and sources one shard of a :class:`repro.shard.ShardPlan` owns
and resolves each channel once, to a local :class:`~.link.Link` or to
a remote stub.  A serial :class:`MultiHopNetwork` is the single region
of a one-shard plan, so it owns everything and never builds a stub.
Large fabrics can run **sharded** instead: ``shards=`` partitions the
topology (:func:`repro.topology.partition_graph`), one region per
shard advances in conservative lookahead windows, and ``workers=``
processes host the regions (:mod:`repro.shard`).  Results are
independent of the worker count, and one shard is the serial run by
construction.

Simplification relative to a full switch implementation (documented
here per the reproduction rules): one rate regulator per source reacts
to BCN from *any* congestion point on its path (the draft instantiates
one per CPID).  This does not affect the single-bottleneck dynamics the
paper analyses and keeps multi-bottleneck runs conservative (sources
slow down at least as much as the draft requires).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable

import networkx as nx
import numpy as np

from ..topology.routing import route_edges
from ..workloads.flows import FlowSpec
from .engine import Simulator
from .frames import EthernetFrame
from .link import Link
from .network import PACKET_ENGINES, _require_positive_finite
from .source import RateRegulator, TrafficSource
from .switch import CoreSwitch

if TYPE_CHECKING:
    from ..shard.plan import ShardPlan

__all__ = ["FabricRegion", "PortConfig", "MultiHopResult", "MultiHopNetwork",
           "QueueRecorder"]

Edge = tuple[str, str]
TimedEvent = tuple[float, int, str, tuple]


@dataclass(frozen=True)
class PortConfig:
    """BCN configuration applied to every instantiated output port.

    ``0 < q0 < buffer_bits``: the equilibrium queue must fit in the
    buffer, or every sample reports a congestion level the port can
    never reach.
    """

    q0: float
    buffer_bits: float
    w: float = 2.0
    pm: float = 0.01
    gi: float = 4.0
    gd: float = 1.0 / 128.0
    ru: float = 8e6
    q_sc: float | None = None
    fb_bits: int | None = 6
    regulator_mode: str = "message"
    min_rate: float = 1e6

    def __post_init__(self) -> None:
        if not 0 < self.q0 < self.buffer_bits:
            raise ValueError(
                f"need 0 < q0 < buffer_bits, got q0={self.q0!r}, "
                f"buffer_bits={self.buffer_bits!r}"
            )


@dataclass
class MultiHopResult:
    """Outcome of a multi-hop run."""

    duration: float
    per_flow_delivered_bits: dict[int, float]
    per_flow_rate: dict[int, float]
    port_queues: dict[tuple[str, str], np.ndarray]
    port_queue_times: np.ndarray
    dropped_frames: int
    bcn_negative: int
    bcn_positive: int
    pauses: int
    finish_times: dict[int, float] = field(default_factory=dict)
    start_times: dict[int, float] = field(default_factory=dict)

    def flow_throughput(self, flow_id: int) -> float:
        """Delivered bits/s for one flow over the whole run."""
        return self.per_flow_delivered_bits.get(flow_id, 0.0) / self.duration

    def flow_completion_time(self, flow_id: int) -> float | None:
        """FCT of a finite flow (None if it did not finish in the run)."""
        finish = self.finish_times.get(flow_id)
        if finish is None:
            return None
        return finish - self.start_times.get(flow_id, 0.0)

    def completed_flows(self) -> list[int]:
        return sorted(self.finish_times)

    def hottest_port(self) -> tuple[str, str]:
        """The port with the largest peak queue."""
        return max(self.port_queues, key=lambda e: float(self.port_queues[e].max()))

    def jain_fairness(self, flow_ids: list[int] | None = None) -> float:
        ids = flow_ids if flow_ids is not None else sorted(self.per_flow_rate)
        r = np.array([self.per_flow_rate[i] for i in ids])
        if r.size == 0 or float(np.sum(r * r)) == 0.0:
            return 1.0
        return float(np.sum(r)) ** 2 / (r.size * float(np.sum(r * r)))


class QueueRecorder:
    """Per-port queue sampler writing into preallocated numpy storage.

    Replaces the per-sample ``list.append`` per port (and the final
    list -> array conversions) with one ``(n_ports, n_samples)`` float
    array grown geometrically, so long runs with many ports sample in
    O(ports) scalar stores and O(1) amortised allocations.
    """

    __slots__ = ("_sim", "_ports", "_times", "_samples", "_n")

    def __init__(self, sim, ports: dict[tuple[str, str], CoreSwitch],
                 expected_samples: int) -> None:
        self._sim = sim
        self._ports = list(ports.items())
        capacity = max(int(expected_samples), 4)
        self._times = np.empty(capacity, dtype=float)
        self._samples = np.empty((len(self._ports), capacity), dtype=float)
        self._n = 0

    def record(self) -> None:
        n = self._n
        if n == self._times.shape[0]:
            self._times = np.concatenate(
                [self._times, np.empty_like(self._times)]
            )
            self._samples = np.concatenate(
                [self._samples, np.empty_like(self._samples)], axis=1
            )
        self._times[n] = self._sim.now
        samples = self._samples
        for row, (_, port) in enumerate(self._ports):
            samples[row, n] = port.queue_bits
        self._n = n + 1

    def times(self) -> np.ndarray:
        """Sample timestamps (a copy trimmed to the recorded length)."""
        return self._times[: self._n].copy()

    def queues(self) -> dict[tuple[str, str], np.ndarray]:
        """Per-port sample rows, trimmed and copied."""
        return {
            edge: self._samples[row, : self._n].copy()
            for row, (edge, _) in enumerate(self._ports)
        }


class FabricRegion:
    """The ports and sources one shard of a fabric plan owns, on one kernel.

    ``plan`` (a :class:`repro.shard.ShardPlan`) fixes routes and who
    owns each port and source; the region builds what ``shard`` owns in
    plan order — ports in first-traversal order over flows, then per
    flow its source, the next hop at each owned port, BCN back-links and
    PAUSE links — so the event sequence depends on the plan alone.
    Every channel is resolved once, here: to a :class:`~.link.Link`
    when its far end is owned by this shard, else to
    :meth:`_remote_link`.  A frame's next hop is therefore one dict
    lookup, and a one-shard region never tests ownership per frame.

    Lifecycle: construct, :meth:`start`, advance :attr:`sim`,
    :meth:`finish` for the partial result that
    :func:`repro.shard.coordinator.merge_partials` folds.  The
    ``timed_events`` list is read at :meth:`start`, so events appended
    to it after construction still apply.  ``obs`` is the handle the
    ports narrate into (``None`` disables it).
    """

    def __init__(self, plan: ShardPlan, shard: int,
                 timed_events: list[TimedEvent], obs=None) -> None:
        self.plan = plan
        self.shard = shard
        self.obs = obs
        self._obs_engine = f"packet.{plan.engine}"
        self._timed_events = timed_events
        self.sim = Simulator()
        self.ports: dict[Edge, CoreSwitch] = {}
        #: port -> {flow id: the frame's next transmit, or delivery}
        self._next_hop: dict[Edge, dict[int, Callable]] = {}
        for edge in plan.port_edges:
            if plan.port_owner[edge] == shard:
                self.ports[edge] = self._make_port(edge)

        self.sources: dict[int, TrafficSource] = {}
        self._sizes = {spec.flow_id: spec.size_bits for spec in plan.flows}
        self._delivered: dict[int, float] = {}
        self._finish_times: dict[int, float] = {}
        self._pause_wired: set[tuple[Edge, tuple[str, str]]] = set()
        #: one frame channel per port edge, shared by uplinks and hops
        self._frame_links: dict[Edge, object] = {}
        for spec in plan.flows:
            self._wire_flow(spec)
        self._recorder: QueueRecorder | None = None

    # -- construction ------------------------------------------------------

    def _make_port(self, edge: Edge) -> CoreSwitch:
        cfg = self.plan.config
        port = CoreSwitch(
            self.sim,
            cpid=f"{edge[0]}->{edge[1]}",
            capacity=self.plan.graph.edges[edge]["capacity"],
            q0=cfg.q0,
            buffer_bits=cfg.buffer_bits,
            w=cfg.w,
            pm=cfg.pm,
            q_sc=cfg.q_sc,
            fb_bits=cfg.fb_bits,
        )
        hops = self._next_hop[edge] = {}
        port.forward = lambda frame: hops[frame.flow_id](frame)
        port.attach_obs(self.obs, self._obs_engine)
        return port

    def _receiver(self, kind: str, target) -> Callable:
        """The local callback a ``kind`` message for ``target`` reaches.

        ``frame`` -> port.receive, ``ctrl`` -> source.receive_control,
        ``pause`` -> port.receive_pause.
        """
        if kind == "frame":
            return self.ports[target].receive
        if kind == "ctrl":
            return self.sources[target].receive_control
        if kind == "pause":
            return self.ports[target].receive_pause
        raise ValueError(f"unknown channel kind {kind!r}")

    def _channel(self, owner: int, delay: float, kind: str, target):
        """The link carrying ``kind`` messages to ``target`` in ``owner``."""
        if owner == self.shard:
            return Link(self.sim, delay, self._receiver(kind, target))
        return self._remote_link(owner, delay, kind, target)

    def _remote_link(self, owner: int, delay: float, kind: str, target):
        raise ValueError(
            f"shard {self.shard} has a channel into shard {owner}; a "
            "multi-shard plan runs on repro.shard.ShardRuntime regions"
        )

    def _frame_link(self, edge: Edge):
        link = self._frame_links.get(edge)
        if link is None:
            link = self._channel(self.plan.port_owner[edge], self.plan.delay,
                                 "frame", edge)
            self._frame_links[edge] = link
        return link

    def _wire_flow(self, spec: FlowSpec) -> None:
        plan = self.plan
        fid = spec.flow_id
        edges = route_edges(plan.routes[fid])
        owner = plan.port_owner
        src_shard = plan.source_owner[fid]

        if src_shard == self.shard:
            cfg = plan.config
            regulator = RateRegulator(
                gi=cfg.gi,
                gd=cfg.gd,
                ru=cfg.ru,
                initial_rate=spec.demand,
                min_rate=cfg.min_rate,
                line_rate=spec.demand,
                mode=cfg.regulator_mode,
            )
            if len(edges) >= 2:
                # The host NIC is paced, so the uplink feeds the first
                # in-fabric port.
                uplink = self._frame_link(edges[1])
            else:
                # Direct host-to-host (DCell level links): deliver
                # straight away.
                uplink = Link(self.sim, plan.delay, self._deliver)
            self.sources[fid] = TrafficSource(
                self.sim,
                address=fid,
                regulator=regulator,
                send=uplink.transmit,
                frame_bits=plan.frame_bits,
                dst=spec.dst,
                total_bits=spec.size_bits,
            )
            self._delivered[fid] = 0.0

        # The next hop of this flow's frames at each owned port they
        # cross; the last port delivers.
        last = len(edges) - 1
        for i in range(1, len(edges)):
            if owner[edges[i]] == self.shard:
                self._next_hop[edges[i]][fid] = (
                    self._deliver if i == last
                    else self._frame_link(edges[i + 1]).transmit
                )

        # Backward control path at every owned port on the route.
        for i, edge in enumerate(edges):
            if owner.get(edge) == self.shard:
                back = self._channel(src_shard, plan.delay * (i + 1),
                                     "ctrl", fid)
                self.ports[edge].register_bcn_link(fid, back)
                if not plan.hop_level_pause:
                    self.ports[edge].register_pause_link(back)

        on_route = [e for e in edges if e in owner]
        if plan.hop_level_pause and on_route:
            # 802.3x is hop-by-hop: a congested port pauses the *port*
            # feeding it (head-of-line blocking, congestion rollback);
            # the first in-fabric port pauses the source's NIC.
            first = on_route[0]
            key = (first, ("src", str(fid)))
            if owner[first] == self.shard and key not in self._pause_wired:
                self._pause_wired.add(key)
                self.ports[first].register_pause_link(
                    self._channel(src_shard, plan.delay, "ctrl", fid)
                )
            for upstream, downstream in zip(on_route, on_route[1:]):
                key = (downstream, upstream)
                if owner[downstream] != self.shard or key in self._pause_wired:
                    continue
                self._pause_wired.add(key)
                self.ports[downstream].register_pause_link(
                    self._channel(owner[upstream], plan.delay, "pause",
                                  upstream)
                )

    # -- data path ---------------------------------------------------------

    def _deliver(self, frame: EthernetFrame) -> None:
        fid = frame.flow_id
        delivered = self._delivered.get(fid, 0.0) + frame.size_bits
        self._delivered[fid] = delivered
        size = self._sizes[fid]
        if (size is not None and delivered >= size
                and fid not in self._finish_times):
            self._finish_times[fid] = self.sim.now

    def _apply_event(self, kind: str, payload: tuple) -> None:
        if kind == "capacity":
            self.ports[payload[0]].set_capacity(payload[1])
        elif kind == "outage":
            outage_duration, port = payload
            until = self.sim.now + outage_duration
            edges = [port] if port is not None else list(self.ports)
            for edge in edges:
                self.ports[edge].suspend_service(until)
        elif kind == "departure":
            self.sources[payload[0]].muted = True
        else:  # pragma: no cover - the network's schedule_* set the kinds
            raise ValueError(f"unknown timed event kind {kind!r}")

    # -- lifecycle -----------------------------------------------------------

    def start(self, duration: float) -> None:
        """Schedule timed events, source starts and queue sampling.

        Timed events go first, sorted by ``(t, registration seq)``, so
        same-instant ties fire in registration order; then sources in
        flow order, one immediate sample and the periodic recorder.
        """
        for t_event, _, kind, payload in sorted(
            self._timed_events, key=lambda ev: ev[:2]
        ):
            self.sim.schedule_at(
                t_event, partial(self._apply_event, kind, payload)
            )
        for spec in self.plan.flows:
            source = self.sources.get(spec.flow_id)
            if source is not None:
                self.sim.schedule_at(spec.start_time, source.start)
        dt = self.plan.queue_dt
        self._recorder = QueueRecorder(self.sim, self.ports,
                                       int(duration / dt) + 3)
        self._recorder.record()
        self.sim.schedule_every(dt, self._recorder.record, until=duration)

    def finish(self) -> dict:
        """Final sample, per-port obs and this region's partial result."""
        assert self._recorder is not None, "finish() before start()"
        self._recorder.record()
        queues = self._recorder.queues()
        if self.obs is not None:
            from ..obs import emit_sign_switches

            cfg = self.plan.config
            for edge, port in self.ports.items():
                hist = port.sigma_history
                emit_sign_switches(self.obs, [h[0] for h in hist],
                                   [h[1] for h in hist],
                                   engine=self._obs_engine, node=port.cpid)
                self.obs.observe_queue(self._obs_engine, queues[edge],
                                       cfg.buffer_bits, cfg.q0)
        ports = self.ports.values()
        return {
            "shard": self.shard,
            "delivered": dict(self._delivered),
            "finish_times": dict(self._finish_times),
            "rates": {fid: src.rate for fid, src in self.sources.items()},
            "port_queues": queues,
            "sample_times": self._recorder.times(),
            "dropped": sum(p.queue.dropped_frames for p in ports),
            "bcn_negative": sum(p.stats.bcn_negative for p in ports),
            "bcn_positive": sum(p.stats.bcn_positive for p in ports),
            "pauses": sum(p.stats.pauses_sent for p in ports),
        }


class MultiHopNetwork:
    """Instantiate and run a BCN fabric for a workload.

    Parameters
    ----------
    graph:
        Topology with ``capacity`` edge attributes (bits/s), e.g. from
        :mod:`repro.topology.graphs`.
    flows:
        Workload flow specs; routes are filled by deterministic ECMP
        when a spec does not pin one.
    port_config:
        BCN parameters applied at every output port.
    frame_bits:
        Frame size; must be finite and positive.
    propagation_delay:
        Per-hop one-way delay.
    engine:
        Any of :data:`~repro.simulation.network.PACKET_ENGINES`.  Every
        engine runs the same binary-heap event kernel and per-frame
        ports, so results are identical across them; the name only sets
        the obs tag ``packet.<engine>``.  Frame-train batching currently
        applies to the single-bottleneck dumbbell only.
    shards:
        ``None`` (default) runs the whole fabric as the one region of a
        one-shard plan on a single kernel; :attr:`sim`, :attr:`ports`
        and :attr:`sources` are that region's.  An integer or
        ``"auto"`` runs the conservative sharded engine of
        :mod:`repro.shard`: the graph is partitioned into that many
        regions, each with its own ``engine`` kernel, synchronized in
        windows of one cross-shard propagation delay.  Requires a
        positive ``propagation_delay``.
    workers:
        Worker processes hosting the shards (``None`` = all CPUs,
        capped at the shard count; ``1`` steps every shard inline in
        this process).  The result never depends on this value.
    partition:
        Optional pinned :class:`~repro.topology.Partition` for a
        sharded run; defaults to
        :func:`~repro.topology.partition_graph` over the graph.  Giving
        one without ``shards`` raises ``ValueError``.
    """

    def __init__(
        self,
        graph: nx.Graph,
        flows: list[FlowSpec],
        port_config: PortConfig,
        *,
        frame_bits: int = 1500 * 8,
        propagation_delay: float = 0.5e-6,
        queue_sample_interval: float | None = None,
        hop_level_pause: bool = True,
        engine: str = "reference",
        shards: int | str | None = None,
        workers: int | None = None,
        partition=None,
        obs=None,
    ) -> None:
        from ..shard.plan import build_plan, resolve_shards

        if not flows:
            raise ValueError("need at least one flow")
        if engine not in PACKET_ENGINES:
            raise ValueError(
                f"unknown packet engine {engine!r}; pick from {PACKET_ENGINES}"
            )
        _require_positive_finite("frame_bits", frame_bits)
        self.graph = graph
        self.config = port_config
        self.frame_bits = frame_bits
        self.delay = propagation_delay
        self.engine = engine
        self.hop_level_pause = hop_level_pause
        self.flows = flows
        self.obs = obs if (obs is not None and obs.enabled) else None

        if shards is None and partition is not None:
            raise ValueError(
                "partition= pins the shard boundaries of a sharded run; "
                "pass shards= (an integer or 'auto') with it")
        if shards is None:
            n_shards = 1
        elif partition is not None and shards == "auto":
            n_shards = partition.n_shards
        else:
            n_shards = resolve_shards(shards, graph, workers)
        self._plan = build_plan(
            graph, flows, port_config,
            n_shards=n_shards,
            frame_bits=frame_bits,
            delay=propagation_delay,
            hop_level_pause=hop_level_pause,
            engine=engine,
            queue_dt=queue_sample_interval,
            partition=partition,
        )
        self._workers = workers
        self.routes: dict[int, list[str]] = {
            fid: list(route) for fid, route in self._plan.routes.items()
        }

        #: Declarative timed events ``(t, seq, kind, payload)`` injected
        #: by the scenario layer.  ``seq`` is a monotonic registration
        #: counter: ties at one timestamp fire in registration order in
        #: every region.
        self._timed_events: list[TimedEvent] = []
        self._event_seq = itertools.count()

        self._region: FabricRegion | None = None
        if shards is None:
            self._region = FabricRegion(self._plan, 0, self._timed_events,
                                        self.obs)
            self.sim: Simulator | None = self._region.sim
            self.ports: dict[Edge, CoreSwitch] = self._region.ports
            self.sources: dict[int, TrafficSource] = self._region.sources
        else:
            # The shard regions are built where they run; the network
            # holds none of their state.
            self.sim = None
            self.ports = {}
            self.sources = {}

    @property
    def sharded(self) -> bool:
        """Whether this network runs on the sharded engine."""
        return self._region is None

    # -- scenario hooks ----------------------------------------------------

    def _register_event(self, t: float, kind: str, payload: tuple) -> None:
        if t < 0:
            raise ValueError("event time cannot be negative")
        self._timed_events.append((t, next(self._event_seq), kind, payload))

    def schedule_capacity(
        self, t: float, port: tuple[str, str], capacity: float
    ) -> None:
        """At time ``t`` change one port's service rate (C(t) events)."""
        if port not in self._plan.port_owner:
            raise ValueError(f"no instantiated port {port!r}")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._register_event(t, "capacity", (port, capacity))

    def schedule_outage(
        self, t: float, outage_duration: float,
        port: tuple[str, str] | None = None,
    ) -> None:
        """Black out one port (or every port) for ``outage_duration``.

        Store-and-forward: the in-flight frame on each affected port
        completes; no new service starts until the outage ends.
        """
        if outage_duration <= 0:
            raise ValueError("outage_duration must be positive")
        if port is not None and port not in self._plan.port_owner:
            raise ValueError(f"no instantiated port {port!r}")
        self._register_event(t, "outage", (outage_duration, port))

    def schedule_departure(self, t: float, flow_id: int) -> None:
        """At time ``t`` mute flow ``flow_id`` permanently."""
        if flow_id not in self.routes:
            raise ValueError(f"unknown flow {flow_id!r}")
        self._register_event(t, "departure", (flow_id,))

    # -- driving -----------------------------------------------------------

    def run(self, duration: float) -> MultiHopResult:
        """Run the fabric for ``duration`` seconds."""
        _require_positive_finite("duration", duration)
        from ..shard.coordinator import merge_partials, run_sharded

        region = self._region
        if region is None:
            return run_sharded(
                self._plan, duration,
                workers=self._workers,
                timed_events=self._timed_events,
                obs=self.obs,
            )
        import time as _time
        wall_start = _time.monotonic() if self.obs is not None else 0.0  # repro-lint: disable=wall-clock -- obs run-span wall-time
        region.start(duration)
        region.sim.run(until=duration)
        if self.obs is not None:
            self.obs.add_span(f"packet.{self.engine}.multihop.run",
                              _time.monotonic() - wall_start)  # repro-lint: disable=wall-clock -- obs run-span wall-time
        return merge_partials(self._plan, duration, [region.finish()])
