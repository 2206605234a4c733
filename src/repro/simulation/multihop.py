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

Large fabrics can run **sharded**: ``shards=`` partitions the topology
(:func:`repro.topology.partition_graph`), one event kernel per shard
advances in conservative lookahead windows, and ``workers=`` processes
host the shards (:mod:`repro.shard`).  Results are independent of the
worker count; a single shard reproduces the serial engine bitwise.

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

import networkx as nx
import numpy as np

from ..topology.routing import ecmp_route, route_edges
from ..workloads.flows import FlowSpec
from .engine import Simulator
from .frames import EthernetFrame
from .link import Link
from .network import PACKET_ENGINES, _require_positive_finite
from .source import RateRegulator, TrafficSource
from .switch import CoreSwitch

__all__ = ["PortConfig", "MultiHopResult", "MultiHopNetwork", "QueueRecorder"]


@dataclass(frozen=True)
class PortConfig:
    """BCN configuration applied to every instantiated output port."""

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
    propagation_delay:
        Per-hop one-way delay.
    engine:
        Any of :data:`~repro.simulation.network.PACKET_ENGINES`.  Every
        engine runs the same binary-heap event kernel and per-frame
        ports, so results are identical across them; the name only sets
        the obs tag ``packet.<engine>``.  Frame-train batching currently
        applies to the single-bottleneck dumbbell only.
    shards:
        ``None`` (default) runs the serial single-kernel engine.  An
        integer or ``"auto"`` runs the conservative sharded engine of
        :mod:`repro.shard`: the graph is partitioned into that many
        regions, each with its own ``engine`` kernel, synchronized in
        windows of one cross-shard propagation delay.  Requires a
        positive ``propagation_delay``.
    workers:
        Worker processes hosting the shards (``None`` = all CPUs,
        capped at the shard count; ``1`` steps every shard inline in
        this process).  The result never depends on this value.
    partition:
        Optional pinned :class:`~repro.topology.Partition`; defaults to
        :func:`~repro.topology.partition_graph` over the graph.
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
        if not flows:
            raise ValueError("need at least one flow")
        if engine not in PACKET_ENGINES:
            raise ValueError(
                f"unknown packet engine {engine!r}; pick from {PACKET_ENGINES}"
            )
        self.graph = graph
        self.config = port_config
        self.frame_bits = frame_bits
        self.delay = propagation_delay
        self.engine = engine
        # Set before any port is created: _make_port attaches the handle.
        self.obs = obs if (obs is not None and obs.enabled) else None
        self._obs_engine = f"packet.{engine}"

        self.routes: dict[int, list[str]] = {}
        for spec in flows:
            route = (
                list(spec.route)
                if spec.route is not None
                else ecmp_route(graph, spec.src, spec.dst, spec.flow_id)
            )
            self.routes[spec.flow_id] = route

        # Directed switch-output edges in use, in first-traversal order
        # (= port instantiation order, serial and sharded alike).
        self._port_edges: list[tuple[str, str]] = []
        seen_edges: set[tuple[str, str]] = set()
        for spec in flows:
            for u, v in route_edges(self.routes[spec.flow_id]):
                if u == self.routes[spec.flow_id][0]:
                    continue  # host NIC: pacing models the first hop
                if (u, v) not in seen_edges:
                    seen_edges.add((u, v))
                    self._port_edges.append((u, v))
        self._port_edge_set = seen_edges
        self.flows = flows
        self._specs = {spec.flow_id: spec for spec in flows}
        #: (flow, node) -> hop index; O(1) forwarding instead of a
        #: per-frame route scan.
        self._hop_index = {
            fid: {node: i for i, node in enumerate(route)}
            for fid, route in self.routes.items()
        }
        self.hop_level_pause = hop_level_pause

        if queue_sample_interval is None:
            slowest_port = min(
                (graph.edges[e]["capacity"] for e in self._port_edges),
                default=1e9,
            )
            queue_sample_interval = 50 * frame_bits / slowest_port
        self._queue_dt = queue_sample_interval

        #: Declarative timed events ``(t, seq, kind, payload)`` injected
        #: by the scenario layer.  ``seq`` is a monotonic registration
        #: counter: ties at one timestamp fire in registration order on
        #: every engine (the serial kernel and each shard kernel).
        self._timed_events: list[tuple[float, int, str, tuple]] = []
        self._event_seq = itertools.count()

        self._plan = None
        self._workers = workers
        if shards is not None:
            from ..shard import build_plan, resolve_shards

            n_shards = (
                partition.n_shards
                if (partition is not None and shards == "auto")
                else resolve_shards(shards, graph, workers)
            )
            self._plan = build_plan(
                graph, flows, port_config,
                n_shards=n_shards,
                frame_bits=frame_bits,
                delay=propagation_delay,
                hop_level_pause=hop_level_pause,
                engine=engine,
                queue_dt=self._queue_dt,
                partition=partition,
                routes=self.routes,
            )
            # The sharded engine builds ports/sources inside its shard
            # runtimes; the serial attributes stay empty.
            self.sim: Simulator | None = None
            self.ports: dict[tuple[str, str], CoreSwitch] = {}
            self.sources: dict[int, TrafficSource] = {}
            self._finish_times: dict[int, float] = {}
            self._delivered: dict[int, float] = {}
            return

        self.sim = Simulator()

        # Instantiate one port per directed switch-output edge in use.
        self.ports = {}
        for u, v in self._port_edges:
            self.ports[(u, v)] = self._make_port(u, v)

        self._finish_times = {}
        self._pause_wired: set[tuple[tuple[str, str], tuple[str, str]]] = set()
        #: per-hop forward links, built once per edge instead of one
        #: throwaway Link allocation per forwarded frame
        self._fwd_links: dict[tuple[str, str], Link] = {}
        self.sources = {}
        self._delivered = {spec.flow_id: 0.0 for spec in flows}
        for spec in flows:
            self.sources[spec.flow_id] = self._make_source(spec)

        self._recorder: QueueRecorder | None = None

    @property
    def sharded(self) -> bool:
        """Whether this network runs on the sharded engine."""
        return self._plan is not None

    # -- scenario hooks ----------------------------------------------------

    def _register_event(self, t: float, kind: str, payload: tuple) -> None:
        if t < 0:
            raise ValueError("event time cannot be negative")
        self._timed_events.append((t, next(self._event_seq), kind, payload))

    def schedule_capacity(
        self, t: float, port: tuple[str, str], capacity: float
    ) -> None:
        """At time ``t`` change one port's service rate (C(t) events)."""
        if port not in self._port_edge_set:
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
        if port is not None and port not in self._port_edge_set:
            raise ValueError(f"no instantiated port {port!r}")
        self._register_event(t, "outage", (outage_duration, port))

    def schedule_departure(self, t: float, flow_id: int) -> None:
        """At time ``t`` mute flow ``flow_id`` permanently."""
        if flow_id not in self._specs:
            raise ValueError(f"unknown flow {flow_id!r}")
        self._register_event(t, "departure", (flow_id,))

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
        else:  # pragma: no cover - _register_event controls the kinds
            raise ValueError(f"unknown timed event kind {kind!r}")

    # -- construction -----------------------------------------------------

    def _make_port(self, u: str, v: str) -> CoreSwitch:
        capacity = self.graph.edges[u, v]["capacity"]
        cfg = self.config
        port = CoreSwitch(
            self.sim,
            cpid=f"{u}->{v}",
            capacity=capacity,
            q0=cfg.q0,
            buffer_bits=cfg.buffer_bits,
            w=cfg.w,
            pm=cfg.pm,
            q_sc=cfg.q_sc,
            fb_bits=cfg.fb_bits,
        )
        port.forward = lambda frame, _u=u, _v=v: self._forward(frame, _v)
        port.attach_obs(self.obs, self._obs_engine)
        return port

    def _make_source(self, spec: FlowSpec) -> TrafficSource:
        cfg = self.config
        route = self.routes[spec.flow_id]
        regulator = RateRegulator(
            gi=cfg.gi,
            gd=cfg.gd,
            ru=cfg.ru,
            initial_rate=spec.demand,
            min_rate=cfg.min_rate,
            line_rate=spec.demand,
            mode=cfg.regulator_mode,
        )
        entry = self._entry_port(route)
        uplink = Link(self.sim, self.delay, entry)
        source = TrafficSource(
            self.sim,
            address=spec.flow_id,
            regulator=regulator,
            send=uplink.transmit,
            frame_bits=self.frame_bits,
            dst=spec.dst,
            total_bits=spec.size_bits,
        )
        # Register the backward control path at every port on the route.
        port_edges = [e for e in route_edges(route) if e in self.ports]
        for i, edge in enumerate(route_edges(route)):
            if edge in self.ports:
                back = Link(
                    self.sim, self.delay * (i + 1), source.receive_control
                )
                self.ports[edge].register_bcn_link(spec.flow_id, back)
                if not self.hop_level_pause:
                    self.ports[edge].register_pause_link(back)
        if self.hop_level_pause and port_edges:
            # 802.3x is hop-by-hop: a congested port pauses the *port*
            # feeding it (head-of-line blocking, congestion rollback);
            # the first in-fabric port pauses the source's NIC.
            first = port_edges[0]
            key = (first, ("src", str(spec.flow_id)))
            if key not in self._pause_wired:
                self._pause_wired.add(key)
                self.ports[first].register_pause_link(
                    Link(self.sim, self.delay, source.receive_control)
                )
            for upstream, downstream in zip(port_edges, port_edges[1:]):
                key = (downstream, upstream)
                if key in self._pause_wired:
                    continue
                self._pause_wired.add(key)
                self.ports[downstream].register_pause_link(
                    Link(self.sim, self.delay,
                         self.ports[upstream].receive_pause)
                )
        return source

    def _entry_port(self, route: list[str]):
        """Delivery callback for a flow's first in-fabric hop."""
        edges = route_edges(route)
        if len(edges) >= 2:
            first_fabric_edge = edges[1]
            port = self.ports[first_fabric_edge]
            return port.receive
        # Direct host-to-host (DCell level links): deliver straight away.
        return self._sink_for(route[-1])

    def _record_delivery(self, flow_id: int, bits: float) -> None:
        self._delivered[flow_id] += bits
        spec = self._specs[flow_id]
        if (spec.size_bits is not None
                and flow_id not in self._finish_times
                and self._delivered[flow_id] >= spec.size_bits):
            self._finish_times[flow_id] = self.sim.now

    def _forward(self, frame: EthernetFrame, at_node: str) -> None:
        route = self.routes[frame.flow_id]
        idx = self._hop_index[frame.flow_id][at_node]
        if idx == len(route) - 1:
            self._record_delivery(frame.flow_id, frame.size_bits)
            return
        next_edge = (at_node, route[idx + 1])
        link = self._fwd_links.get(next_edge)
        if link is None:
            link = Link(self.sim, self.delay, self.ports[next_edge].receive)
            self._fwd_links[next_edge] = link
        link.transmit(frame)

    def _sink_for(self, host: str):
        def deliver(frame: EthernetFrame) -> None:
            self._record_delivery(frame.flow_id, frame.size_bits)

        return deliver

    # -- driving -----------------------------------------------------------

    def run(self, duration: float) -> MultiHopResult:
        """Run the fabric for ``duration`` seconds."""
        _require_positive_finite("duration", duration)
        if self._plan is not None:
            from ..shard import run_sharded

            return run_sharded(
                self._plan, duration,
                workers=self._workers,
                timed_events=self._timed_events,
                obs=self.obs,
            )
        import time as _time
        wall_start = _time.monotonic() if self.obs is not None else 0.0  # repro-lint: disable=wall-clock -- obs run-span wall-time
        for t_event, _, kind, payload in sorted(
            self._timed_events, key=lambda ev: ev[:2]
        ):
            self.sim.schedule_at(t_event, partial(self._apply_event, kind,
                                                  payload))
        for spec in self.flows:
            source = self.sources[spec.flow_id]
            self.sim.schedule_at(spec.start_time, source.start)
        recorder = QueueRecorder(
            self.sim, self.ports, int(duration / self._queue_dt) + 3
        )
        self._recorder = recorder
        recorder.record()
        self.sim.schedule_every(self._queue_dt, recorder.record,
                                until=duration)
        self.sim.run(until=duration)
        recorder.record()
        port_queues = recorder.queues()

        if self.obs is not None:
            from ..obs import emit_sign_switches
            self.obs.add_span(f"{self._obs_engine}.multihop.run",
                              _time.monotonic() - wall_start)  # repro-lint: disable=wall-clock -- obs run-span wall-time
            for edge, port in self.ports.items():
                hist = port.sigma_history
                emit_sign_switches(self.obs, [h[0] for h in hist],
                                   [h[1] for h in hist],
                                   engine=self._obs_engine, node=port.cpid)
                self.obs.observe_queue(
                    self._obs_engine, port_queues[edge],
                    self.config.buffer_bits, self.config.q0)

        return MultiHopResult(
            duration=duration,
            per_flow_delivered_bits=dict(self._delivered),
            per_flow_rate={fid: src.rate for fid, src in self.sources.items()},
            port_queues=port_queues,
            port_queue_times=recorder.times(),
            dropped_frames=sum(
                p.queue.dropped_frames for p in self.ports.values()
            ),
            bcn_negative=sum(p.stats.bcn_negative for p in self.ports.values()),
            bcn_positive=sum(p.stats.bcn_positive for p in self.ports.values()),
            pauses=sum(p.stats.pauses_sent for p in self.ports.values()),
            finish_times=dict(self._finish_times),
            start_times={s.flow_id: s.start_time for s in self.flows},
        )
