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

The whole fabric runs on one :class:`~.engine.Simulator`.  The network
wires it in a fixed order, and the event sequence depends on that
order: ports in first-traversal order over flows, then per flow its
source, the next hop at each port it crosses, its BCN back-links and
its PAUSE links.  With a compiled kernel tier the same events run on
the C event core (:mod:`.event_core`), which reads this wiring and
writes every piece of state back, bit for bit; the python loop stays
its oracle, on the numpy tier and for a fabric the core does not
model.

Simplification relative to a full switch implementation (documented
here per the reproduction rules): one rate regulator per source reacts
to BCN from *any* congestion point on its path (the draft instantiates
one per CPID).  This does not affect the single-bottleneck dynamics the
paper analyses and keeps multi-bottleneck runs conservative (sources
slow down at least as much as the draft requires).
"""

from __future__ import annotations

import itertools
import time as _time
from dataclasses import dataclass, field
from functools import partial

import networkx as nx
import numpy as np

from ..core.parameters import _require_positive_finite
from ..topology.routing import ecmp_route, route_edges
from ..workloads.flows import FlowSpec
from . import event_core
from .engine import Simulator
from .frames import EthernetFrame
from .link import Link
from .network import PACKET_ENGINES, _require_event_time
from .source import RateRegulator, TrafficSource
from .switch import CoreSwitch

__all__ = ["PortConfig", "MultiHopResult", "MultiHopNetwork", "QueueRecorder"]

Edge = tuple[str, str]


@dataclass(frozen=True)
class PortConfig:
    """BCN configuration applied to every instantiated output port.

    ``0 < q0 < buffer_bits``: the equilibrium queue must fit in the
    buffer, or every sample reports a congestion level the port can
    never reach.  ``w``, ``gi``, ``gd``, ``ru`` and ``buffer_bits`` must
    be finite and positive: a NaN or negative gain silently mutes or
    inverts the control law.  ``fb_bits`` is checked by
    :class:`~.switch.CoreSwitch`, which both networks build.
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
        for name in ("w", "gi", "gd", "ru", "buffer_bits"):
            _require_positive_finite(name, getattr(self, name))
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


@event_core.stock("record")
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


@event_core.stock("__call__")
class _NextHops(dict):
    """One port's ``forward``: flow id -> the next hop of that flow's
    frames, a frame link's ``transmit`` or the network's ``_deliver``."""

    __slots__ = ()

    def __call__(self, frame: EthernetFrame) -> None:
        self[frame.flow_id](frame)


@event_core.stock("_deliver", "_apply_event")
class MultiHopNetwork:
    """Run a BCN fabric for a workload, on the C event core when compiled.

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
    queue_sample_interval:
        Port queue sampling period; must be finite and positive.
        Defaults to 50 frame times of the slowest port.
    engine:
        Any of :data:`~repro.simulation.network.PACKET_ENGINES`.  Every
        engine runs the same per-frame events, so results are identical
        across them; the name only sets the obs tag ``packet.<engine>``.
        Frame-train batching currently applies to the single-bottleneck
        dumbbell only.

    A network runs once: schedule timed events, call :meth:`run`, and
    build a new network for another run.  :attr:`sim`, :attr:`ports`
    (keyed by directed edge, in first-traversal order) and
    :attr:`sources` (keyed by flow id) stay readable after the run.
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
        obs=None,
    ) -> None:
        if not flows:
            raise ValueError("need at least one flow")
        if engine not in PACKET_ENGINES:
            raise ValueError(
                f"unknown packet engine {engine!r}; pick from {PACKET_ENGINES}"
            )
        _require_positive_finite("frame_bits", frame_bits)
        if queue_sample_interval is not None:
            _require_positive_finite("queue_sample_interval",
                                     queue_sample_interval)
        self.graph = graph
        self.config = port_config
        self.frame_bits = frame_bits
        self.delay = propagation_delay
        self.engine = engine
        self.hop_level_pause = hop_level_pause
        self.flows = flows
        self.obs = obs if (obs is not None and obs.enabled) else None
        self._obs_engine = f"packet.{engine}"
        self.routes: dict[int, list[str]] = {
            spec.flow_id: (list(spec.route) if spec.route is not None
                           else ecmp_route(graph, spec.src, spec.dst,
                                           spec.flow_id))
            for spec in flows
        }

        #: Declarative timed events ``(t, seq, kind, payload)`` injected
        #: by the scenario layer.  ``seq`` is a monotonic registration
        #: counter: ties at one timestamp fire in registration order.
        self._timed_events: list[tuple[float, int, str, tuple]] = []
        self._event_seq = itertools.count()
        self._ran = False
        #: Test hook of the C event core: a bytearray here receives one
        #: ``<ddqd`` row of (now, summed port occupancy, summed forwarded
        #: frames, sum of rates) per executed event (see ``event_core``).
        self._event_digest: bytearray | None = None

        self.sim = Simulator()
        self.ports: dict[Edge, CoreSwitch] = {}
        #: port -> {flow id: the frame's next transmit, or delivery}
        self._next_hop: dict[Edge, _NextHops] = {}
        for spec in flows:
            route = self.routes[spec.flow_id]
            for edge in route_edges(route):
                # The host NIC is paced, so its first hop is no port.
                if edge[0] != route[0] and edge not in self.ports:
                    self.ports[edge] = self._make_port(edge)
        if queue_sample_interval is None:
            slowest_port = min(
                (graph.edges[e]["capacity"] for e in self.ports), default=1e9)
            queue_sample_interval = 50 * frame_bits / slowest_port
        self._queue_dt = queue_sample_interval

        self.sources: dict[int, TrafficSource] = {}
        self._sizes = {spec.flow_id: spec.size_bits for spec in flows}
        self._delivered: dict[int, float] = {}
        self._finish_times: dict[int, float] = {}
        self._pause_wired: set[tuple[Edge, Edge]] = set()
        #: one frame link per port edge, shared by uplinks and hops
        self._frame_links: dict[Edge, Link] = {}
        for spec in flows:
            self._wire_flow(spec)

    # -- construction ------------------------------------------------------

    def _make_port(self, edge: Edge) -> CoreSwitch:
        cfg = self.config
        port = CoreSwitch(
            self.sim,
            cpid=f"{edge[0]}->{edge[1]}",
            capacity=self.graph.edges[edge]["capacity"],
            q0=cfg.q0,
            buffer_bits=cfg.buffer_bits,
            w=cfg.w,
            pm=cfg.pm,
            q_sc=cfg.q_sc,
            fb_bits=cfg.fb_bits,
        )
        port.forward = self._next_hop[edge] = _NextHops()
        port.attach_obs(self.obs, self._obs_engine)
        return port

    def _frame_link(self, edge: Edge) -> Link:
        link = self._frame_links.get(edge)
        if link is None:
            link = Link(self.sim, self.delay, self.ports[edge].receive)
            self._frame_links[edge] = link
        return link

    def _wire_flow(self, spec: FlowSpec) -> None:
        fid = spec.flow_id
        edges = route_edges(self.routes[fid])
        cfg = self.config
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
            # Direct host-to-host (DCell level links): deliver straight
            # away.
            uplink = Link(self.sim, self.delay, self._deliver)
        source = self.sources[fid] = TrafficSource(
            self.sim,
            address=fid,
            regulator=regulator,
            send=uplink.transmit,
            frame_bits=self.frame_bits,
            dst=spec.dst,
            total_bits=spec.size_bits,
        )
        self._delivered[fid] = 0.0

        # The next hop of this flow's frames at each port they cross;
        # the last port delivers.
        last = len(edges) - 1
        for i in range(1, len(edges)):
            self._next_hop[edges[i]][fid] = (
                self._deliver if i == last
                else self._frame_link(edges[i + 1]).transmit
            )

        # Backward control path at every port on the route.
        for i, edge in enumerate(edges):
            if edge in self.ports:
                back = Link(self.sim, self.delay * (i + 1),
                            source.receive_control)
                self.ports[edge].register_bcn_link(fid, back)
                if not self.hop_level_pause:
                    self.ports[edge].register_pause_link(back)

        on_route = [e for e in edges if e in self.ports]
        if self.hop_level_pause and on_route:
            # 802.3x is hop-by-hop: a congested port pauses the *port*
            # feeding it (head-of-line blocking, congestion rollback);
            # the first in-fabric port pauses the source's NIC.
            self.ports[on_route[0]].register_pause_link(
                Link(self.sim, self.delay, source.receive_control)
            )
            for upstream, downstream in zip(on_route, on_route[1:]):
                if (downstream, upstream) in self._pause_wired:
                    continue
                self._pause_wired.add((downstream, upstream))
                self.ports[downstream].register_pause_link(
                    Link(self.sim, self.delay,
                         self.ports[upstream].receive_pause)
                )

    # -- data path ---------------------------------------------------------

    def _deliver(self, frame: EthernetFrame) -> None:
        fid = frame.flow_id
        delivered = self._delivered[fid] + frame.size_bits
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
        else:  # pragma: no cover - the schedule_* methods set the kinds
            raise ValueError(f"unknown timed event kind {kind!r}")

    # -- scenario hooks ----------------------------------------------------

    def _register_event(self, t: float, kind: str, payload: tuple) -> None:
        if self._ran:
            raise RuntimeError(
                "this network already ran; schedule timed events before "
                "run(), or build a new network")
        _require_event_time(t)
        self._timed_events.append((t, next(self._event_seq), kind, payload))

    def _require_port(self, port: Edge) -> None:
        if port not in self.ports:
            raise ValueError(f"no instantiated port {port!r}")

    def schedule_capacity(self, t: float, port: Edge,
                          capacity: float) -> None:
        """At time ``t`` change one port's service rate (C(t) events)."""
        self._require_port(port)
        _require_positive_finite("capacity", capacity)
        self._register_event(t, "capacity", (port, capacity))

    def schedule_outage(self, t: float, outage_duration: float,
                        port: Edge | None = None) -> None:
        """Black out one port (or every port) for ``outage_duration``.

        Store-and-forward: the in-flight frame on each affected port
        completes; no new service starts until the outage ends.
        """
        _require_positive_finite("outage_duration", outage_duration)
        if port is not None:
            self._require_port(port)
        self._register_event(t, "outage", (outage_duration, port))

    def schedule_departure(self, t: float, flow_id: int) -> None:
        """At time ``t`` mute flow ``flow_id`` permanently."""
        if flow_id not in self.routes:
            raise ValueError(f"unknown flow {flow_id!r}")
        self._register_event(t, "departure", (flow_id,))

    # -- driving -----------------------------------------------------------

    def run(self, duration: float) -> MultiHopResult:
        """Run the fabric for ``duration`` seconds (once per network).

        Timed events go on the heap first, sorted by ``(t, registration
        seq)`` so same-instant ties fire in registration order; then the
        sources in flow order, one immediate queue sample and the
        periodic recorder.  With a compiled kernel tier an eligible
        fabric (:func:`.event_core.ineligible`) runs these events on the
        C event core, bit for bit.
        """
        _require_positive_finite("duration", duration)
        if self._ran:
            raise RuntimeError(
                "a MultiHopNetwork runs once; build a new network for "
                "another run")
        from ..kernels import get_backend

        be = get_backend()
        self._ran = True
        wall_start = _time.monotonic() if self.obs is not None else 0.0  # repro-lint: disable=wall-clock -- obs run-span wall-time
        sim = self.sim
        dt = self._queue_dt
        recorder = QueueRecorder(sim, self.ports, int(duration / dt) + 3)
        on_core = be.compiled and event_core.run_fabric_core(
            self, duration, be, recorder)
        if not on_core:
            for t_event, _, kind, payload in sorted(
                self._timed_events, key=lambda ev: ev[:2]
            ):
                sim.schedule_at(t_event,
                                partial(self._apply_event, kind, payload))
            for spec in self.flows:
                sim.schedule_at(spec.start_time,
                                self.sources[spec.flow_id].start)
            recorder.record()
            sim.schedule_every(dt, recorder.record, until=duration)
            sim.run(until=duration)
        if self.obs is not None:
            self.obs.add_span(f"{self._obs_engine}.multihop.run",
                              _time.monotonic() - wall_start)  # repro-lint: disable=wall-clock -- obs run-span wall-time
        if not on_core:
            recorder.record()
        queues = recorder.queues()
        if self.obs is not None:
            from ..obs import emit_sign_switches

            cfg = self.config
            for edge, port in self.ports.items():
                hist = port.sigma_history
                emit_sign_switches(self.obs, [h[0] for h in hist],
                                   [h[1] for h in hist],
                                   engine=self._obs_engine, node=port.cpid)
                self.obs.observe_queue(self._obs_engine, queues[edge],
                                       cfg.buffer_bits, cfg.q0)
        ports = self.ports.values()
        return MultiHopResult(
            duration=duration,
            per_flow_delivered_bits=dict(self._delivered),
            per_flow_rate={fid: src.rate for fid, src in self.sources.items()},
            port_queues=queues,
            port_queue_times=recorder.times(),
            dropped_frames=sum(p.queue.dropped_frames for p in ports),
            bcn_negative=sum(p.stats.bcn_negative for p in ports),
            bcn_positive=sum(p.stats.bcn_positive for p in ports),
            pauses=sum(p.stats.pauses_sent for p in ports),
            finish_times=dict(self._finish_times),
            start_times={spec.flow_id: spec.start_time for spec in self.flows},
        )
