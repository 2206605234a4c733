"""The reference packet networks' events, run by the C event core.

:meth:`BCNNetworkSimulator.run
<repro.simulation.network.BCNNetworkSimulator.run>` on the
``reference`` engine hands the run to :func:`run_event_core`, and
:meth:`MultiHopNetwork.run <repro.simulation.multihop.MultiHopNetwork.run>`
on any engine to :func:`run_fabric_core`, when the kernel tier is
compiled (:func:`repro.kernels.get_backend`) and :func:`ineligible`
finds nothing the core does not model.  The core (``k_event_core`` in
:mod:`repro.kernels._cbuild`) executes the python
:class:`~repro.simulation.engine.Simulator` loop's callbacks one event
at a time, on a ``(time, seq)`` heap pushed in the same order, with the
same float64 operations.  It models N :class:`CoreSwitch` ports, the
dumbbell being the one-port case: source pacing with PAUSE deferral,
mutes and finite flows, the uplinks, each flow's next hop at every port
it crosses and its delivery, the BCN back-links, the PAUSE links to
sources (source-directed or the first port's) and to upstream ports
(hop-by-hop), each port's counter or Bernoulli sampling on its own
MT19937 stream, sigma, FB quantisation, positive-feedback gating,
drop-tail, FIFO service, outages, capacity changes and PAUSE with
re-arm, the three regulator laws, the recorder ticks and the timed
scenario events.

Afterwards every piece of state the python loop leaves is written back
(simulator clock, event count and the events still pending at the
horizon, each port's queue, counters, sigma history, sampler and PAUSE
state, sources, regulators, recorder series, delivered bits and finish
times) and the ports' obs events are replayed into their handles in
emission order, so a caller cannot tell which path ran.  The python
loop stays the oracle: it runs on the numpy tier and for every
ineligible network.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import sys
from collections import deque
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .engine import _NO_ARG, Simulator
from .frames import BCNMessage, EthernetFrame, PauseFrame
from .link import Link
from .queueing import DropTailQueue
from .source import REGULATOR_MODES, RateRegulator, TrafficSource
from .switch import CoreSwitch

if TYPE_CHECKING:
    from .multihop import MultiHopNetwork, QueueRecorder
    from .network import BCNNetworkSimulator

__all__ = ["ineligible", "run_event_core", "run_fabric_core", "stock"]

#: The stock methods the core replaces, by ``(class, name)``, taken
#: when their classes are defined (:func:`stock`), so a method replaced
#: on its class later, as a counting wrapper does, keeps the python
#: loop.  The dumbbell checks the three callbacks its wiring binds; a
#: fabric checks every one of them.
_STOCK: dict[tuple[type, str], object] = {}


def stock(*names: str):
    """Class decorator: record ``names`` of the class as stock methods."""
    def record(cls):
        _STOCK.update(((cls, name), vars(cls)[name]) for name in names)
        return cls
    return record


for _cls in (Simulator, Link, DropTailQueue, CoreSwitch, TrafficSource,
             RateRegulator):
    stock(*(name for name, value in vars(_cls).items()
            if callable(value)))(_cls)

_TRANSMIT = _STOCK[(Link, "transmit")]
_RECEIVE = _STOCK[(CoreSwitch, "receive")]
_RECEIVE_PAUSE = _STOCK[(CoreSwitch, "receive_pause")]
_RECEIVE_CONTROL = _STOCK[(TrafficSource, "receive_control")]

#: ``sum()`` of floats is Neumaier-compensated from python 3.12 on; the
#: recorder's aggregate rate must follow the running interpreter.
NEUMAIER_SUM = sys.version_info >= (3, 12)

_TIMED = {"capacity": 0, "outage": 1, "departure": 2}
_PAUSE_TO_SOURCE, _PAUSE_TO_PORT = 0, 1
_LOG_KINDS = ("drop", "bcn", "pause_on", "pause_off")
#: A digest row as the event fingerprints pack it.
DIGEST_DTYPE = np.dtype([("now", "<f8"), ("occupancy", "<f8"),
                         ("forwarded", "<i8"), ("rate", "<f8")])


def _bound(method, obj, func) -> bool:
    return (getattr(method, "__self__", None) is obj
            and getattr(method, "__func__", None) is func)


def _shadows_a_method(objs) -> bool:
    """Whether an instance attribute of any of ``objs`` shadows a method
    of its class; each class's attribute names are checked once."""
    names: dict[type, set] = {}
    for obj in objs:
        names.setdefault(type(obj), set()).update(vars(obj))
    return any(callable(getattr(cls, name, None))
               for cls, attrs in names.items() for name in attrs)


def _delay_ok(d) -> bool:
    return 0.0 <= d < math.inf


def _exact(x) -> bool:
    """A python int or float the core's float64 holds exactly."""
    return type(x) is float or type(x) is int and abs(x) <= 2**53


def _replaced() -> bool:
    return any(vars(cls).get(name) is not func
               for (cls, name), func in _STOCK.items())


def ineligible(net) -> str | None:
    """Why ``net`` must run on the python loop, or None if the core may.

    The core runs a fresh network wired exactly as
    :class:`BCNNetworkSimulator` or :class:`MultiHopNetwork` builds it.
    Anything else (a subclass or replaced method, a network that
    already ran or has events pending, an ``on_rate_change`` observer,
    rewired ``send``/``forward``/``deliver`` callbacks, several frame
    sizes, integer rates, a foreign CPID association, or a delay,
    interval or frame size the python loop would reject) keeps the
    python loop.  A fabric also keeps it for a method replaced on any
    class its run calls (``RateRegulator.apply`` among them), for ports
    that share a congestion point id, and for a number the core's
    float64 does not hold exactly.
    """
    from .multihop import MultiHopNetwork

    if isinstance(net, MultiHopNetwork):
        return _fabric_check(net)[0]
    return _dumbbell_ineligible(net)


def _dumbbell_ineligible(net: BCNNetworkSimulator) -> str | None:
    from .network import BCNNetworkSimulator

    sim, switch, sources = net.sim, net.switch, net.sources
    regs = [s.regulator for s in sources]
    links = list(net.uplinks) + list(switch._bcn_links.values())
    if (type(net) is not BCNNetworkSimulator or type(sim) is not Simulator
            or type(switch) is not CoreSwitch
            or type(switch.queue) is not DropTailQueue
            or any(type(s) is not TrafficSource for s in sources)
            or any(type(r) is not RateRegulator for r in regs)
            or any(type(link) is not Link for link in links)
            or switch._rng is not None and type(switch._rng) is not random.Random
            or _shadows_a_method([net, switch, switch.queue, *sources, *regs,
                                  *links])):
        return "not the stock network: a subclass or a replaced method"
    if (sim.pending or sim.now != 0.0 or sim.events_processed
            or any(s._started for s in sources)
            or len(switch.queue) or switch._busy):
        return "not fresh: the network already ran or has events pending"
    if any(s.on_rate_change is not None for s in sources):
        return "an on_rate_change observer"
    n = len(sources)
    backlinks = switch._bcn_links
    if (not _bound(switch.forward, net, BCNNetworkSimulator._deliver)
            or len(net.uplinks) != n or len(backlinks) != n
            or any(s.address != i or i not in backlinks
                   or not _bound(s.send, net.uplinks[i], _TRANSMIT)
                   or not _bound(net.uplinks[i].deliver, switch, _RECEIVE)
                   or not _bound(backlinks[i].deliver, s, _RECEIVE_CONTROL)
                   for i, s in enumerate(sources))
            or any(all(link is not b for b in backlinks.values())
                   for link in switch._pause_links)):
        return "rewired send/forward/deliver callbacks"
    if any(s.frame_bits != net.frame_bits for s in sources):
        return "several frame sizes"
    if any(type(x) is not float
           for r in regs for x in (r.rate, r.min_rate, r.line_rate)):
        return "a rate or rate bound that is not a float"
    if any(r.associated_cpid not in (None, switch.cpid) for r in regs):
        return "a regulator associated with another congestion point"
    if (not 0.0 < net.frame_bits < math.inf
            or not 0.0 < net._queue_dt < math.inf
            or not all(_delay_ok(link.delay) for link in links)
            or switch.q_sc is not None and not _delay_ok(switch.pause_duration)
            or not all(0.0 < r.rate < math.inf for r in regs)):
        return "a delay, interval, rate or frame size the python loop rejects"
    return None


class _FabricWiring:
    """A fabric's callbacks resolved to the core's wiring arrays.

    ``ok`` is False when a callback is not the one
    :class:`MultiHopNetwork` wires: a frame hop that is neither a stock
    :class:`Link` into a port's ``receive`` nor the network's
    ``_deliver``, a BCN link that does not reach its flow's source, a
    PAUSE link that reaches neither a source nor a port.
    """

    def __init__(self, net: MultiHopNetwork) -> None:
        from .multihop import _NextHops

        self.ports = ports = list(net.ports.values())
        self.sources = sources = list(net.sources.values())
        self.fids = fids = list(net.sources)
        n, n_ports = len(sources), len(ports)
        self.links: list[Link] = []
        port_of = {id(p): k for k, p in enumerate(ports)}
        source_of = {id(s): i for i, s in enumerate(sources)}
        deliver = _STOCK[(type(net), "_deliver")]
        self.up_port = np.zeros(n, dtype=np.int64)
        self.up_delay = np.zeros(n)
        # per flow: port -> [next hop (-1: _deliver, -2: none), its link
        # delay, the BCN back-link's delay (NaN: none)]
        hops_of: list[dict[int, list]] = [{} for _ in range(n)]
        pause = []

        def link_to(callback):
            link = getattr(callback, "__self__", None)
            if type(link) is not Link or not _bound(callback, link, _TRANSMIT):
                return None
            self.links.append(link)
            return link

        def port_at(callback, func):
            if getattr(callback, "__func__", None) is not func:
                return None
            return port_of.get(id(getattr(callback, "__self__", None)))

        def frame_target(link):
            if _bound(link.deliver, net, deliver):
                return -1
            return port_at(link.deliver, _RECEIVE)

        self.ok = (len(fids) == len(net.flows) == len(net.routes)
                   and all(s.address == fid for fid, s in net.sources.items()))
        for i, s in enumerate(sources):
            link = link_to(s.send)
            target = None if link is None else frame_target(link)
            if target is None:
                self.ok = False
                continue
            self.up_port[i], self.up_delay[i] = target, link.delay
        index = {fid: i for i, fid in enumerate(fids)}
        for p, (edge, port) in enumerate(net.ports.items()):
            hops = net._next_hop.get(edge)
            if (type(hops) is not _NextHops or port.forward is not hops
                    or any(fid not in index for fid in hops)):
                self.ok = False
                continue
            for fid, hop in hops.items():
                entry = hops_of[index[fid]].setdefault(p, [-2, 0.0, math.nan])
                if _bound(hop, net, deliver):
                    entry[0] = -1
                    continue
                link = link_to(hop)
                target = None if link is None else port_at(link.deliver,
                                                           _RECEIVE)
                if target is None:
                    self.ok = False
                    continue
                entry[:2] = target, link.delay
            for fid, link in port._bcn_links.items():
                i = index.get(fid)
                if (i is None or type(link) is not Link
                        or not _bound(link.deliver, sources[i],
                                      _RECEIVE_CONTROL)):
                    self.ok = False
                    continue
                self.links.append(link)
                hops_of[i].setdefault(p, [-2, 0.0, math.nan])[2] = link.delay
            for link in port._pause_links:
                target = None
                if type(link) is Link:
                    self.links.append(link)
                    owner = getattr(link.deliver, "__self__", None)
                    if _bound(link.deliver, owner, _RECEIVE_CONTROL):
                        i = source_of.get(id(owner))
                        target = None if i is None else (_PAUSE_TO_SOURCE, i)
                    else:
                        q = port_at(link.deliver, _RECEIVE_PAUSE)
                        target = None if q is None else (_PAUSE_TO_PORT, q)
                if target is None:
                    self.ok = False
                    continue
                pause.append((p, *target, link.delay))
        # every port a flow's frames reach must know their next hop
        for i in range(n):
            p, seen = int(self.up_port[i]), set()
            while p >= 0 and p not in seen:
                seen.add(p)
                p = hops_of[i].get(p, (-2,))[0]
            if p == -2:
                self.ok = False
        self.fl_off = np.cumsum([0] + [len(h) for h in hops_of],
                                dtype=np.int64)
        self.fl_port = _i8([p for h in hops_of for p in h])
        self.fl_next = _i8([e[0] for h in hops_of for e in h.values()])
        self.fl_delay = _f8([e[1] for h in hops_of for e in h.values()])
        self.fl_bcn = _f8([e[2] for h in hops_of for e in h.values()])
        self.pause_off = np.searchsorted(
            np.array([row[0] for row in pause], dtype=np.int64),
            np.arange(n_ports + 1)).astype(np.int64)
        self.pause_kind = np.array([row[1] for row in pause], dtype=np.int64)
        self.pause_dst = np.array([row[2] for row in pause], dtype=np.int64)
        self.pause_delay = np.array([row[3] for row in pause], dtype=float)
        self.events = sorted(net._timed_events, key=lambda ev: ev[:2])
        edge_of = {edge: p for p, edge in enumerate(net.ports)}
        self.timed = []
        for t, _, kind, payload in self.events:
            if kind == "capacity" and payload[0] in edge_of:
                row = (payload[1], edge_of[payload[0]])
            elif kind == "outage" and (payload[1] is None
                                       or payload[1] in edge_of):
                row = (payload[0], edge_of.get(payload[1], -1))
            elif kind == "departure" and payload[0] in index:
                row = (0.0, index[payload[0]])
            else:
                row = None
            self.timed.append(row)


def _fabric_check(net: MultiHopNetwork
                  ) -> tuple[str | None, _FabricWiring | None]:
    """Why the fabric keeps the python loop (:func:`ineligible`), or
    None and the fabric's resolved wiring."""
    from .multihop import MultiHopNetwork

    sim = net.sim
    ports = list(net.ports.values())
    sources = list(net.sources.values())
    regs = [s.regulator for s in sources]
    if (type(net) is not MultiHopNetwork or type(sim) is not Simulator
            or any(type(p) is not CoreSwitch for p in ports)
            or any(type(p.queue) is not DropTailQueue for p in ports)
            or any(type(s) is not TrafficSource for s in sources)
            or any(type(r) is not RateRegulator for r in regs)
            or any(p._rng is not None and type(p._rng) is not random.Random
                   for p in ports)
            or _replaced()
            or _shadows_a_method([net, sim, *ports, *(p.queue for p in ports),
                                  *sources, *regs])):
        return "not the stock network: a subclass or a replaced method", None
    if (sim.pending or sim.now != 0.0 or sim.events_processed
            or any(s._started for s in sources) or net._finish_times
            or any(len(p.queue) or p._busy for p in ports)):
        return "not fresh: the network already ran or has events pending", None
    if any(s.on_rate_change is not None for s in sources):
        return "an on_rate_change observer", None
    wiring = _FabricWiring(net)
    if not wiring.ok or _shadows_a_method(wiring.links):
        return "rewired send/forward/deliver callbacks", None
    if any(s.frame_bits != net.frame_bits for s in sources):
        return "several frame sizes", None
    if any(type(x) is not float
           for r in regs for x in (r.rate, r.min_rate, r.line_rate)):
        return "a rate or rate bound that is not a float", None
    cpids = {p.cpid for p in ports}
    if len(cpids) != len(ports):
        return "several ports with one congestion point id", None
    if any(r.associated_cpid is not None and r.associated_cpid not in cpids
           for r in regs):
        return "a regulator associated with another congestion point", None
    numbers = [net.frame_bits, net._queue_dt,
               *(link.delay for link in wiring.links),
               *(spec.start_time for spec in net.flows),
               *(x for s in sources for x in (s.total_bits, s.bits_sent)
                 if x is not None),
               *(x for x in net._sizes.values() if x is not None),
               *net._delivered.values(),
               *(x for p in ports for x in (
                   p.capacity, p.q0, p.w, p.pm, p.pause_duration,
                   p.queue.capacity_bits, p.queue.occupancy_bits,
                   p._q_at_last_sample, p._service_paused_until,
                   *(() if p.q_sc is None else (p.q_sc,)))),
               *(ev[0] for ev in wiring.events),
               *(row[0] for row in wiring.timed if row is not None)]
    if (None in wiring.timed or not all(_exact(x) for x in numbers)
            or not 0.0 < net.frame_bits < math.inf
            or not 0.0 < net._queue_dt < math.inf
            or not all(_delay_ok(link.delay) for link in wiring.links)
            or not all(_delay_ok(spec.start_time) for spec in net.flows)
            or any(p.q_sc is not None and not _delay_ok(p.pause_duration)
                   for p in ports)
            or not all(0.0 < r.rate < math.inf for r in regs)):
        return ("a delay, interval, rate, time or number the python loop "
                "rejects or the core cannot hold"), None
    return None, wiring


# -- marshalling shared by both networks ------------------------------------


def _f8(values) -> np.ndarray:
    return np.array(values, dtype=np.float64)


def _i8(values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


def _nan_if_none(value) -> float:
    return math.nan if value is None else value


def _port_arrays(ports: list[CoreSwitch]) -> dict:
    """Per-port input and state arrays, each port's MT19937 state in a
    624-word block of ``mt``."""
    mts, mt_index = [], []
    for port in ports:
        if port._rng is not None:
            internal = port._rng.getstate()[1]
            mts.append(internal[:-1])
            mt_index.append(internal[-1])
        else:
            mts.append((0,) * 624)
            mt_index.append(624)
    queues = [p.queue for p in ports]
    stats = [p.stats for p in ports]
    scales = [p.fb_scale for p in ports]
    return {
        "capacity": _f8([p.capacity for p in ports]),
        "q0": _f8([p.q0 for p in ports]),
        "w": _f8([p.w for p in ports]),
        "pm": _f8([p.pm for p in ports]),
        "q_sc": _f8([_nan_if_none(p.q_sc) for p in ports]),
        "pause_duration": _f8([p.pause_duration for p in ports]),
        "buffer_bits": _f8([q.capacity_bits for q in queues]),
        "sigma_unit": _f8([s[0] for s in scales]),
        "full_scale": _f8([s[1] for s in scales]),
        "q_last": _f8([p._q_at_last_sample for p in ports]),
        "service_paused_until": _f8([p._service_paused_until
                                     for p in ports]),
        "pos_only": _i8([bool(p.positive_only_below_q0) for p in ports]),
        "req_assoc": _i8([bool(p.require_association) for p in ports]),
        "interval": _i8([p._sample_interval for p in ports]),
        "since": _i8([p._arrivals_since_sample for p in ports]),
        "use_rng": _i8([p._rng is not None for p in ports]),
        "log_on": _i8([p.obs is not None for p in ports]),
        "busy": _i8([p._busy for p in ports]),
        "armed": _i8([p._pause_armed for p in ports]),
        "mt_index": _i8(mt_index),
        "mt": np.array(mts, dtype=np.uint32).reshape(-1),
        "occ": _f8([q.occupancy_bits for q in queues]),
        "enq_bits": _f8([q.enqueued_bits for q in queues]),
        "deq_bits": _f8([q.dequeued_bits for q in queues]),
        "drop_bits": _f8([q.dropped_bits for q in queues]),
        "fwd_bits": _f8([s.forwarded_bits for s in stats]),
        "enq_frames": _i8([q.enqueued_frames for q in queues]),
        "deq_frames": _i8([q.dequeued_frames for q in queues]),
        "drop_frames": _i8([q.dropped_frames for q in queues]),
        "fwd_frames": _i8([s.forwarded_frames for s in stats]),
        "samples": _i8([s.samples for s in stats]),
        "bcn_neg": _i8([s.bcn_negative for s in stats]),
        "bcn_pos": _i8([s.bcn_positive for s in stats]),
        "pauses_sent": _i8([s.pauses_sent for s in stats]),
    }


def _source_arrays(sources: list[TrafficSource], cpids: dict) -> dict:
    regs = [s.regulator for s in sources]
    return {
        "rate": _f8([r.rate for r in regs]),
        "gi": _f8([r.gi for r in regs]),
        "gd": _f8([r.gd for r in regs]),
        "ru": _f8([r.ru for r in regs]),
        "max_dt": _f8([r.max_dt for r in regs]),
        "min_rate": _f8([r.min_rate for r in regs]),
        "line_rate": _f8([r.line_rate for r in regs]),
        "last_update": _f8([r._last_update for r in regs]),
        "total_bits": _f8([_nan_if_none(s.total_bits) for s in sources]),
        "paused_until": _f8([s.paused_until for s in sources]),
        "bits_sent": _f8([s.bits_sent for s in sources]),
        "finish_time": _f8([_nan_if_none(s.finish_time) for s in sources]),
        "mode": _i8([REGULATOR_MODES[r.mode] for r in regs]),
        "updates": _i8([r.updates_applied for r in regs]),
        "frames_sent": _i8([s.frames_sent for s in sources]),
        "assoc": _i8([cpids.get(r.associated_cpid, -1) for r in regs]),
        "muted": np.array([bool(s.muted) for s in sources], dtype=np.uint8),
        "started": np.zeros(len(sources), dtype=np.uint8),
    }


def _timed_arrays(times, rows) -> dict:
    """``rows``: one ``(kind code, value, port or source index)`` per
    timed event, in push order."""
    return {"ev_t": _f8(times), "ev_val": _f8([r[1] for r in rows]),
            "ev_kind": _i8([r[0] for r in rows]),
            "ev_idx": _i8([r[2] for r in rows])}


def _frame(source, fid: int, t: float, assoc: int, cpid_of) -> EthernetFrame:
    return EthernetFrame(fid, source.dst, source.frame_bits, fid,
                         cpid_of[assoc] if assoc >= 0 else None, t)


def _pending_events(out, ports, sources, fids, *, deliver, tick,
                    timed) -> list:
    """The core's pending events as the python loop's heap entries;
    ``deliver``, ``tick()`` and ``timed(k)`` give the network's own
    callbacks."""
    cpid_of = [p.cpid for p in ports]
    pauses: dict = {}  # one frame per PAUSE fan-out

    def pause(p, length, sent_at):
        frame = pauses.get((p, sent_at))
        if frame is None:
            frame = pauses[(p, sent_at)] = PauseFrame(cpid_of[p], length,
                                                      sent_at)
        return frame

    def frame(i, a, b):
        return _frame(sources[i], fids[i], a, int(b), cpid_of)

    # by event kind (the EV_* order of k_event_core): (callback, arg)
    build = (
        lambda i, p, a, b, c, d, e: (sources[i]._emit, _NO_ARG),
        lambda i, p, a, b, c, d, e: (sources[i].start, _NO_ARG),
        lambda i, p, a, b, c, d, e: (ports[p].receive, frame(i, a, b)),
        lambda i, p, a, b, c, d, e: (deliver, frame(i, a, b)),
        lambda i, p, a, b, c, d, e: (ports[p]._service_done,
                                     frame(i, a, b)),
        lambda i, p, a, b, c, d, e: (ports[p]._start_service, _NO_ARG),
        lambda i, p, a, b, c, d, e: (sources[i].receive_control, BCNMessage(
            fids[i], cpid_of[p], cpid_of[p], a, c, d, b, e)),
        lambda i, p, a, b, c, d, e: (sources[i].receive_control,
                                     pause(p, a, b)),
        lambda i, p, a, b, c, d, e: (ports[i].receive_pause, pause(p, a, b)),
        lambda i, p, a, b, c, d, e: (ports[p]._rearm_pause, _NO_ARG),
        lambda i, p, a, b, c, d, e: (tick(), _NO_ARG),
        lambda i, p, a, b, c, d, e: (timed(i), _NO_ARG),
    )
    heap = [(t, seq, *build[kind](i, p, a, b, c, d, e))
            for kind, i, p, seq, t, a, b, c, d, e in zip(
                *(out[f"pend_{x}"].tolist()
                  for x in ("kind", "idx", "port", "seq", "t", "a", "b", "c",
                            "d", "e")))]
    heapq.heapify(heap)
    return heap


def _run(sim, backend, scalars, arrays) -> dict:
    out = backend.event_core(scalars, arrays)
    sim._now = out["now"]
    sim._processed += out["processed"]
    sim._seq = itertools.count(next(sim._seq) + out["pushes"])
    return out


def _write_ports(ports, sources, fids, arrays, out, fired_capacity) -> None:
    """Write each port's queue, counters, sigma history, sampler, PAUSE
    and service state back; ``fired_capacity`` holds ``(port, capacity)``
    for every capacity event that ran, in order."""
    cpid_of = [p.cpid for p in ports]
    col = {name: arrays[name].tolist() for name in (
        "occ", "enq_frames", "enq_bits", "deq_frames", "deq_bits",
        "drop_frames", "drop_bits", "samples", "bcn_neg", "bcn_pos",
        "pauses_sent", "fwd_frames", "fwd_bits", "since", "q_last", "busy",
        "armed", "service_paused_until", "mt_index")}
    sig_port, res_port = out["sig_port"], out["res_port"]
    sig_t, sig_v = out["sig_t"], out["sig_v"]
    res_src, res_t = out["res_src"].tolist(), out["res_t"].tolist()
    res_assoc = out["res_assoc"].tolist()
    mt = arrays["mt"].reshape(len(ports), 624)
    for p, port in enumerate(ports):
        queue, stats = port.queue, port.stats
        queue.occupancy_bits = col["occ"][p]
        queue.enqueued_frames, queue.enqueued_bits = (col["enq_frames"][p],
                                                      col["enq_bits"][p])
        queue.dequeued_frames, queue.dequeued_bits = (col["deq_frames"][p],
                                                      col["deq_bits"][p])
        queue.dropped_frames, queue.dropped_bits = (col["drop_frames"][p],
                                                    col["drop_bits"][p])
        queue._frames = deque(
            _frame(sources[res_src[k]], fids[res_src[k]], res_t[k],
                   res_assoc[k], cpid_of)
            for k in np.flatnonzero(res_port == p).tolist())
        stats.samples = col["samples"][p]
        stats.bcn_negative, stats.bcn_positive = (col["bcn_neg"][p],
                                                  col["bcn_pos"][p])
        stats.pauses_sent = col["pauses_sent"][p]
        stats.forwarded_frames = col["fwd_frames"][p]
        stats.forwarded_bits = col["fwd_bits"][p]
        mask = sig_port == p
        port.sigma_history.extend(zip(sig_t[mask].tolist(),
                                      sig_v[mask].tolist()))
        port._arrivals_since_sample = col["since"][p]
        port._q_at_last_sample = col["q_last"][p]
        port._busy = bool(col["busy"][p])
        port._pause_armed = bool(col["armed"][p])
        port._service_paused_until = col["service_paused_until"][p]
        if port._rng is not None:
            version, _, gauss_next = port._rng.getstate()
            port._rng.setstate((version, tuple(mt[p].tolist())
                                + (col["mt_index"][p],), gauss_next))
    for p, capacity in fired_capacity:
        ports[p].capacity = capacity


def _write_sources(sources, arrays, cpid_of) -> None:
    col = {name: arrays[name].tolist() for name in (
        "frames_sent", "bits_sent", "paused_until", "finish_time", "muted",
        "started", "updates", "rate", "last_update", "assoc")}
    for i, s in enumerate(sources):
        s.frames_sent = col["frames_sent"][i]
        s.bits_sent = col["bits_sent"][i]
        s.paused_until = col["paused_until"][i]
        finish = col["finish_time"][i]
        s.finish_time = None if math.isnan(finish) else finish
        if col["muted"][i] and not s.muted:
            s.muted = True
        if col["started"][i]:
            s._started = True
        r = s.regulator
        if col["updates"][i] != r.updates_applied:
            r.updates_applied = col["updates"][i]
            r.rate = col["rate"][i]
            if r.mode != "message":
                r._last_update = col["last_update"][i]
            assoc = col["assoc"][i]
            r.associated_cpid = cpid_of[assoc] if assoc >= 0 else None


def _replay_obs(ports, out, fids) -> None:
    """Emit the ports' logged obs events into their handles, in order."""
    for kind, p, t, flow, value in zip(out["log_kind"].tolist(),
                                       out["log_port"].tolist(),
                                       out["log_t"].tolist(),
                                       out["log_flow"].tolist(),
                                       out["log_v"].tolist()):
        port = ports[p]
        obs, engine, name = port.obs, port.obs_engine, _LOG_KINDS[kind]
        if name in ("drop", "bcn"):
            obs.event(name, t, engine=engine, node=port.cpid,
                      flow=fids[flow], value=value)
        elif name == "pause_on":
            obs.event(name, t, engine=engine, node=port.cpid,
                      value=port.pause_duration)
        else:
            obs.event(name, t, engine=engine, node=port.cpid)


def _digest(net, out) -> None:
    if net._event_digest is not None:
        net._event_digest += out["dig"].astype(DIGEST_DTYPE).tobytes()


def run_event_core(net: BCNNetworkSimulator, duration: float, backend) -> None:
    """Run the dumbbell ``net`` for ``duration`` on ``backend``'s C event
    core: the one-port case, every frame delivered by the switch.

    ``net`` must be eligible (:func:`ineligible` returns None) and
    ``backend`` compiled.  When ``net._event_digest`` is a bytearray the
    core appends one ``<ddqd`` row of ``(now, switch occupancy,
    forwarded frames, sum of source rates)`` per executed event.
    """
    sim, switch, sources = net.sim, net.switch, net.sources
    n = len(sources)
    fids = list(range(n))
    cpids = {switch.cpid: 0}
    backlinks = [switch._bcn_links[i] for i in range(n)]
    index_of = {id(link): i for i, link in enumerate(backlinks)}
    events = sorted(net._timed_events)
    arrays = {
        **_source_arrays(sources, cpids),
        **_port_arrays([switch]),
        **_timed_arrays([e[0] for e in events], [
            (_TIMED[kind], 0.0 if kind == "departure" else payload[0],
             payload[0] if kind == "departure" else 0)
            for _, _, kind, payload in events]),
        "up_delay": _f8([link.delay for link in net.uplinks]),
        "up_port": np.zeros(n, dtype=np.int64),
        "start_time": _f8([s.start_time for s in sources]),
        "got": np.zeros(n), "size": np.full(n, math.nan),
        "done_t": np.full(n, math.nan), "done_rank": np.zeros(n, np.int64),
        "fl_off": np.arange(n + 1, dtype=np.int64),
        "fl_port": np.zeros(n, dtype=np.int64),
        "fl_next": np.full(n, -1, dtype=np.int64),
        "fl_delay": np.zeros(n),
        "fl_bcn": _f8([link.delay for link in backlinks]),
        "pause_off": _i8([0, len(switch._pause_links)]),
        "pause_kind": np.zeros(len(switch._pause_links), dtype=np.int64),
        "pause_dst": _i8([index_of[id(link)]
                          for link in switch._pause_links]),
        "pause_delay": _f8([link.delay for link in switch._pause_links]),
    }
    scalars = {
        "n": n, "n_ports": 1, "n_pause": len(switch._pause_links),
        "n_timed": len(events), "neumaier": int(NEUMAIER_SUM),
        "digest_on": int(net._event_digest is not None), "start_all": 0,
        "duration": duration, "queue_dt": net._queue_dt,
        "L": net.frame_bits, "delivered": net._delivered_bits,
        "now": sim.now,
    }
    out = _run(sim, backend, scalars, arrays)

    def timed(k):
        _, _, kind, payload = events[k]
        return lambda kind=kind, payload=payload: net._apply_event(kind,
                                                                   payload)

    sim._heap = _pending_events(
        out, [switch], sources, fids, deliver=net._deliver,
        tick=lambda: sim._ticker(net._queue_dt, net._record, duration),
        timed=timed)
    _write_ports([switch], sources, fids, arrays, out,
                 [(0, payload[0]) for t, _, kind, payload in events
                  if kind == "capacity" and t <= duration])
    _write_sources(sources, arrays, [switch.cpid])
    net._queue_samples.extend(out["rec_t"], out["rec_q"])
    net._rate_samples.extend(out["rec_t"], out["rec_r"])
    net._delivered_bits = out["delivered"]
    _digest(net, out)
    _replay_obs([switch], out, fids)


def run_fabric_core(net: MultiHopNetwork, duration: float, backend,
                    recorder: QueueRecorder) -> bool:
    """Run the fabric ``net`` for ``duration`` on ``backend``'s C event
    core and fill ``recorder`` with every queue sample, the first and
    the last included; return False, having run nothing, when ``net``
    is ineligible (:func:`ineligible`).

    ``backend`` must be compiled.  When ``net._event_digest`` is a
    bytearray the core appends one ``<ddqd`` row of ``(now, summed port
    occupancy, summed forwarded frames, sum of source rates)`` per
    executed event.
    """
    reason, wiring = _fabric_check(net)
    if reason is not None:
        return False
    sim = net.sim
    ports, sources, fids = wiring.ports, wiring.sources, wiring.fids
    n, n_ports = len(sources), len(ports)
    cpid_of = [p.cpid for p in ports]
    cpids = {cpid: p for p, cpid in enumerate(cpid_of)}
    start = {spec.flow_id: spec.start_time for spec in net.flows}
    arrays = {
        **_source_arrays(sources, cpids),
        **_port_arrays(ports),
        **_timed_arrays([e[0] for e in wiring.events], [
            (_TIMED[e[2]], *row) for e, row in zip(wiring.events,
                                                   wiring.timed)]),
        "up_delay": wiring.up_delay, "up_port": wiring.up_port,
        "start_time": _f8([start[fid] for fid in fids]),
        "got": _f8([net._delivered[fid] for fid in fids]),
        "size": _f8([_nan_if_none(net._sizes[fid]) for fid in fids]),
        "done_t": np.full(n, math.nan), "done_rank": np.zeros(n, np.int64),
        "fl_off": wiring.fl_off, "fl_port": wiring.fl_port,
        "fl_next": wiring.fl_next, "fl_delay": wiring.fl_delay,
        "fl_bcn": wiring.fl_bcn, "pause_off": wiring.pause_off,
        "pause_kind": wiring.pause_kind, "pause_dst": wiring.pause_dst,
        "pause_delay": wiring.pause_delay,
    }
    scalars = {
        "n": n, "n_ports": n_ports, "n_pause": wiring.pause_kind.size,
        "n_timed": len(wiring.events), "neumaier": int(NEUMAIER_SUM),
        "digest_on": int(net._event_digest is not None), "start_all": 1,
        "duration": duration, "queue_dt": net._queue_dt,
        "L": net.frame_bits, "delivered": 0.0, "now": sim.now,
    }
    out = _run(sim, backend, scalars, arrays)

    def timed(k):
        _, _, kind, payload = wiring.events[k]
        return partial(net._apply_event, kind, payload)

    sim._heap = _pending_events(
        out, ports, sources, fids, deliver=net._deliver,
        tick=lambda: sim._ticker(net._queue_dt, recorder.record, duration),
        timed=timed)
    _write_ports(ports, sources, fids, arrays, out,
                 [(row[1], row[0]) for (t, _, kind, _), row in zip(
                     wiring.events, wiring.timed)
                  if kind == "capacity" and t <= duration])
    _write_sources(sources, arrays, cpid_of)
    got, done_t = arrays["got"].tolist(), arrays["done_t"].tolist()
    for fid, bits in zip(fids, got):
        net._delivered[fid] = bits
    for i in np.argsort(arrays["done_rank"], kind="stable").tolist():
        if not math.isnan(done_t[i]):
            net._finish_times[fids[i]] = done_t[i]
    n_rec = out["n_rec"]
    recorder._times = out["rec_t"]
    recorder._samples = np.ascontiguousarray(
        out["rec_q"].reshape(n_rec, n_ports).T)
    recorder._n = n_rec
    _digest(net, out)
    _replay_obs(ports, out, fids)
    return True
