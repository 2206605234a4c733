"""The reference dumbbell's events, run by the C event core.

:meth:`BCNNetworkSimulator.run
<repro.simulation.network.BCNNetworkSimulator.run>` on the
``reference`` engine hands the run to :func:`run_event_core` when the
kernel tier is compiled (:func:`repro.kernels.get_backend`) and
:func:`ineligible` finds nothing the core does not model.  The core
(``k_event_core`` in :mod:`repro.kernels._cbuild`) executes the python
:class:`~repro.simulation.engine.Simulator` loop's callbacks one event
at a time, on a ``(time, seq)`` heap pushed in the same order, with the
same float64 operations: source pacing with PAUSE deferral, mutes and
finite flows, the uplink and backlink delays, :class:`CoreSwitch`
(counter or Bernoulli sampling on the switch's own MT19937 stream,
sigma, FB quantisation, positive-feedback gating, drop-tail, FIFO
service, outages, capacity changes, PAUSE with re-arm), the three
regulator laws, the recorder ticks and the timed scenario events.

Afterwards every piece of state the python loop leaves is written back
(simulator clock, event count and the events still pending at the
horizon, queue, switch counters, sigma history, sampler and PAUSE
state, sources, regulators, recorder series, delivered bits) and the
switch's obs events are replayed into its handle in emission order, so
a caller cannot tell which path ran, and a later run continues on the
python loop exactly as it would have.  The python loop stays the
oracle: it runs on the numpy tier and for every ineligible network.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import sys
from collections import deque

from typing import TYPE_CHECKING

import numpy as np

from .engine import _NO_ARG, Simulator
from .frames import BCNMessage, EthernetFrame, PauseFrame
from .link import Link
from .queueing import DropTailQueue
from .source import REGULATOR_MODES, RateRegulator, TrafficSource
from .switch import CoreSwitch

if TYPE_CHECKING:
    from .network import BCNNetworkSimulator

__all__ = ["ineligible", "run_event_core"]

#: The stock callbacks the core replaces, taken when the package is
#: imported (``network`` imports this module), so a method replaced on
#: its class later, as a counting wrapper does, keeps the python loop.
_TRANSMIT = Link.transmit
_RECEIVE = CoreSwitch.receive
_RECEIVE_CONTROL = TrafficSource.receive_control

#: ``sum()`` of floats is Neumaier-compensated from python 3.12 on; the
#: recorder's aggregate rate must follow the running interpreter.
NEUMAIER_SUM = sys.version_info >= (3, 12)

_TIMED = {"capacity": 0, "outage": 1, "departure": 2}
_LOG_KINDS = ("drop", "bcn", "pause_on", "pause_off")
#: A digest row as the event fingerprints pack it.
DIGEST_DTYPE = np.dtype([("now", "<f8"), ("occupancy", "<f8"),
                         ("forwarded", "<i8"), ("rate", "<f8")])


def _bound(method, obj, func) -> bool:
    return (getattr(method, "__self__", None) is obj
            and getattr(method, "__func__", None) is func)


def _shadows_a_method(obj) -> bool:
    cls = type(obj)
    return any(callable(getattr(cls, name, None)) for name in vars(obj))


def _delay_ok(d) -> bool:
    return 0.0 <= d < math.inf


def ineligible(net: BCNNetworkSimulator) -> str | None:
    """Why ``net`` must run on the python loop, or None if the core may.

    The core runs a fresh network wired exactly as
    :class:`BCNNetworkSimulator` builds it.  Anything else (a subclass
    or replaced method, a network that already ran or has events
    pending, an ``on_rate_change`` observer, rewired
    ``send``/``forward``/``deliver`` callbacks, several frame sizes,
    integer rates, a foreign CPID association, or a delay, interval or
    frame size the python loop would reject) keeps the python loop.
    """
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
            or any(_shadows_a_method(o) for o in
                   [net, switch, switch.queue, *sources, *regs, *links])):
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


def _f8(values) -> np.ndarray:
    return np.array(values, dtype=np.float64)


def _nan_if_none(value) -> float:
    return math.nan if value is None else value


def _frame(net, src: int, t: float, assoc) -> EthernetFrame:
    source = net.sources[src]
    return EthernetFrame(src, source.dst, source.frame_bits, src,
                         net.switch.cpid if assoc else None, t)


def _pending_events(net, duration, out, events) -> list:
    """The core's pending events as the python loop's heap entries."""
    switch, sources = net.switch, net.sources
    cpid = switch.cpid
    backlinks = switch._bcn_links
    pauses: dict[float, PauseFrame] = {}  # one frame per PAUSE fan-out

    def pause(length, sent_at):
        frame = pauses.get(sent_at)
        if frame is None:
            frame = pauses[sent_at] = PauseFrame(cpid, length, sent_at)
        return frame

    def timed(k):
        _, _, kind, payload = events[k]
        return lambda kind=kind, payload=payload: net._apply_event(kind,
                                                                   payload)

    # by event kind (the EV_* order of k_event_core): (callback, arg);
    # a pending recorder tick is the first one, when the recorder period
    # is longer than the run
    build = (
        lambda i, a, b, c, d, e: (sources[i]._emit, _NO_ARG),
        lambda i, a, b, c, d, e: (sources[i].start, _NO_ARG),
        lambda i, a, b, c, d, e: (net.uplinks[i].deliver,
                                  _frame(net, i, a, b)),
        lambda i, a, b, c, d, e: (switch._service_done,
                                  _frame(net, i, a, b)),
        lambda i, a, b, c, d, e: (switch._start_service, _NO_ARG),
        lambda i, a, b, c, d, e: (backlinks[i].deliver, BCNMessage(
            i, cpid, cpid, a, c, d, b, e)),
        lambda i, a, b, c, d, e: (backlinks[i].deliver, pause(a, b)),
        lambda i, a, b, c, d, e: (switch._rearm_pause, _NO_ARG),
        lambda i, a, b, c, d, e: (net.sim._ticker(
            net._queue_dt, net._record, duration), _NO_ARG),
        lambda i, a, b, c, d, e: (timed(i), _NO_ARG),
    )
    heap = [(t, seq, *build[kind](i, a, b, c, d, e))
            for kind, i, seq, t, a, b, c, d, e in zip(
                *(out[f"pend_{x}"].tolist()
                  for x in ("kind", "idx", "seq", "t", "a", "b", "c", "d",
                            "e")))]
    heapq.heapify(heap)
    return heap


def run_event_core(net: BCNNetworkSimulator, duration: float, backend) -> None:
    """Run ``net`` for ``duration`` on ``backend``'s C event core.

    ``net`` must be eligible (:func:`ineligible` returns None) and
    ``backend`` compiled.  When ``net._event_digest`` is a bytearray the
    core appends one ``<ddqd`` row of ``(now, switch occupancy,
    forwarded frames, sum of source rates)`` per executed event.
    """
    sim, switch, sources = net.sim, net.switch, net.sources
    regs = [s.regulator for s in sources]
    queue, stats, rng = switch.queue, switch.stats, switch._rng
    backlinks = [switch._bcn_links[i] for i in range(len(sources))]
    index_of = {id(link): i for i, link in enumerate(backlinks)}
    events = sorted(net._timed_events)
    sigma_unit, full_scale = switch.fb_scale
    if rng is not None:
        version, internal, gauss_next = rng.getstate()
        mt = np.array(internal[:-1], dtype=np.uint32)
        mt_index = internal[-1]
    else:
        mt, mt_index = np.zeros(624, dtype=np.uint32), 624
    arrays = {
        "rate": _f8([r.rate for r in regs]),
        "gi": _f8([r.gi for r in regs]),
        "gd": _f8([r.gd for r in regs]),
        "ru": _f8([r.ru for r in regs]),
        "max_dt": _f8([r.max_dt for r in regs]),
        "min_rate": _f8([r.min_rate for r in regs]),
        "line_rate": _f8([r.line_rate for r in regs]),
        "last_update": _f8([r._last_update for r in regs]),
        "up_delay": _f8([link.delay for link in net.uplinks]),
        "back_delay": _f8([link.delay for link in backlinks]),
        "start_time": _f8([s.start_time for s in sources]),
        "total_bits": _f8([_nan_if_none(s.total_bits) for s in sources]),
        "paused_until": _f8([s.paused_until for s in sources]),
        "bits_sent": _f8([s.bits_sent for s in sources]),
        "finish_time": _f8([_nan_if_none(s.finish_time) for s in sources]),
        "mode": np.array([REGULATOR_MODES[r.mode] for r in regs],
                         dtype=np.int64),
        "updates": np.array([r.updates_applied for r in regs],
                            dtype=np.int64),
        "frames_sent": np.array([s.frames_sent for s in sources],
                                dtype=np.int64),
        "pause_dst": np.array([index_of[id(link)]
                               for link in switch._pause_links],
                              dtype=np.int64),
        "assoc": np.array([r.associated_cpid is not None for r in regs],
                          dtype=np.uint8),
        "muted": np.array([bool(s.muted) for s in sources], dtype=np.uint8),
        "started": np.zeros(len(sources), dtype=np.uint8),
        "ev_t": _f8([e[0] for e in events]),
        "ev_val": _f8([e[3][0] for e in events]),
        "ev_kind": np.array([_TIMED[e[2]] for e in events], dtype=np.int64),
        "mt": mt,
    }
    scalars = {
        "n": len(sources), "n_pause": len(switch._pause_links),
        "n_timed": len(events), "neumaier": int(NEUMAIER_SUM),
        "log_on": int(switch.obs is not None),
        "digest_on": int(net._event_digest is not None),
        "duration": duration, "queue_dt": net._queue_dt,
        "L": net.frame_bits,
        "capacity": switch.capacity, "q0": switch.q0, "w": switch.w,
        "pm": switch.pm, "q_sc": _nan_if_none(switch.q_sc),
        "pause_duration": switch.pause_duration,
        "buffer_bits": queue.capacity_bits,
        "sigma_unit": sigma_unit, "full_scale": full_scale,
        "pos_only": int(bool(switch.positive_only_below_q0)),
        "req_assoc": int(bool(switch.require_association)),
        "interval": switch._sample_interval,
        "since": switch._arrivals_since_sample,
        "use_rng": int(rng is not None), "mt_index": mt_index,
        "q_last": switch._q_at_last_sample,
        "service_paused_until": switch._service_paused_until,
        "busy": int(switch._busy), "armed": int(switch._pause_armed),
        "occ": queue.occupancy_bits, "enq_bits": queue.enqueued_bits,
        "deq_bits": queue.dequeued_bits, "drop_bits": queue.dropped_bits,
        "enq_frames": queue.enqueued_frames,
        "deq_frames": queue.dequeued_frames,
        "drop_frames": queue.dropped_frames,
        "fwd_bits": stats.forwarded_bits,
        "fwd_frames": stats.forwarded_frames,
        "delivered": net._delivered_bits, "samples": stats.samples,
        "bcn_neg": stats.bcn_negative, "bcn_pos": stats.bcn_positive,
        "pauses_sent": stats.pauses_sent, "now": sim.now,
    }
    out = backend.event_core(scalars, arrays)

    sim._now = out["now"]
    sim._processed += out["processed"]
    sim._seq = itertools.count(next(sim._seq) + out["pushes"])
    sim._heap = _pending_events(net, duration, out, events)

    queue.occupancy_bits = out["occ"]
    queue.enqueued_frames, queue.enqueued_bits = (out["enq_frames"],
                                                  out["enq_bits"])
    queue.dequeued_frames, queue.dequeued_bits = (out["deq_frames"],
                                                  out["deq_bits"])
    queue.dropped_frames, queue.dropped_bits = (out["drop_frames"],
                                                out["drop_bits"])
    cpid = switch.cpid
    queue._frames = deque(
        _frame(net, src, t, assoc)
        for src, t, assoc in zip(out["res_src"].tolist(),
                                 out["res_t"].tolist(),
                                 out["res_assoc"].tolist()))
    stats.samples = out["samples"]
    stats.bcn_negative, stats.bcn_positive = out["bcn_neg"], out["bcn_pos"]
    stats.pauses_sent = out["pauses_sent"]
    stats.forwarded_frames = out["fwd_frames"]
    stats.forwarded_bits = out["fwd_bits"]
    switch.sigma_history.extend(zip(out["sig_t"].tolist(),
                                    out["sig_v"].tolist()))
    switch._arrivals_since_sample = out["since"]
    switch._q_at_last_sample = out["q_last"]
    switch._busy = bool(out["busy"])
    switch._pause_armed = bool(out["armed"])
    switch._service_paused_until = out["service_paused_until"]
    for t, _, kind, payload in events:
        if kind == "capacity" and t <= duration:
            switch.capacity = payload[0]
    if rng is not None:
        rng.setstate((version, tuple(arrays["mt"].tolist())
                      + (out["mt_index"],), gauss_next))

    for i, s in enumerate(sources):
        s.frames_sent = int(arrays["frames_sent"][i])
        s.bits_sent = float(arrays["bits_sent"][i])
        s.paused_until = float(arrays["paused_until"][i])
        finish = float(arrays["finish_time"][i])
        s.finish_time = None if math.isnan(finish) else finish
        if arrays["muted"][i] and not s.muted:
            s.muted = True
        if arrays["started"][i]:
            s._started = True
    for i, r in enumerate(regs):
        if int(arrays["updates"][i]) != r.updates_applied:
            r.updates_applied = int(arrays["updates"][i])
            r.rate = float(arrays["rate"][i])
            if r.mode != "message":
                r._last_update = float(arrays["last_update"][i])
            r.associated_cpid = cpid if arrays["assoc"][i] else None

    net._queue_samples.extend(out["rec_t"], out["rec_q"])
    net._rate_samples.extend(out["rec_t"], out["rec_r"])
    net._delivered_bits = out["delivered"]
    if net._event_digest is not None:
        net._event_digest += out["dig"].astype(DIGEST_DTYPE).tobytes()

    obs = switch.obs
    if obs is not None:
        engine = switch.obs_engine
        for kind, t, flow, value in zip(out["log_kind"].tolist(),
                                        out["log_t"].tolist(),
                                        out["log_flow"].tolist(),
                                        out["log_v"].tolist()):
            name = _LOG_KINDS[kind]
            if name in ("drop", "bcn"):
                obs.event(name, t, engine=engine, node=cpid, flow=flow,
                          value=value)
            elif name == "pause_on":
                obs.event(name, t, engine=engine, node=cpid,
                          value=switch.pause_duration)
            else:
                obs.event(name, t, engine=engine, node=cpid)
