"""The C event core running a fabric, against the python loop.

:class:`~repro.simulation.multihop.MultiHopNetwork` runs on the C event
core when the kernel tier is compiled and
:func:`~repro.simulation.event_core.ineligible` clears the fabric;
otherwise the python ``Simulator`` loop runs.  These tests pin the path
choice (each fabric eligibility guard keeps the python loop, and so
does the numpy tier), the state the core writes back, and that a
counting wrapper replaced on a class sees every call the python loop
makes.  ``tests/property/test_prop_fabric_core.py`` holds the
randomised differential suite; both share :func:`fabric_snapshot`.
"""

import dataclasses
from functools import partial

import pytest

from repro.experiments import m1_victim_flow
from repro.kernels import get_backend
from repro.obs import Observability
from repro.simulation.event_core import ineligible
from repro.simulation.frames import EthernetFrame
from repro.simulation.multihop import MultiHopNetwork, PortConfig
from repro.simulation.source import RateRegulator
from repro.simulation.switch import CoreSwitch
from repro.workloads.flows import FlowSpec
from tests.unit.test_event_core import python_loop, requires_core


def _pending(net) -> list:
    """The simulator's pending events, comparable across two fabrics:
    callbacks by owner and method (a timed event by its arguments, the
    recorder tick by its period and horizon), frames and control
    messages by their fields (frame uid aside)."""
    owners = {id(net): "net"}
    owners.update((id(p), f"port{k}") for k, p in enumerate(net.ports.values()))
    owners.update((id(s), f"source{fid}") for fid, s in net.sources.items())
    rows = []
    for t, seq, callback, arg in net.sim._heap:
        owner = getattr(callback, "__self__", None)
        if isinstance(callback, partial):  # a timed scenario event
            assert callback.func.__self__ is net
            who = ("timed", callback.args)
        elif owner is not None:
            who = (owners[id(owner)], callback.__func__.__name__)
        else:  # the recorder's schedule_every tick
            cells = dict(zip(callback.__code__.co_freevars,
                             (c.cell_contents for c in callback.__closure__)))
            who = ("tick", cells["interval"], cells["until"],
                   cells["self"] is net.sim,
                   cells["callback"].__func__.__name__)
        what = None
        if dataclasses.is_dataclass(arg):
            what = dataclasses.astuple(arg)
            if isinstance(arg, EthernetFrame):
                what = what[:-1]
        rows.append((t, seq, who, what))
    return sorted(rows)


def _result(result) -> dict:
    fields = dataclasses.asdict(result)
    fields["port_queues"] = {edge: q.tolist()
                             for edge, q in result.port_queues.items()}
    fields["port_queue_times"] = result.port_queue_times.tolist()
    return fields


def fabric_snapshot(net, result) -> dict:
    """Everything the core writes back to a fabric, plus its result."""
    ports = []
    for port in net.ports.values():
        queue = port.queue
        ports.append({
            "queue": (queue.occupancy_bits, queue.enqueued_frames,
                      queue.enqueued_bits, queue.dequeued_frames,
                      queue.dequeued_bits, queue.dropped_frames,
                      queue.dropped_bits),
            "resident": [dataclasses.astuple(f)[:-1] for f in queue._frames],
            "stats": dataclasses.astuple(port.stats),
            "sigma_history": list(port.sigma_history),
            "switch": (port.capacity, port._arrivals_since_sample,
                       port._q_at_last_sample, port._busy,
                       port._pause_armed, port._service_paused_until),
            "rng": None if port._rng is None else port._rng.getstate(),
        })
    return {
        "now": net.sim.now,
        "events": net.sim.events_processed,
        "pending": _pending(net),
        "ports": ports,
        "sources": [(fid, s.frames_sent, s.bits_sent, s.finish_time,
                     s.paused_until, s.muted, s._started)
                    for fid, s in net.sources.items()],
        "regulators": [(r.rate, r._last_update, r.updates_applied,
                        r.associated_cpid)
                       for r in (s.regulator for s in net.sources.values())],
        "delivered": list(net._delivered.items()),
        "finished": list(net._finish_times.items()),
        "result": _result(result),
    }


def types_of(value):
    """``value``'s structure with every leaf replaced by its type name:
    the core must write back ints as ints and floats as floats."""
    if isinstance(value, dict):
        return {k: types_of(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [types_of(v) for v in value]
    return type(value).__name__


def m1_fabric(*, enable_bcn: bool, **kwargs) -> MultiHopNetwork:
    """m1's two-port fabric and port configuration for one arm."""
    config = PortConfig(
        q0=100e3, buffer_bits=1.5e6,
        pm=0.05 if enable_bcn else 1e-9,
        q_sc=None if enable_bcn else 1.2e6,
        min_rate=5e6, regulator_mode="message",
    )
    return MultiHopNetwork(m1_victim_flow._two_port_fabric(),
                           m1_victim_flow._flows(), config,
                           propagation_delay=1e-6, **kwargs)


def _both_paths(build, duration):
    with python_loop():
        oracle = build()
        want = fabric_snapshot(oracle, oracle.run(duration))
    net = build()
    return want, fabric_snapshot(net, net.run(duration))


# -- path choice ------------------------------------------------------------


class _Sub(MultiHopNetwork):
    pass


def _m1_pause(**kwargs):
    return m1_fabric(enable_bcn=False, **kwargs)


def _mutated(mutate):
    net = _m1_pause()
    mutate(net)
    return net


def _port(net, k=0):
    return list(net.ports.values())[k]


def _wrap_sample(net):
    port = _port(net)
    original = port._process_sample
    port._process_sample = lambda frame: original(frame)


def _rewire_hop(net):
    hops = next(iter(net._next_hop.values()))
    fid, hop = next(iter(hops.items()))
    hops[fid] = lambda frame: hop(frame)


def _share_cpid(net):
    _port(net, 1).cpid = _port(net, 0).cpid


def _huge_buffer(net):
    for port in net.ports.values():
        port.queue.capacity_bits = 2**60


#: ``(id, build, reason prefix)``: one case per fabric eligibility guard.
GUARDS = [
    ("subclass", lambda: _Sub(m1_victim_flow._two_port_fabric(),
                              m1_victim_flow._flows(),
                              PortConfig(q0=1e5, buffer_bits=1.5e6)),
     "not the stock network"),
    ("replaced-method", lambda: _mutated(_wrap_sample),
     "not the stock network"),
    ("pending-event", lambda: _mutated(
        lambda net: net.sim.schedule(1e-3, lambda: None)), "not fresh"),
    ("observer", lambda: _mutated(lambda net: setattr(
        net.sources[3], "on_rate_change", lambda t, r: None)),
     "an on_rate_change observer"),
    ("rewired-hop", lambda: _mutated(_rewire_hop),
     "rewired send/forward/deliver"),
    ("frame-size", lambda: _mutated(lambda net: setattr(
        net.sources[1], "frame_bits", 6_000)), "several frame sizes"),
    ("int-rate", lambda: _mutated(lambda net: setattr(
        net.sources[2].regulator, "rate", 100_000_000)),
     "a rate or rate bound that is not a float"),
    ("shared-cpid", lambda: _mutated(_share_cpid),
     "several ports with one congestion point id"),
    ("foreign-cpid", lambda: _mutated(lambda net: setattr(
        net.sources[0].regulator, "associated_cpid", "core-9")),
     "a regulator associated with another congestion point"),
    ("inexact-number", lambda: _mutated(_huge_buffer),
     "a delay, interval, rate, time or number"),
    ("bad-interval", lambda: _mutated(lambda net: setattr(
        net, "_queue_dt", 0.0)), "a delay, interval, rate, time or number"),
]


@requires_core
@pytest.mark.parametrize("build, reason", [g[1:] for g in GUARDS],
                         ids=[g[0] for g in GUARDS])
def test_each_guard_keeps_the_python_loop(monkeypatch, build, reason):
    assert ineligible(build()).startswith(reason)

    def never(*args, **kwargs):
        raise AssertionError("the event core ran an ineligible fabric")

    monkeypatch.setattr(type(get_backend()), "event_core", never)
    with python_loop():
        try:
            build().run(0.002)
        except Exception as exc:  # a value the python loop rejects
            with pytest.raises(type(exc)):
                build().run(0.002)
            return
    want, got = _both_paths(build, 0.002)
    assert got == want


@requires_core
def test_a_fabric_that_ran_is_not_fresh():
    net = _m1_pause()
    net.run(1e-4)
    assert ineligible(net).startswith("not fresh")


def _counting(monkeypatch, cls, name):
    original, calls = getattr(cls, name), []

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(cls, name, counting)
    return calls


def test_a_counting_apply_sees_every_bcn_application(monkeypatch):
    # a wrapper replaced on RateRegulator.apply (as a profiler's counter
    # is) must see every BCN message m1's BCN fabric applies, so the
    # core may not apply them in C
    calls = _counting(monkeypatch, RateRegulator, "apply")
    net = m1_fabric(enable_bcn=True)
    assert ineligible(net).startswith("not the stock network")
    net.run(0.05)
    applied = sum(s.regulator.updates_applied for s in net.sources.values())
    assert len(calls) == applied > 0


def test_a_counting_receive_pause_sees_every_hop_pause(monkeypatch):
    # the hop-by-hop PAUSE of m1's PAUSE-only fabric reaches the shared
    # upstream port through CoreSwitch.receive_pause
    calls = _counting(monkeypatch, CoreSwitch, "receive_pause")
    net = _m1_pause()
    assert ineligible(net).startswith("not the stock network")
    res = net.run(0.05)
    assert 0 < len(calls) < res.pauses


def test_numpy_tier_runs_the_python_loop():
    with python_loop():
        net = _m1_pause()
        assert ineligible(net) is None
        net._event_digest = bytearray()
        net.run(0.002)
    assert net._event_digest == bytearray()


@requires_core
def test_an_eligible_fabric_runs_on_the_core():
    net = m1_fabric(enable_bcn=True)
    assert ineligible(net) is None
    net._event_digest = bytearray()
    net.run(0.002)
    assert len(net._event_digest) == 32 * net.sim.events_processed > 0


@requires_core
@pytest.mark.parametrize("engine", ["reference", "batched", "compiled"])
def test_every_engine_runs_on_the_core(engine):
    # a fabric's engine only names its obs tag
    net = m1_fabric(enable_bcn=True, engine=engine)
    assert ineligible(net) is None


# -- write-back -------------------------------------------------------------


@requires_core
@pytest.mark.parametrize("enable_bcn", [False, True])
def test_core_writes_back_every_field(enable_bcn):
    # m1's two arms with every timed event kind and obs attached; frames
    # are left queued and in flight at the horizon
    def build():
        net = m1_fabric(enable_bcn=enable_bcn, obs=Observability())
        hot = next(edge for edge in net.ports if edge[1] == "hot")
        net.schedule_capacity(4e-3, hot, 1e8)
        net.schedule_outage(2e-3, 5e-4)
        net.schedule_outage(6e-3, 2e-4, hot)
        net.schedule_departure(5e-3, 1)
        return net

    want, got = _both_paths(build, 8e-3)
    assert got == want and types_of(got) == types_of(want)
    assert any(port["resident"] for port in got["ports"])
    assert got["pending"]
    if enable_bcn:
        assert got["result"]["bcn_negative"] > 0
    else:
        assert got["result"]["pauses"] > 0


@requires_core
def test_finite_flows_finish_as_on_the_python_loop():
    # finite flows record delivery-side finish times in finish order
    flows = [FlowSpec(flow_id=10 + i, src=f"h{i}", dst="hot" if i < 3
                      else "cool", start_time=1e-4 * i, demand=5e8,
                      size_bits=2e5 * (4 - i)) for i in range(4)]

    def build():
        return MultiHopNetwork(m1_victim_flow._two_port_fabric(), flows,
                               PortConfig(q0=1e5, buffer_bits=1.5e6),
                               propagation_delay=1e-6)

    want, got = _both_paths(build, 0.02)
    assert got == want and types_of(got) == types_of(want)
    assert len(got["finished"]) == 4


@requires_core
def test_the_obs_stream_is_replayed_in_order():
    def stream(net):
        obs = net.obs
        net.run(0.01)
        return [(r.kind, r.t, r.engine, r.node, r.flow, r.value, r.detail)
                for r in obs.trace.records]

    with python_loop():
        want = stream(_m1_pause(obs=Observability()))
    got = stream(_m1_pause(obs=Observability()))
    assert got == want
    assert {kind for kind, *_ in got} >= {"drop", "pause_on", "pause_off"}
