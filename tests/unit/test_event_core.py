"""The C event core against its oracle, the python ``Simulator`` loop.

:class:`~repro.simulation.network.BCNNetworkSimulator` on the
``reference`` engine runs on the C event core when the kernel tier is
compiled and :func:`~repro.simulation.event_core.ineligible` clears the
network; otherwise the python loop runs.  These tests pin the path
choice (each eligibility guard keeps the python loop, and so does the
numpy tier), the state the core writes back, and the recorder's
``sum()`` rule.  ``tests/property/test_prop_event_core.py`` holds the
randomised differential suite; both share :func:`snapshot`.
"""

import contextlib
import dataclasses

import pytest

from repro.core.parameters import BCNParams
from repro.kernels import _backend, get_backend
from repro.simulation import event_core
from repro.simulation.event_core import ineligible
from repro.simulation.frames import EthernetFrame
from repro.simulation.network import BCNNetworkSimulator
from repro.simulation.switch import CoreSwitch

requires_core = pytest.mark.skipif(
    not get_backend().compiled,
    reason="no compiled backend (cffi + C compiler) available",
)

#: The numpy tier: dumbbells on it always run the python loop.
NUMPY = _backend.KernelBackend()


@contextlib.contextmanager
def python_loop():
    """Run reference dumbbells on the numpy tier inside the block."""
    saved = _backend._BACKEND
    _backend._BACKEND = NUMPY
    try:
        yield
    finally:
        _backend._BACKEND = saved


def _pending(net) -> list:
    """The simulator's pending events, comparable across two networks:
    callbacks by owner and method (a timed event by its payload),
    frames and control messages by their fields (frame uid aside)."""
    owners = {id(net.switch): "switch"}
    owners.update((id(s), f"source{i}") for i, s in enumerate(net.sources))
    rows = []
    for t, seq, callback, arg in net.sim._heap:
        owner = getattr(callback, "__self__", None)
        if owner is not None:
            who = (owners[id(owner)], callback.__func__.__name__)
        elif callback.__name__ == "tick":  # the recorder's schedule_every
            cells = dict(zip(callback.__code__.co_freevars,
                             (c.cell_contents for c in callback.__closure__)))
            who = ("tick", cells["interval"], cells["until"],
                   cells["self"] is net.sim,
                   cells["callback"] == net._record)
        else:  # a timed scenario event
            who = ("timed", callback.__defaults__)
        what = None
        if dataclasses.is_dataclass(arg):
            what = dataclasses.astuple(arg)
            if isinstance(arg, EthernetFrame):
                what = what[:-1]
        rows.append((t, seq, who, what))
    return sorted(rows)


def snapshot(net, result) -> dict:
    """Everything the core writes back, plus the run's result."""
    switch, queue = net.switch, net.switch.queue
    regs = [s.regulator for s in net.sources]
    return {
        "now": net.sim.now,
        "events": net.sim.events_processed,
        "pending": _pending(net),
        "queue": (queue.occupancy_bits, queue.enqueued_frames,
                  queue.enqueued_bits, queue.dequeued_frames,
                  queue.dequeued_bits, queue.dropped_frames,
                  queue.dropped_bits),
        "resident": [(f.src, f.dst, f.size_bits, f.flow_id, f.rrt_cpid,
                      f.created_at) for f in queue._frames],
        "stats": dataclasses.astuple(switch.stats),
        "sigma_history": list(switch.sigma_history),
        "switch": (switch.capacity, switch._arrivals_since_sample,
                   switch._q_at_last_sample, switch._busy,
                   switch._pause_armed, switch._service_paused_until),
        "rng": None if switch._rng is None else switch._rng.getstate(),
        "sources": [(s.frames_sent, s.bits_sent, s.finish_time,
                     s.paused_until, s.muted, s._started)
                    for s in net.sources],
        "regulators": [(r.rate, r._last_update, r.updates_applied,
                        r.associated_cpid) for r in regs],
        "delivered": net._delivered_bits,
        "result": {k: (v.tolist() if hasattr(v, "tolist") else v)
                   for k, v in dataclasses.asdict(result).items()},
    }


def small_params(**overrides) -> BCNParams:
    base = dict(capacity=1e9, n_flows=4, q0=2e5, buffer_size=1e6, pm=0.05,
                gi=4.0, gd=1.0 / 128.0, ru=8e6, q_sc=6e5)
    base.update(overrides)
    return BCNParams(**base)


def small_network(**kwargs) -> BCNNetworkSimulator:
    return BCNNetworkSimulator(small_params(), frame_bits=12_000, **kwargs)


def _both_paths(build, duration):
    with python_loop():
        oracle = build()
        want = snapshot(oracle, oracle.run(duration))
    net = build()
    return want, snapshot(net, net.run(duration))


# -- path choice ------------------------------------------------------------


class _Sub(BCNNetworkSimulator):
    pass


def _wrap_sample(net):
    switch = net.switch
    original = switch._process_sample
    switch._process_sample = lambda frame: original(frame)


def _rewire(net):
    receive = net.switch.receive
    net.uplinks[1].deliver = lambda frame: receive(frame)


def _set(path, value):
    def mutate(net):
        *owners, attr = path.split(".")
        obj = net
        for name in owners:
            obj = obj[int(name)] if name.isdigit() else getattr(obj, name)
        setattr(obj, attr, value)
    return mutate


#: ``(id, build, reason prefix)``: one case per eligibility guard.
GUARDS = [
    ("subclass", lambda: _Sub(small_params(), frame_bits=12_000),
     "not the stock network"),
    ("replaced-method", lambda: _mutated(_wrap_sample),
     "not the stock network"),
    ("pending-event", lambda: _mutated(
        lambda net: net.sim.schedule(1e-3, lambda: None)), "not fresh"),
    ("clock-moved", lambda: _mutated(lambda net: net.sim.run(until=1e-6)),
     "not fresh"),
    ("observer", lambda: _mutated(_set("sources.0.on_rate_change",
                                       lambda t, r: None)),
     "an on_rate_change observer"),
    ("rewired-deliver", lambda: _mutated(_rewire),
     "rewired send/forward/deliver"),
    ("frame-size", lambda: _mutated(_set("sources.2.frame_bits", 6_000)),
     "several frame sizes"),
    ("int-rate", lambda: _mutated(_set("sources.1.regulator.rate",
                                       100_000_000)),
     "a rate or rate bound that is not a float"),
    ("foreign-cpid", lambda: _mutated(_set("sources.0.regulator."
                                           "associated_cpid", "core-9")),
     "a regulator associated with another congestion point"),
    ("bad-interval", lambda: _mutated(_set("_queue_dt", 0.0)),
     "a delay, interval, rate or frame size"),
]


def _mutated(mutate):
    net = small_network()
    mutate(net)
    return net


@requires_core
@pytest.mark.parametrize("build, reason", [g[1:] for g in GUARDS],
                         ids=[g[0] for g in GUARDS])
def test_each_guard_keeps_the_python_loop(monkeypatch, build, reason):
    assert ineligible(build()).startswith(reason)

    def never(*args, **kwargs):
        raise AssertionError("the event core ran an ineligible network")

    monkeypatch.setattr(type(get_backend()), "event_core", never)
    if reason.startswith("a delay, interval"):
        for path in (python_loop, contextlib.nullcontext):
            with path(), pytest.raises(ValueError):
                build().run(0.002)
        return
    want, got = _both_paths(build, 0.002)
    assert got == want


@requires_core
def test_a_deliver_replaced_on_its_class_keeps_the_python_loop(monkeypatch):
    # a counting wrapper on CoreSwitch.receive (the uplinks' deliver)
    # must see every arrival, so the core may not bypass it
    original, calls = CoreSwitch.receive, []

    def counting(self, frame):
        calls.append(frame)
        return original(self, frame)

    monkeypatch.setattr(CoreSwitch, "receive", counting)
    net = small_network()
    assert ineligible(net).startswith("rewired send/forward/deliver")
    net.run(0.002)
    queue = net.switch.queue
    assert len(calls) == queue.enqueued_frames + queue.dropped_frames > 0


def test_numpy_tier_runs_the_python_loop():
    with python_loop():
        net = small_network()
        assert ineligible(net) is None
        net._event_digest = bytearray()
        net.run(0.002)
    assert net._event_digest == bytearray()
    assert net.sim.pending > 0  # the python loop leaves its heap behind


@requires_core
def test_an_eligible_network_runs_on_the_core():
    net = small_network()
    assert ineligible(net) is None
    net._event_digest = bytearray()
    net.run(0.002)
    assert len(net._event_digest) == 32 * net.sim.events_processed > 0


# -- write-back -------------------------------------------------------------


@requires_core
@pytest.mark.parametrize("enable_pause", [False, True])
@pytest.mark.parametrize("random_sampling", [False, True])
def test_core_writes_back_every_field(random_sampling, enable_pause):
    # overload with an outage, a capacity change, a departure and a
    # finite dynamic flow; frames are left queued at the horizon and
    # the buffer overflows (PAUSE off) or PAUSE fires and re-arms (on)
    def build():
        net = small_network(random_sampling=random_sampling,
                            enable_pause=enable_pause, initial_rate=4e8)
        net.add_flow(start_time=2e-3, demand=3e8, size_bits=1.2e6)
        net.schedule_outage(1e-3, 5e-4)
        net.schedule_capacity(3e-3, 5e8)
        net.schedule_departure(4e-3, 1)
        return net

    want, got = _both_paths(build, 6e-3)
    assert got == want
    assert got["resident"]
    if enable_pause:
        assert got["stats"][3] > 0  # PAUSE frames sent
    else:
        assert got["queue"][5] > 0  # drops


@requires_core
@pytest.mark.parametrize("random_sampling", [False, True])
def test_a_second_run_continues_as_on_the_python_loop(random_sampling):
    # the core hands back its pending events, so a later run (on the
    # python loop: the network is no longer fresh) picks up every frame
    # in flight, the server's next completion and the PAUSE re-arm
    def two_runs():
        net = small_network(random_sampling=random_sampling,
                            initial_rate=4e8)
        first = snapshot(net, net.run(3e-3))
        assert first["pending"]
        return first, snapshot(net, net.run(6e-3))

    with python_loop():
        want = two_runs()
    assert two_runs() == want


def _scenario_network():
    """V2's dumbbell with two delayed flows and three timed events,
    one of each kind on either side of the 3 ms split below."""
    from repro.experiments.v2_fluid_vs_packet import validation_params

    params = validation_params()
    net = BCNNetworkSimulator(params)
    net.add_flow(start_time=1e-3)
    net.add_flow(start_time=4e-3)
    net.schedule_capacity(2e-3, 0.8 * params.capacity)
    net.schedule_outage(4.5e-3, 1e-4)
    net.schedule_departure(5e-3, 0)
    return net


def _scheduled(pending) -> list:
    """The timed events and source starts among the pending events."""
    return [row[2] for row in pending
            if row[2][0] == "timed" or row[2][1] == "start"]


def _non_tick_events(net, runs) -> int:
    """Events executed, less the recorder ticks (each run records once
    before and once after its events)."""
    return net.sim.events_processed - (len(net._queue_samples) - 2 * runs)


@pytest.mark.parametrize("tier", ["numpy", "cffi"])
def test_a_second_run_fires_each_timed_event_and_start_once(tier):
    # each timed event and delayed start is scheduled once per network:
    # a second run continues the heap instead of scheduling them again
    # (which raised for those already past)
    if tier == "cffi" and not get_backend().compiled:
        pytest.skip("no compiled backend (cffi + C compiler) available")
    context = python_loop() if tier == "numpy" else contextlib.nullcontext()
    with context:
        net = _scenario_network()
        first = snapshot(net, net.run(3e-3))
        second = snapshot(net, net.run(6e-3))
        whole = _scenario_network()
        once = snapshot(whole, whole.run(6e-3))
    # after 3 ms the later start and the two later events wait, once each
    assert sorted(_scheduled(first["pending"])) == sorted([
        (f"source{len(net.sources) - 1}", "start"),
        ("timed", ("outage", (1e-4,))),
        ("timed", ("departure", (0,)))])
    assert _scheduled(second["pending"]) == []
    # the split run executes the single run's events, one for one
    assert _non_tick_events(net, 2) == _non_tick_events(whole, 1)
    for key in ("queue", "stats", "sigma_history", "switch", "sources",
                "regulators", "delivered"):
        assert second[key] == once[key], key
    assert net.switch.capacity == 0.8 * net.params.capacity
    assert net.sources[0].muted and all(s._started for s in net.sources)


@requires_core
def test_a_second_run_with_timed_events_is_the_same_on_both_tiers():
    def two_runs():
        net = _scenario_network()
        first = snapshot(net, net.run(3e-3))
        return first, snapshot(net, net.run(6e-3))

    with python_loop():
        want = two_runs()
    assert two_runs() == want


@requires_core
def test_a_recorder_tick_past_the_horizon_is_handed_back():
    # the first tick is queued even when the recorder period exceeds
    # the run; a second run fires it
    def two_runs():
        net = small_network(queue_sample_interval=4e-3)
        first = snapshot(net, net.run(1e-3))
        assert any(row[2][0] == "tick" for row in first["pending"])
        return first, snapshot(net, net.run(5e-3))

    with python_loop():
        want = two_runs()
    assert two_runs() == want


@requires_core
def test_sigma_history_and_resident_frames_keep_python_types():
    net = small_network(initial_rate=4e8)
    net.run(3e-3)
    t, sigma = net.switch.sigma_history[0]
    frame = net.switch.queue._frames[0]
    assert type(t) is float and type(sigma) is float
    assert type(frame.created_at) is float and type(frame.src) is int
    assert all(type(s.bits_sent) is float and type(s.frames_sent) is int
               for s in net.sources)


# -- the recorder's sum() rule ----------------------------------------------


def _plain_sum(xs):
    total = 0.0 + xs[0]
    for x in xs[1:]:
        total += x
    return total


def _neumaier_sum(xs):
    total, comp = 0.0 + xs[0], 0.0
    for x in xs[1:]:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp if comp else total


RATES = [1.0, 1e16, 1.0]


def _rates_network():
    net = BCNNetworkSimulator(small_params(n_flows=3), frame_bits=12_000)
    for source, rate in zip(net.sources, RATES):
        source.regulator.rate = rate
        source.start_time = 1.0  # silent: only the recorder runs
    return net


@requires_core
@pytest.mark.parametrize("neumaier", [False, True])
def test_core_rate_sum_follows_each_rule(monkeypatch, neumaier):
    assert _plain_sum(RATES) != _neumaier_sum(RATES)
    monkeypatch.setattr(event_core, "NEUMAIER_SUM", neumaier)
    res = _rates_network().run(1e-6)
    want = _neumaier_sum(RATES) if neumaier else _plain_sum(RATES)
    assert res.rate_total.tolist() == [want] * res.rate_total.size


@requires_core
def test_core_rate_sum_matches_this_interpreters_sum():
    res = _rates_network().run(1e-6)
    assert res.rate_total[0] == sum(RATES)
    with python_loop():
        oracle = _rates_network().run(1e-6)
    assert res.rate_total.tolist() == oracle.rate_total.tolist()
