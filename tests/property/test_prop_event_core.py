"""Differential suite: the C event core equals the python loop exactly.

Random dumbbells on the ``reference`` engine run twice, once on the
numpy tier (the python ``Simulator`` loop, the oracle) and once on the
compiled tier (the C event core), and every field the core writes back
must be equal: clock and event count, queue counters and resident
frames, switch counters, sigma history, sampler/PAUSE/outage state and
the Bernoulli sampler's MT19937 state, sources, regulators, recorder
series and delivered bits, and the ordered obs event stream.

The draws cover the three regulator laws, FB widths None/4/6, both
positive-feedback gatings, counter and Bernoulli sampling, PAUSE on and
off, per-source uplink delays, gains, initial rates and initial mutes,
and scenario events: capacity changes, outages, departures and dynamic
flows with finite sizes.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import Observability
from repro.simulation.event_core import ineligible
from repro.simulation.network import BCNNetworkSimulator
from tests.unit.test_event_core import (python_loop, requires_core,
                                        small_params, snapshot)

pytestmark = requires_core

FRAME_BITS = 12_000
#: Dyadic, so the dyadic recorder periods below land exactly on it.
DURATION = 2.0**-8


@st.composite
def dumbbells(draw):
    n = draw(st.integers(1, 5))
    params = small_params(
        n_flows=n,
        pm=draw(st.sampled_from([0.02, 0.1, 0.5, 1.0])),
        w=draw(st.sampled_from([0.5, 2.0])),
        # with q0 = 3.84e5 a 6-bit FB quantum is two frames, so sigma
        # hits exact half quanta and the half-even rounding shows
        q0=draw(st.sampled_from([2e5, 3.84e5])),
        q_sc=draw(st.sampled_from([4e5, 8e5, 1e6])),
    )
    kwargs = dict(
        # a 1 ms PAUSE drains the queue, so PAUSE re-arms on an idle
        # server; dyadic recorder periods tick exactly at the horizon
        pause_duration=draw(st.sampled_from([50e-6, 1e-3])),
        queue_sample_interval=draw(st.sampled_from(
            [None, 2.0**-10, 2.0**-11])),
        regulator_mode=draw(st.sampled_from(
            ["message", "fluid-euler", "fluid-exact"])),
        fb_bits=draw(st.sampled_from([None, 4, 6])),
        require_association=draw(st.booleans()),
        positive_only_below_q0=draw(st.booleans()),
        random_sampling=draw(st.booleans()),
        enable_pause=draw(st.booleans()),
        initial_rate=draw(st.floats(1e8, 6e8)),
    )
    per_source = [
        dict(delay=draw(st.floats(0.0, 5e-6)),
             rate=draw(st.floats(5e7, 9e8)),
             gi=draw(st.sampled_from([0.5, 4.0])),
             gd=draw(st.sampled_from([1e-3, 1.0 / 128.0, 0.05])),
             muted=draw(st.booleans()) and draw(st.booleans()))
        for _ in range(n)
    ]
    flows = draw(st.lists(st.tuples(
        st.floats(0.0, DURATION), st.floats(5e7, 8e8),
        st.one_of(st.none(), st.floats(1e4, 2e6))), max_size=3))
    events = draw(st.lists(st.tuples(
        st.sampled_from(["capacity", "outage", "departure"]),
        st.floats(0.0, 1.2 * DURATION),
        st.floats(0.0, 1.0)), max_size=4))
    seed = draw(st.integers(0, 2**32 - 1))
    return params, kwargs, per_source, flows, events, seed


def _build(spec, obs):
    params, kwargs, per_source, flows, events, seed = spec
    net = BCNNetworkSimulator(params, frame_bits=FRAME_BITS, obs=obs,
                              **kwargs)
    if net.switch._rng is not None:
        net.switch._rng.seed(seed)
    for source, link, knobs in zip(net.sources, net.uplinks, per_source):
        link.delay = knobs["delay"]
        source.regulator.rate = knobs["rate"]
        source.regulator.gi = knobs["gi"]
        source.regulator.gd = knobs["gd"]
        source.muted = knobs["muted"]
    for start, demand, size in flows:
        net.add_flow(start_time=start, demand=demand, size_bits=size)
    for kind, t, u in events:
        if kind == "capacity":
            net.schedule_capacity(t, 2e8 + u * 1.5e9)
        elif kind == "outage":
            net.schedule_outage(t, 1e-5 + u * 1e-3)
        else:
            net.schedule_departure(t, int(u * (len(net.sources) - 1)))
    return net


def _stream(obs):
    return [(r.kind, r.t, r.engine, r.node, r.flow, r.value, r.detail)
            for r in obs.trace.records]


def _run(spec):
    obs = Observability()
    net = _build(spec, obs)
    eligible = ineligible(net) is None
    return eligible, snapshot(net, net.run(DURATION)), _stream(obs)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dumbbells())
def test_core_equals_python_loop(spec):
    with python_loop():
        _, want, want_stream = _run(spec)
    eligible, got, got_stream = _run(spec)
    assert eligible
    assert got == want
    assert got_stream == want_stream


@pytest.mark.parametrize("pause_duration", [50e-6, 1e-3])
@pytest.mark.parametrize("mode", ["message", "fluid-euler", "fluid-exact"])
@pytest.mark.parametrize("random_sampling", [False, True])
def test_core_equals_python_loop_under_drops_and_pause(
        random_sampling, mode, pause_duration):
    # deterministic corner: heavy overload, PAUSE armed, a long outage
    # that fills the buffer, so drops, PAUSE deferral and re-arm all
    # run; the long PAUSE drains the queue before it re-arms, sigma hits
    # half quanta (q0 = 3.84e5) and the recorder ticks at the horizon
    spec = (small_params(n_flows=5, q0=3.84e5),
            dict(regulator_mode=mode, fb_bits=6, random_sampling=
                 random_sampling, enable_pause=True, initial_rate=5e8,
                 pause_duration=pause_duration,
                 queue_sample_interval=2.0**-10),
            [dict(delay=1e-6 * (i + 1), rate=5e8, gi=4.0, gd=1.0 / 128.0,
                  muted=False) for i in range(5)],
            [(1e-3, 4e8, 6e5)],
            [("outage", 5e-4, 1.0), ("capacity", 2e-3, 0.2),
             ("departure", 3e-3, 0.5)],
            7)
    with python_loop():
        _, want, want_stream = _run(spec)
    eligible, got, got_stream = _run(spec)
    assert eligible
    assert got == want and got_stream == want_stream
    assert want["stats"][3] > 0  # PAUSE frames sent
    assert want["queue"][5] > 0 or pause_duration > 50e-6  # drops
