"""Differential suite: the C event core runs a fabric exactly as the
python loop does.

Random small fabrics run twice, once on the numpy tier (the python
``Simulator`` loop, the oracle) and once on the compiled tier (the C
event core), and every field the core writes back must be equal, and of
the same type: clock and event count, the events still pending, each
port's queue counters, resident frames, switch counters, sigma history,
sampler, PAUSE and outage state and MT19937 stream, sources,
regulators, delivered bits and finish times, the recorder series and
the ordered obs event stream.

The draws cover subsets of fat-tree(4) and DCell(2,1) hosts (DCell
routes relay through hosts, and some of its host pairs share a direct
link) and m1's two-port fabric (its quarter-rate port rolls PAUSE back
onto the shared upstream port), random flow ids, starts, demands and
sizes, the three regulator laws, FB widths, pm, q_sc, hop-level or
source-directed PAUSE, propagation delays, Bernoulli sampling on some
ports, and timed capacity changes, port and fabric-wide outages and
departures.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import m1_victim_flow
from repro.obs import Observability
from repro.simulation.event_core import ineligible
from repro.simulation.multihop import MultiHopNetwork, PortConfig
from repro.topology.graphs import dcell, fat_tree, hosts
from repro.workloads.flows import FlowSpec
from tests.unit.test_event_core import python_loop, requires_core
from tests.unit.test_fabric_core import fabric_snapshot, types_of

pytestmark = requires_core

#: Dyadic, so the dyadic recorder periods below land exactly on it.
DURATION = 2.0**-9
_GRAPHS = {"fat_tree": lambda: fat_tree(4, capacity=1e9),
           "dcell": lambda: dcell(2, 1, capacity=1e9),
           "victim": m1_victim_flow._two_port_fabric}


@st.composite
def fabrics(draw):
    graph = draw(st.sampled_from(sorted(_GRAPHS)))
    names = sorted(hosts(_GRAPHS[graph]()))
    n = draw(st.integers(1, 6))
    fids = draw(st.lists(st.integers(0, 999), min_size=n, max_size=n,
                         unique=True))
    flows = []
    for fid in fids:
        if graph == "victim":  # m1's shape: from h0..h3 to the sinks
            src = draw(st.sampled_from(["h0", "h1", "h2", "h3"]))
            dst = draw(st.sampled_from(["hot", "cool"]))
        else:
            src, dst = draw(st.lists(st.sampled_from(names), min_size=2,
                                     max_size=2, unique=True))
        flows.append(dict(
            flow_id=fid, src=src, dst=dst,
            start_time=draw(st.sampled_from([0.0, 1e-4, DURATION / 3])),
            demand=draw(st.floats(1e8, 2e9)),
            size_bits=draw(st.one_of(st.none(), st.floats(2e4, 1e6)))))
    buffer_bits = draw(st.sampled_from([2.4e5, 6e5]))
    config = dict(
        q0=draw(st.sampled_from([4.8e4, 9.6e4])), buffer_bits=buffer_bits,
        w=draw(st.sampled_from([0.5, 2.0])),
        pm=draw(st.sampled_from([1e-9, 0.05, 0.2, 1.0])),
        q_sc=draw(st.sampled_from([None, 0.5 * buffer_bits,
                                   0.8 * buffer_bits])),
        fb_bits=draw(st.sampled_from([None, 4, 6])),
        regulator_mode=draw(st.sampled_from(
            ["message", "fluid-euler", "fluid-exact"])),
        min_rate=draw(st.sampled_from([1e6, 5e7])))
    kwargs = dict(
        hop_level_pause=draw(st.booleans()),
        propagation_delay=draw(st.sampled_from([0.0, 1e-6, 3e-6])),
        queue_sample_interval=draw(st.sampled_from(
            [None, 2.0**-12, 2.0**-14])))
    rng_ports = draw(st.lists(st.integers(0, 99), max_size=3))
    events = draw(st.lists(st.tuples(
        st.sampled_from(["capacity", "outage", "fabric-outage",
                         "departure"]),
        st.floats(0.0, 1.2 * DURATION), st.floats(0.0, 1.0),
        st.integers(0, 99)), max_size=4))
    return graph, flows, config, kwargs, rng_ports, events


def _build(spec, obs):
    graph, flows, config, kwargs, rng_ports, events = spec
    net = MultiHopNetwork(_GRAPHS[graph](), [FlowSpec(**f) for f in flows],
                          PortConfig(**config), frame_bits=12_000, obs=obs,
                          **kwargs)
    edges = list(net.ports)
    for k in rng_ports:
        if edges:
            net.ports[edges[k % len(edges)]]._rng = random.Random(k)
    fids = list(net.sources)
    for kind, t, u, k in events:
        if kind == "capacity" and edges:
            net.schedule_capacity(t, edges[k % len(edges)], 1e8 + u * 2e9)
        elif kind == "outage" and edges:
            net.schedule_outage(t, 1e-5 + u * 3e-4, edges[k % len(edges)])
        elif kind == "fabric-outage":
            net.schedule_outage(t, 1e-5 + u * 3e-4)
        elif kind == "departure":
            net.schedule_departure(t, fids[k % len(fids)])
    return net


def _run(spec):
    obs = Observability()
    net = _build(spec, obs)
    eligible = ineligible(net) is None
    snapshot = fabric_snapshot(net, net.run(DURATION))
    stream = [(r.kind, r.t, r.engine, r.node, r.flow, r.value, r.detail)
              for r in obs.trace.records]
    return eligible, snapshot, stream


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fabrics())
def test_core_equals_python_loop_on_random_fabrics(spec):
    with python_loop():
        _, want, want_stream = _run(spec)
    eligible, got, got_stream = _run(spec)
    assert eligible
    assert got == want
    assert types_of(got) == types_of(want)
    assert got_stream == want_stream
