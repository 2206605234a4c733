"""Event-order fingerprints of the reference packet engine and the
delayed fluid model.

``test_engine_determinism.py`` pins how *many* events the reference
engine executes; these digests pin their order and effect.  After every
executed event the packet runs hash ``(now, switch occupancy, forwarded
frames, sum of source rates)``, so a change that reorders two
same-time events, drops one or adds one changes the digest even when
the event count and every golden series stay the same.  The delayed
model's digests cover ``simulate_delayed``'s ``t``/``x``/``y`` arrays
byte for byte, including a run that diverges and stops early.  The
multi-hop fabric runs hash the same tuple summed over every port and
source.

The dumbbell pins were recorded on the engine whose links delivered
through a separate arrival hop and whose fluid loop stepped on numpy
arrays; the fabric pins on the network that wired its own ports apart
from a separate region builder, before the fabric became one class on
one simulator.  A refactor of any of these call paths must leave them
unchanged.

A dumbbell on the reference engine, and a fabric on any engine, runs
in one of two places: the python ``Simulator`` loop (the numpy kernel
tier, where the stepping ``sim.run`` below sees every event) or the C
event core (the cffi tier), which writes the same tuple after each
event into its digest buffer.  Both must hit the same pins.
"""

import hashlib
import math
import random
import struct

import pytest

from repro.core.parameters import paper_example_params
from repro.experiments import m1_victim_flow
from repro.experiments.presets import CASE1, CASE2, CASE3, CASE4
from repro.experiments.v2_fluid_vs_packet import validation_params
from repro.fluid.delay import simulate_delayed
from repro.kernels import _backend, get_backend
from repro.simulation.event_core import ineligible
from repro.simulation.multihop import MultiHopNetwork, PortConfig
from repro.simulation.network import BCNNetworkSimulator
from repro.topology.graphs import fat_tree, hosts
from repro.workloads import incast

_STATE = struct.Struct("<ddqd")


requires_core = pytest.mark.skipif(
    not get_backend().compiled,
    reason="no compiled backend (cffi + C compiler) available",
)


@pytest.fixture
def python_loop(monkeypatch):
    """Pin the dumbbell to the numpy tier, where the python loop runs."""
    monkeypatch.setattr(_backend, "_BACKEND", _backend.KernelBackend())


def _fingerprint(net: BCNNetworkSimulator, duration: float) -> tuple[int, str]:
    """Run ``net`` and hash the observable state after every event."""
    return _stepped_digest(net, duration, [net.switch], net.sources)


def _core_fingerprint(net, duration: float) -> tuple[int, str]:
    """:func:`_fingerprint` (or :func:`_fabric_fingerprint`) from the C
    event core's digest buffer."""
    assert ineligible(net) is None
    net._event_digest = bytearray()
    net.run(duration)
    return net.sim.events_processed, hashlib.sha256(
        net._event_digest).hexdigest()


def _stepped_digest(net, duration, switches, sources) -> tuple[int, str]:
    sim = net.sim
    digest = hashlib.sha256()
    run = sim.run

    def stepping_run(until=math.inf, *, max_events=None):
        assert max_events is None
        heap = sim._heap
        while heap and heap[0][0] <= until:
            # One event per call; the infinite horizon leaves the clock
            # at that event's time instead of jumping it to ``until``.
            run(math.inf, max_events=1)
            digest.update(_STATE.pack(
                sim.now, sum(p.queue.occupancy_bits for p in switches),
                sum(p.stats.forwarded_frames for p in switches),
                sum(s.rate for s in sources)))
        run(until)

    sim.run = stepping_run
    net.run(duration)
    return sim.events_processed, digest.hexdigest()


def _fabric_fingerprint(net: MultiHopNetwork, duration: float):
    """:func:`_fingerprint` for a fabric: sums over every port/source."""
    return _stepped_digest(net, duration, list(net.ports.values()),
                           list(net.sources.values()))


PAPER_PIN = (
    15_556,
    "556523df7a494f7ea196bec73af87732d16a1ce2f2d71bfc3589d7122747c11a")
V6_PIN = (
    50_967,
    "93a070fb15817e029a54293c02b5cf86421d0b62fa50f1a3876aefed146cd6f6")


def _v6_style_network() -> BCNNetworkSimulator:
    # v6's validation regime (Bernoulli sampling, fluid-exact regulator,
    # no PAUSE) with its delay arm: per-source uplink delays spread 10x,
    # so arrivals from different sources interleave at distinct times.
    net = BCNNetworkSimulator(
        validation_params(),
        frame_bits=1500,
        regulator_mode="fluid-exact",
        fb_bits=None,
        require_association=False,
        positive_only_below_q0=False,
        random_sampling=True,
        enable_pause=False,
    )
    rng = random.Random(3)
    for uplink in net.uplinks:
        uplink.delay = rng.uniform(0.1e-6, 1e-6)
    return net


def test_paper_example_event_fingerprint(python_loop):
    net = BCNNetworkSimulator(paper_example_params())
    assert _fingerprint(net, 0.005) == PAPER_PIN


def test_v6_style_event_fingerprint(python_loop):
    assert _fingerprint(_v6_style_network(), 0.02) == V6_PIN


@requires_core
def test_paper_example_core_fingerprint():
    net = BCNNetworkSimulator(paper_example_params())
    assert _core_fingerprint(net, 0.005) == PAPER_PIN


@requires_core
def test_v6_style_core_fingerprint():
    assert _core_fingerprint(_v6_style_network(), 0.02) == V6_PIN


def _m1_network(*, enable_bcn: bool) -> MultiHopNetwork:
    # m1's two-port fabric and port configuration for one arm
    config = PortConfig(
        q0=100e3, buffer_bits=1.5e6,
        pm=0.05 if enable_bcn else 1e-9,
        q_sc=None if enable_bcn else 1.2e6,
        min_rate=5e6, regulator_mode="message",
    )
    return MultiHopNetwork(m1_victim_flow._two_port_fabric(),
                           m1_victim_flow._flows(), config,
                           propagation_delay=1e-6)


M1_PAUSE_ONLY_PIN = (
    22_980,
    "b0e0aee0f4b5487ff2684d15533579d20dfbea4fa02377bc336e4abb7d988592")
M1_BCN_PIN = (
    10_698,
    "29d3b942feae42b656231d2cffd67e405da819ea00e4a0bc492b73c619c442ae")
INCAST_PIN = (
    2_666,
    "0c7da04be7833a3c30f45c7fdf59e6450ccd4712e2a490e8b53a59e815aec9ba")


def test_m1_pause_only_fabric_fingerprint(python_loop):
    # hop-by-hop PAUSE rolls the hot port's congestion back onto s0's
    # shared port (4,468 PAUSE frames, 2,615 drops in 50 ms)
    net = _m1_network(enable_bcn=False)
    assert _fabric_fingerprint(net, 0.05) == M1_PAUSE_ONLY_PIN


def test_m1_bcn_fabric_fingerprint(python_loop):
    net = _m1_network(enable_bcn=True)
    assert _fabric_fingerprint(net, 0.05) == M1_BCN_PIN


def _incast_network() -> MultiHopNetwork:
    # 15-to-1 incast on fat-tree(4) with hop-level PAUSE armed, the
    # client's last hop cut to a quarter, a fabric-wide outage and one
    # departure before that flow completes
    g = fat_tree(4, capacity=10e9)
    client, *servers = sorted(hosts(g))
    flows = incast(servers, client, response_bits=1.5e5, demand=5e9)
    config = PortConfig(q0=8 * 12_000, buffer_bits=150 * 12_000,
                        q_sc=20 * 12_000)
    net = MultiHopNetwork(g, flows, config, frame_bits=12_000,
                          propagation_delay=1e-6)
    last_hop = next(edge for edge in net.ports if edge[1] == client)
    net.schedule_capacity(5e-5, last_hop, 2.5e9)
    net.schedule_outage(1e-4, 3e-5)
    net.schedule_departure(3e-5, 5)
    return net


def test_fat_tree_incast_with_events_fingerprint(python_loop):
    assert _fabric_fingerprint(_incast_network(), 1.2e-3) == INCAST_PIN


@requires_core
def test_m1_pause_only_core_fingerprint():
    net = _m1_network(enable_bcn=False)
    assert _core_fingerprint(net, 0.05) == M1_PAUSE_ONLY_PIN


@requires_core
def test_m1_bcn_core_fingerprint():
    net = _m1_network(enable_bcn=True)
    assert _core_fingerprint(net, 0.05) == M1_BCN_PIN


@requires_core
def test_fat_tree_incast_with_events_core_fingerprint():
    assert _core_fingerprint(_incast_network(), 1.2e-3) == INCAST_PIN


def _trajectory_digest(traj) -> str:
    digest = hashlib.sha256()
    for array in (traj.t, traj.x, traj.y):
        digest.update(array.tobytes())
    return digest.hexdigest()


#: ``(case, tau, kwargs, samples, sha256 of t|x|y)``; the last entry
#: diverges (|x| passes 1e6 x its scale) and stops after 278 of its
#: 2,001 samples.
_DELAYED_PINS = [
    ("CASE1", 0.05, {"t_max": 30.0}, 4801,
     "a56a0bf512c93698630c6243acce22efc7701f062890b005d67171fd3b918cec"),
    ("CASE1", 0.5, {"t_max": 30.0}, 1352,
     "7426bd67f46d2cb1d833c63694ff496180e07fccda6a8d02acbfd7dcef8dadff"),
    ("CASE1", 1.5, {"t_max": 30.0}, 1352,
     "f8dd678f50148c4b7c7213f7a66c3c8e9b1de15053f4b64510558f320c2a67b3"),
    ("CASE2", 0.05, {"t_max": 30.0}, 4801,
     "34a84f53d1c252f0311f89bf00edb203c4146391484d3dac1c5532372e76db63"),
    ("CASE2", 0.5, {"t_max": 30.0}, 2702,
     "a52a41c253623d0747c0e06b7b7320d4054e85f5981449320da07728f0d44008"),
    ("CASE2", 1.5, {"t_max": 30.0}, 2702,
     "ed13fc47c4fd29a79cac46c7597785929d3ab287d79c70b369a563edde8c3622"),
    ("CASE3", 0.05, {"t_max": 30.0}, 4801,
     "bd617a50633ed24b980cc490a3e09489eb64b915620cf51aa2a55eef5fd44be3"),
    ("CASE3", 0.5, {"t_max": 30.0}, 2702,
     "87edaae1e257e0edd1a7505789815a56cb46eb05d7101024e8f5900f6dc13c31"),
    ("CASE3", 1.5, {"t_max": 30.0}, 2702,
     "e5934c22b1f1090b0adffc71c3ca1ced5008372d5ba1ef05624fade0d545a070"),
    ("CASE3", 0.3, {"t_max": 20.0, "x0": 25.0, "y0": -40.0}, 1802,
     "4831267651d546380613524e24f07ddc4748d4965c0f6a305708323f6bc078a5"),
    ("CASE4", 0.05, {"t_max": 30.0}, 4801,
     "524ff46e7e91a0a0a63168e6e4891fbe2de4df9c4ede9172eda5bd3a03e1e002"),
    ("CASE4", 0.5, {"t_max": 30.0}, 2702,
     "a2eb99d1eec7433445c8dda539dbfbe25f74eba42826e2e9fc29cc84899bacec"),
    ("CASE4", 1.5, {"t_max": 30.0}, 2702,
     "6e154c1d8eec2f7cd9bb106d0ecff23145e02d0ac3fa5f6b637cd782931cb69a"),
    ("CASE2", 20.0, {"t_max": 200.0, "step": 0.1}, 278,
     "b62fdcc066f2ba759fec5c938d5322dc2cb1b158cecec93eb9cca006cd54072e"),
]


_CASES = {"CASE1": CASE1, "CASE2": CASE2, "CASE3": CASE3, "CASE4": CASE4}


@pytest.mark.parametrize("name, tau, kwargs, samples, pinned", _DELAYED_PINS,
                         ids=[f"{n}-tau{t}" for n, t, *_ in _DELAYED_PINS])
def test_delayed_trajectory_fingerprint(name, tau, kwargs, samples, pinned):
    traj = simulate_delayed(_CASES[name], tau=tau, **kwargs)
    assert (traj.t.size, _trajectory_digest(traj)) == (samples, pinned)
