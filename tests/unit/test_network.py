"""Unit tests for the dumbbell and multi-hop orchestrators."""

import numpy as np
import pytest

from repro.core.parameters import BCNParams
from repro.simulation.multihop import MultiHopNetwork, PortConfig
from repro.simulation.network import PACKET_ENGINES, BCNNetworkSimulator
from repro.topology.graphs import dumbbell, fat_tree
from repro.workloads.flows import FlowSpec
from repro.workloads.generators import homogeneous, incast


def small_params(**overrides):
    config = dict(capacity=1e8, n_flows=4, q0=1e5, buffer_size=1e6,
                  pm=0.1, ru=1e5)
    config.update(overrides)
    return BCNParams(**config)


class TestDumbbell:
    def test_run_produces_consistent_result(self):
        net = BCNNetworkSimulator(small_params(), frame_bits=8000)
        res = net.run(0.1)
        assert res.duration == 0.1
        assert res.t.shape == res.queue.shape
        assert np.all(res.queue >= 0)
        assert np.all(res.queue <= 1e6)
        assert res.per_source_rate.shape == (4,)
        assert 0 <= res.utilization() <= 1.001
        assert 0 < res.jain_fairness() <= 1.0

    def test_overload_start_engages_bcn(self):
        net = BCNNetworkSimulator(small_params(), frame_bits=8000)
        res = net.run(0.1)
        assert res.bcn_negative > 0
        assert res.queue_peak() > 0

    def test_conservation_at_bottleneck(self):
        net = BCNNetworkSimulator(small_params(), frame_bits=8000)
        res = net.run(0.05)
        queue = net.switch.queue
        assert queue.conservation_holds()
        sent = sum(s.frames_sent for s in net.sources)
        in_flight_or_resident = sent - queue.dropped_frames - res.forwarded_frames
        assert in_flight_or_resident >= 0

    def test_delivered_bits_bounded_by_capacity(self):
        net = BCNNetworkSimulator(small_params(), frame_bits=8000)
        res = net.run(0.1)
        assert res.delivered_bits <= 1e8 * 0.1 * 1.01

    def test_rejects_nonpositive_duration(self):
        net = BCNNetworkSimulator(small_params())
        with pytest.raises(ValueError):
            net.run(0.0)

    @pytest.mark.parametrize("engine", PACKET_ENGINES)
    @pytest.mark.parametrize("quantum", [0.0, -1e-4, np.nan, np.inf])
    def test_rejects_bad_control_quantum(self, engine, quantum):
        # A window that never advances (<= 0) would hang the window
        # loop; NaN would return an empty run with 0 delivered bits.
        with pytest.raises(ValueError, match="control_quantum"):
            BCNNetworkSimulator(small_params(), engine=engine,
                                control_quantum=quantum)

    @pytest.mark.parametrize("engine", PACKET_ENGINES)
    @pytest.mark.parametrize("duration", [0.0, -0.1, np.nan, np.inf])
    def test_rejects_bad_duration(self, engine, duration):
        net = BCNNetworkSimulator(small_params(), engine=engine)
        with pytest.raises(ValueError, match="duration"):
            net.run(duration)

    def test_utilization_is_over_the_whole_run(self):
        res = BCNNetworkSimulator(small_params(), frame_bits=8000).run(0.05)
        assert res.utilization() == (
            res.delivered_bits / (res.capacity * res.duration))
        # A windowed utilisation cannot be computed from the totals the
        # result keeps, so the method takes no window.
        with pytest.raises(TypeError):
            res.utilization(settle=0.01)

    def test_queue_mean_and_std_settle_window(self):
        net = BCNNetworkSimulator(small_params(), frame_bits=8000)
        res = net.run(0.1)
        assert res.queue_mean(settle=0.05) >= 0
        assert res.queue_std(settle=0.05) >= 0

    def test_uplinks_are_each_sources_data_path(self):
        net = BCNNetworkSimulator(small_params(), frame_bits=8000)
        net.add_flow(start_time=0.01)
        assert len(net.uplinks) == len(net.sources) == 5
        for source, uplink in zip(net.sources, net.uplinks):
            assert source.send == uplink.transmit
            assert uplink.deliver == net.switch.receive
        # An uplink slower than the run holds back exactly its source.
        net.uplinks[2].delay = 1.0
        net.run(0.02)
        queue = net.switch.queue
        arrived = queue.enqueued_frames + queue.dropped_frames
        assert net.sources[2].frames_sent > len(net.sources)
        assert arrived <= sum(s.frames_sent for i, s in
                              enumerate(net.sources) if i != 2)

    @pytest.mark.parametrize("engine", ["batched", "compiled"])
    def test_window_engines_reject_per_source_delays(self, engine):
        # The window loop carries one propagation delay for every
        # source; a changed uplink must fail, not be ignored.
        net = BCNNetworkSimulator(small_params(), frame_bits=8000,
                                  engine=engine)
        net.uplinks[1].delay = 2e-6
        with pytest.raises(NotImplementedError, match="uplink delays"):
            net.run(0.01)

    @pytest.mark.parametrize("engine", ["batched", "compiled"])
    @pytest.mark.parametrize("change", ["observer", "gain"])
    def test_window_engines_reject_per_source_regulator_laws(self, engine,
                                                             change):
        # The window loop applies BCN with one regulator law for every
        # source and calls no per-source observer.
        net = BCNNetworkSimulator(small_params(), frame_bits=8000,
                                  engine=engine)
        if change == "observer":
            net.sources[2].on_rate_change = lambda t, rate: None
        else:
            net.sources[2].regulator.gi *= 2
        with pytest.raises(NotImplementedError, match="engine='reference'"):
            net.run(0.01)

    @pytest.mark.parametrize("engine", ["batched", "compiled"])
    def test_window_engines_reject_a_second_run(self, engine):
        # A window run plans every source from its start time and
        # records from t=0, so a second call would send the first
        # run's frames again; it must fail instead.
        net = BCNNetworkSimulator(small_params(), frame_bits=8000,
                                  engine=engine)
        net.add_flow(start_time=1e-3)
        net.schedule_capacity(2e-3, 0.8 * net.params.capacity)
        first = net.run(3e-3)
        with pytest.raises(RuntimeError, match='engine="reference"'):
            net.run(6e-3)
        assert net.switch.stats.forwarded_frames == first.forwarded_frames

    @pytest.mark.parametrize("engine", ["reference", "batched"])
    def test_unknown_departure_address_rejected_before_the_run(self, engine):
        net = BCNNetworkSimulator(small_params(), frame_bits=8000,
                                  engine=engine)
        net.schedule_departure(0.005, 10_000)
        with pytest.raises(ValueError, match="10000"):
            net.run(0.01)
        assert net.sim.events_processed == 0

    @pytest.mark.parametrize("engine", ["reference", "batched"])
    def test_departure_may_name_a_flow_added_later(self, engine):
        net = BCNNetworkSimulator(small_params(), frame_bits=8000,
                                  engine=engine)
        net.schedule_departure(0.005, 4)
        late = net.add_flow(start_time=0.001)
        net.run(0.01)
        assert late.muted

    @pytest.mark.parametrize("fb_bits", [0, 1])
    def test_rejects_bad_fb_bits(self, fb_bits):
        with pytest.raises(ValueError, match="fb_bits"):
            BCNNetworkSimulator(small_params(), fb_bits=fb_bits)

    def test_regulator_mode_plumbed(self):
        net = BCNNetworkSimulator(small_params(), regulator_mode="fluid-exact")
        assert all(s.regulator.mode == "fluid-exact" for s in net.sources)


class TestMultiHop:
    def config(self):
        return PortConfig(q0=5e4, buffer_bits=5e5, pm=0.1)

    def test_incast_congests_last_hop(self):
        g = fat_tree(4, capacity=1e8)
        from repro.topology.graphs import hosts

        hs = hosts(g)
        flows = incast(hs[4:8], hs[0], response_bits=5e5, demand=1e8)
        net = MultiHopNetwork(g, flows, self.config(), frame_bits=8000)
        res = net.run(0.2)
        hottest = res.hottest_port()
        assert hottest[1] == hs[0]  # the client's last hop
        assert res.bcn_negative > 0

    def test_all_flows_deliver_on_uncongested_paths(self):
        g = dumbbell(2, capacity=1e8)
        flows = [
            FlowSpec(flow_id=0, src="h0", dst="sink", demand=1e7),
            FlowSpec(flow_id=1, src="h1", dst="sink", demand=1e7),
        ]
        net = MultiHopNetwork(g, flows, self.config(), frame_bits=8000)
        res = net.run(0.2)
        for fid in (0, 1):
            assert res.per_flow_delivered_bits[fid] > 0
        assert res.dropped_frames == 0

    def test_routes_filled_by_ecmp(self):
        g = fat_tree(4, capacity=1e8)
        from repro.topology.graphs import hosts

        hs = hosts(g)
        flows = homogeneous(hs[4:6], hs[0], demand=1e7)
        net = MultiHopNetwork(g, flows, self.config())
        for spec in flows:
            route = net.routes[spec.flow_id]
            assert route[0] == spec.src
            assert route[-1] == spec.dst

    def test_pinned_route_respected(self):
        g = dumbbell(2, capacity=1e8)
        route = ("h0", "edge0", "core0", "sink")
        flows = [FlowSpec(flow_id=0, src="h0", dst="sink", demand=1e7,
                          route=route)]
        net = MultiHopNetwork(g, flows, self.config())
        assert net.routes[0] == list(route)

    def test_start_times_respected(self):
        g = dumbbell(2, capacity=1e8)
        flows = [
            FlowSpec(flow_id=0, src="h0", dst="sink", demand=1e7),
            FlowSpec(flow_id=1, src="h1", dst="sink", demand=1e7,
                     start_time=0.15),
        ]
        net = MultiHopNetwork(g, flows, self.config(), frame_bits=8000)
        res = net.run(0.1)  # before flow 1 starts
        assert res.per_flow_delivered_bits[1] == 0.0
        assert res.per_flow_delivered_bits[0] > 0.0

    def test_requires_flows(self):
        with pytest.raises(ValueError):
            MultiHopNetwork(dumbbell(2), [], self.config())

    @pytest.mark.parametrize("frame_bits", [0, -8, np.nan, np.inf])
    def test_rejects_bad_frame_bits(self, frame_bits):
        g = dumbbell(2, capacity=1e8)
        flows = homogeneous(["h0", "h1"], "sink", demand=1e7)
        with pytest.raises(ValueError, match="frame_bits"):
            MultiHopNetwork(g, flows, self.config(), frame_bits=frame_bits)

    @pytest.mark.parametrize("capacity", [np.nan, np.inf, 0.0])
    def test_rejects_a_bad_port_capacity_at_construction(self, capacity):
        # fail at construction, not inside run() as a bad event delay
        g = dumbbell(2, capacity=1e8)
        flows = homogeneous(["h0", "h1"], "sink", demand=1e7)
        port = next(iter(MultiHopNetwork(g, flows, self.config()).ports))
        g.edges[port]["capacity"] = capacity
        with pytest.raises(ValueError, match="capacity"):
            MultiHopNetwork(g, flows, self.config())

    @pytest.mark.parametrize("q0, buffer_bits",
                             [(-1.0, 5e5), (0.0, 5e5), (5e5, 5e5), (6e5, 5e5)])
    def test_port_config_needs_q0_inside_the_buffer(self, q0, buffer_bits):
        with pytest.raises(ValueError, match="q0"):
            PortConfig(q0=q0, buffer_bits=buffer_bits)

    @pytest.mark.parametrize("duration", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_bad_duration(self, duration):
        # Checked first, so a bad duration fails early rather than in
        # recorder sizing.
        g = dumbbell(2, capacity=1e8)
        flows = homogeneous(["h0", "h1"], "sink", demand=1e7)
        net = MultiHopNetwork(g, flows, self.config())
        with pytest.raises(ValueError, match="duration"):
            net.run(duration)

    @pytest.mark.parametrize("field, value", [
        ("w", np.nan), ("w", 0.0), ("gi", np.nan), ("gd", -1.0),
        ("ru", np.nan), ("ru", np.inf), ("buffer_bits", np.inf),
    ])
    def test_port_config_rejects_bad_gains(self, field, value):
        # w=nan mutes BCN and gd<0 inverts the decrease law; both ran
        # silently before.
        kwargs = dict(q0=5e4, buffer_bits=5e5)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            PortConfig(**kwargs)

    @pytest.mark.parametrize("fb_bits", [0, 1, 2.5, "6"])
    def test_rejects_bad_fb_bits(self, fb_bits):
        # The quantiser's unit is q0 / 2**(fb_bits - 2): fb_bits=0 made
        # it 4*q0, so every feedback rounded to zero.
        g = dumbbell(2, capacity=1e8)
        flows = homogeneous(["h0", "h1"], "sink", demand=1e7)
        config = PortConfig(q0=5e4, buffer_bits=5e5, fb_bits=fb_bits)
        with pytest.raises(ValueError, match="fb_bits"):
            MultiHopNetwork(g, flows, config)

    @pytest.mark.parametrize("interval", [0.0, -1e-3, np.nan, np.inf])
    def test_rejects_bad_queue_sample_interval(self, interval):
        g = dumbbell(2, capacity=1e8)
        flows = homogeneous(["h0", "h1"], "sink", demand=1e7)
        with pytest.raises(ValueError, match="queue_sample_interval"):
            MultiHopNetwork(g, flows, self.config(),
                            queue_sample_interval=interval)

    def test_runs_once(self):
        g = dumbbell(2, capacity=1e8)
        flows = homogeneous(["h0", "h1"], "sink", demand=1e7)
        net = MultiHopNetwork(g, flows, self.config(), frame_bits=8000)
        first = net.run(1e-3)
        events = net.sim.events_processed
        with pytest.raises(RuntimeError, match="runs once"):
            net.run(2e-3)
        with pytest.raises(RuntimeError, match="already ran"):
            net.schedule_departure(3e-3, 0)
        with pytest.raises(RuntimeError, match="already ran"):
            net.schedule_outage(3e-3, 1e-4)
        assert net.sim.events_processed == events
        assert first.per_flow_delivered_bits[0] > 0

    def test_jain_fairness_range(self):
        g = dumbbell(3, capacity=1e8)
        flows = homogeneous(["h0", "h1", "h2"], "sink", demand=5e7)
        net = MultiHopNetwork(g, flows, self.config(), frame_bits=8000)
        res = net.run(0.2)
        assert 0 < res.jain_fairness() <= 1.0


def _dumbbell_net():
    return BCNNetworkSimulator(small_params(), frame_bits=8000)


def _fabric_net():
    g = dumbbell(2, capacity=1e8)
    flows = homogeneous(["h0", "h1"], "sink", demand=1e7)
    return MultiHopNetwork(g, flows, PortConfig(q0=5e4, buffer_bits=5e5),
                           frame_bits=8000)


def _schedule_capacity(net, t, capacity):
    if isinstance(net, MultiHopNetwork):
        net.schedule_capacity(t, next(iter(net.ports)), capacity)
    else:
        net.schedule_capacity(t, capacity)


@pytest.mark.parametrize("make", [_dumbbell_net, _fabric_net],
                         ids=["dumbbell", "fabric"])
class TestTimedEventSeams:
    """Both networks reject a timed event that would silently change
    the run: a NaN time fires at an arbitrary heap position and a NaN
    capacity or outage length disables the event."""

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_capacity_time(self, make, t):
        with pytest.raises(ValueError, match="event time"):
            _schedule_capacity(make(), t, 5e7)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_outage_time(self, make, t):
        with pytest.raises(ValueError, match="event time"):
            make().schedule_outage(t, 1e-4)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_departure_time(self, make, t):
        with pytest.raises(ValueError, match="event time"):
            make().schedule_departure(t, 0)

    @pytest.mark.parametrize("capacity", [np.nan, np.inf])
    def test_capacity_value(self, make, capacity):
        with pytest.raises(ValueError, match="capacity"):
            _schedule_capacity(make(), 1e-3, capacity)

    @pytest.mark.parametrize("outage", [np.nan, np.inf])
    def test_outage_duration(self, make, outage):
        with pytest.raises(ValueError, match="outage_duration"):
            make().schedule_outage(1e-3, outage)


class TestHopLevelPause:
    def test_service_pause_defers_forwarding(self):
        from repro.simulation.engine import Simulator
        from repro.simulation.frames import EthernetFrame, PauseFrame
        from repro.simulation.switch import CoreSwitch

        sim = Simulator()
        out = []
        switch = CoreSwitch(sim, cpid="p", capacity=12000.0, q0=60000.0,
                            buffer_bits=600000.0,
                            forward=lambda f: out.append(sim.now))
        switch.receive_pause(PauseFrame(sa="down", duration=5.0))
        switch.receive(EthernetFrame(src=0, dst="sink", size_bits=12000,
                                     flow_id=0))
        sim.run(until=4.0)
        assert out == []  # still paused
        sim.run(until=7.0)
        assert out == [pytest.approx(6.0)]  # resumes at 5.0, serves 1s

    def test_victim_flow_starved_by_pause_rollback(self):
        """The Section I failure mode: PAUSE on a congested port rolls
        back and stalls an innocent flow sharing the upstream link."""
        from repro.experiments.m1_victim_flow import _run_config

        pause_only = _run_config(enable_bcn=False, enable_pause=True)
        bcn = _run_config(enable_bcn=True, enable_pause=False)
        assert pause_only.pauses > 0
        assert bcn.flow_throughput(3) > 2.0 * pause_only.flow_throughput(3)
