"""Unit tests for the BCN core switch (repro.simulation.switch)."""

import math

import numpy as np
import pytest

import repro.kernels._backend as backend
from repro.core.parameters import BCNParams
from repro.simulation.engine import Simulator
from repro.simulation.frames import BCNMessage, EthernetFrame, PauseFrame
from repro.simulation.link import Link
from repro.simulation.network import BCNNetworkSimulator
from repro.simulation.switch import BatchedSwitchKernel, CoreSwitch


FRAME_BITS = 12000


def make_switch(sim, **overrides):
    config = dict(
        cpid="core-0",
        capacity=1e9,
        q0=60000.0,  # 5 frames
        buffer_bits=600000.0,
        w=2.0,
        pm=0.25,  # sample every 4th frame
        fb_bits=None,  # raw sigma unless a test opts in
    )
    config.update(overrides)
    return CoreSwitch(sim, **config)


def frame(src=0, rrt=None):
    return EthernetFrame(src=src, dst="sink", size_bits=FRAME_BITS,
                         flow_id=src, rrt_cpid=rrt)


def wire_source(sim, switch, src=0):
    inbox = []
    switch.register_bcn_link(src, Link(sim, 0.0, inbox.append))
    return inbox


class TestSampling:
    def test_deterministic_sampling_cadence(self):
        sim = Simulator()
        switch = make_switch(sim)
        for _ in range(12):
            switch.receive(frame())
        assert switch.stats.samples == 3  # every 4th arrival

    def test_random_sampling_reproducible(self):
        def run(seed):
            sim = Simulator()
            switch = make_switch(sim, random_sampling=True, sampling_seed=seed)
            for _ in range(200):
                switch.receive(frame())
            return switch.stats.samples

        assert run(1) == run(1)
        # roughly pm * 200 = 50 samples
        assert 25 <= run(1) <= 80

    def test_sigma_computation_matches_eq1(self):
        sim = Simulator()
        switch = make_switch(sim)
        for _ in range(4):
            switch.receive(frame())
        sim.run(until=0.0)  # no service yet (service takes >0 time)
        assert len(switch.sigma_history) == 1
        _, sigma = switch.sigma_history[0]
        # 4 frames arrived at t=0; the head frame entered service (it is
        # polled out of the FIFO), so q = 3 frames; dq = q - 0.
        q = 3 * FRAME_BITS
        expected = (switch.q0 - q) - switch.w * q
        assert sigma == pytest.approx(expected)


class TestBCNGeneration:
    def test_negative_bcn_on_congestion(self):
        sim = Simulator()
        switch = make_switch(sim, q0=12000.0)
        inbox = wire_source(sim, switch)
        for _ in range(8):
            switch.receive(frame())
        sim.run(until=0.0)
        assert switch.stats.bcn_negative >= 1
        sim.run()
        assert inbox
        assert all(isinstance(m, BCNMessage) and m.fb_raw < 0 for m in inbox)

    def test_positive_bcn_requires_association_by_default(self):
        sim = Simulator()
        switch = make_switch(sim)
        inbox = wire_source(sim, switch)
        for _ in range(4):
            switch.receive(frame())  # q < q0 at 4th? q=4 frames < 5 frames
        # sigma: q=48000 < q0=60000 but dq term: sigma = 12000 - 2*48000 < 0
        # use a drained switch instead: serve everything, then send 4 more
        sim.run()
        assert all(m.fb_raw < 0 for m in inbox if isinstance(m, BCNMessage))

    def test_positive_bcn_sent_to_associated_source(self):
        sim = Simulator()
        # Large q0 so sigma stays positive; sample every frame for speed.
        switch = make_switch(sim, q0=300000.0, pm=1.0)
        inbox = wire_source(sim, switch)
        switch.receive(frame(rrt="core-0"))
        sim.run()
        assert switch.stats.bcn_positive == 1
        assert inbox and inbox[0].fb_raw > 0

    def test_positive_bcn_withheld_without_rrt(self):
        sim = Simulator()
        switch = make_switch(sim, q0=300000.0, pm=1.0)
        wire_source(sim, switch)
        switch.receive(frame(rrt=None))
        sim.run()
        assert switch.stats.bcn_positive == 0

    def test_positive_bcn_unconditional_when_idealized(self):
        sim = Simulator()
        switch = make_switch(sim, q0=300000.0, pm=1.0,
                             require_association=False)
        inbox = wire_source(sim, switch)
        switch.receive(frame(rrt=None))
        sim.run()
        assert switch.stats.bcn_positive == 1
        assert inbox

    def test_positive_gate_on_q_below_q0(self):
        sim = Simulator()
        switch = make_switch(sim, q0=300000.0, pm=1.0,
                             require_association=False, w=0.0)
        # Fill above q0 with w = 0: sigma = q0 - q.
        inbox = wire_source(sim, switch)
        for _ in range(30):  # 360000 bits > q0
            switch.receive(frame())
        sim.run(until=0.0)
        positive = [m for m in inbox if isinstance(m, BCNMessage) and m.fb_raw > 0]
        # every positive sigma sample had q < q0
        for m in positive:
            assert m.q_off > 0

    def test_message_fields(self):
        sim = Simulator()
        switch = make_switch(sim, q0=300000.0, pm=1.0,
                             require_association=False)
        inbox = wire_source(sim, switch, src=7)
        switch.receive(frame(src=7))
        sim.run()
        msg = inbox[0]
        assert msg.da == 7
        assert msg.sa == "core-0"
        assert msg.cpid == "core-0"


class TestQuantization:
    def test_fb_quantized_and_clamped(self):
        sim = Simulator()
        switch = make_switch(sim, fb_bits=6)
        assert switch.sigma_unit == pytest.approx(switch.q0 / 16.0)
        assert switch.quantize_fb(0.4 * switch.sigma_unit) == 0.0
        assert switch.quantize_fb(1.4 * switch.sigma_unit) == 1.0
        assert switch.quantize_fb(1e12) == 31.0
        assert switch.quantize_fb(-1e12) == -32.0

    def test_raw_mode_passthrough(self):
        sim = Simulator()
        switch = make_switch(sim, fb_bits=None)
        assert switch.quantize_fb(1234.5) == 1234.5


class TestPause:
    def test_pause_emitted_above_threshold(self):
        sim = Simulator()
        switch = make_switch(sim, q_sc=100000.0, pause_duration=1e-4)
        pauses = []
        switch.register_pause_link(Link(sim, 0.0, pauses.append))
        for _ in range(10):  # 120000 bits > q_sc
            switch.receive(frame())
        sim.run(until=0.0)
        assert switch.stats.pauses_sent == 1  # armed once per excursion
        sim.run()
        assert pauses and isinstance(pauses[0], PauseFrame)

    def test_pause_rearms_after_duration(self):
        sim = Simulator()
        switch = make_switch(sim, q_sc=50000.0, pause_duration=1e-6,
                             capacity=1.0)  # absurdly slow service
        pauses = []
        switch.register_pause_link(Link(sim, 0.0, pauses.append))
        for _ in range(6):
            switch.receive(frame())
        sim.run(until=2e-6)
        switch.receive(frame())  # still congested after re-arm
        sim.run(until=3e-6)
        assert switch.stats.pauses_sent == 2

    def test_no_pause_when_disabled(self):
        sim = Simulator()
        switch = make_switch(sim, q_sc=None)
        switch.register_pause_link(Link(sim, 0.0, lambda p: None))
        for _ in range(40):
            switch.receive(frame())
        sim.run(until=0.0)
        assert switch.stats.pauses_sent == 0


class TestDataPlane:
    def test_forwards_all_accepted_frames(self):
        sim = Simulator()
        forwarded = []
        switch = make_switch(sim, forward=forwarded.append)
        for i in range(6):
            switch.receive(frame(src=i))
        sim.run()
        assert [f.src for f in forwarded] == list(range(6))
        assert switch.stats.forwarded_frames == 6
        assert switch.queue.conservation_holds()

    def test_service_rate_paces_departures(self):
        sim = Simulator()
        times = []
        switch = make_switch(sim, capacity=12000.0,
                             forward=lambda f: times.append(sim.now))
        for _ in range(3):
            switch.receive(frame())
        sim.run()
        assert times == pytest.approx([1.0, 2.0, 3.0])

    def test_drops_when_buffer_full(self):
        sim = Simulator()
        switch = make_switch(sim, buffer_bits=30000.0, capacity=1.0)
        for _ in range(5):
            switch.receive(frame())
        # Head frame is in service (out of the FIFO); two more fit in
        # 30000 bits; the remaining two are tail-dropped.
        assert switch.queue.dropped_frames == 2

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            make_switch(Simulator(), capacity=0.0)
        with pytest.raises(ValueError):
            make_switch(Simulator(), pm=0.0)

    @pytest.mark.parametrize("capacity", [math.nan, math.inf, -1e9])
    def test_rejects_a_capacity_that_is_not_finite_and_positive(
            self, capacity):
        with pytest.raises(ValueError, match="capacity"):
            make_switch(Simulator(), capacity=capacity)

    @pytest.mark.parametrize("capacity", [math.nan, math.inf, -1e9])
    def test_set_capacity_rejects_what_construction_rejects(self, capacity):
        switch = make_switch(Simulator())
        with pytest.raises(ValueError, match="capacity"):
            switch.set_capacity(capacity)
        assert switch.capacity == 1e9


# -- a zero FB is +0.0 on every path ---------------------------------------

#: With q0 = 35,400 bits, w = 2 and 12,000-bit frames, a sample of an
#: empty queue's first arrival reads q = dq = L, so sigma = q0 - 3L =
#: -600 bits: negative, and under half of the 2,212.5-bit FB quantum
#: (q0 / 16 for a 6-bit FB), so it rounds to a zero FB.
ZERO_FB_Q0 = 35_400.0


def _pending_bcn_fb(compiled: bool, monkeypatch) -> float:
    """The FB of the first BCN of a one-source reference dumbbell, read
    off the event heap before its delivery, on the C event core or on
    the python loop."""
    if compiled:
        if not backend.get_backend().compiled:
            pytest.skip("no compiled backend (cffi + C compiler) available")
    else:
        monkeypatch.setattr(backend, "_BACKEND", backend.KernelBackend())
    params = BCNParams(capacity=1e9, n_flows=1, q0=ZERO_FB_Q0,
                       buffer_size=1e6, pm=1.0, gi=4.0, gd=1 / 128, ru=8e6)
    net = BCNNetworkSimulator(params, frame_bits=FRAME_BITS)
    # first emission at 12 us (line rate), its sample at 12.5 us, the
    # BCN lands at 13 us
    net.run(12.7e-6)
    fbs = [arg.fb for _, _, _, arg in net.sim._heap
           if isinstance(arg, BCNMessage)]
    assert len(fbs) == 1 and net.switch.sigma_history[0][1] == -600.0
    return fbs[0]


def _window_fb(compiled: bool, buffer_bits: float) -> float:
    """The FB of the first message of one switch window: the planned
    commit, or (buffer of one frame) the per-frame drop loop."""
    be = backend.get_backend() if compiled else backend.KernelBackend()
    if be.compiled != compiled:
        pytest.skip("no compiled backend (cffi + C compiler) available")
    switch = make_switch(Simulator(), q0=ZERO_FB_Q0, buffer_bits=buffer_bits,
                         pm=1.0, fb_bits=6)
    kernel = BatchedSwitchKernel(switch, FRAME_BITS, backend=be)
    window = kernel.process(0.0, 1e-3, np.array([1e-6, 1.1e-6, 1.2e-6]),
                            np.zeros(3, np.int64), np.zeros(3, np.uint8))
    assert window.drops == (1 if buffer_bits == FRAME_BITS else 0)
    assert window.msg_sigma[0] == -600.0
    return float(window.msg_fb[0])


@pytest.mark.parametrize("path", [
    "quantize_fb", "python-loop", "event-core", "numpy-commit",
    "numpy-drop-loop", "c-commit", "c-drop-loop",
])
def test_a_zero_fb_is_positive_zero_on_every_path(path, monkeypatch):
    if path == "quantize_fb":
        fb = make_switch(Simulator(), q0=ZERO_FB_Q0,
                         fb_bits=6).quantize_fb(-600.0)
    elif path in ("python-loop", "event-core"):
        fb = _pending_bcn_fb(path == "event-core", monkeypatch)
    else:
        fb = _window_fb(path.startswith("c-"),
                        FRAME_BITS if path.endswith("drop-loop") else 6e5)
    assert fb == 0.0 and math.copysign(1.0, fb) == 1.0
