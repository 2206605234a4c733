"""Unit tests for the batched packet engine building blocks.

``BatchedSwitchKernel`` must reproduce the reference
:class:`~repro.simulation.switch.CoreSwitch` semantics exactly for
deterministic sampling: same queue trajectory, same samples, same
sigma values, same drop/forward counters.  The reference oracle here is
the event-driven switch itself, fed the identical arrival train.
"""


import numpy as np
import pytest

from repro.simulation.engine import Simulator
from repro.simulation.frames import EthernetFrame
from repro.simulation.switch import BatchedSwitchKernel, CoreSwitch


def _make_switch(sim, **overrides):
    kwargs = dict(
        cpid="cp",
        capacity=1e9,
        q0=30_000.0,
        buffer_bits=120_000.0,
        w=2.0,
        pm=0.25,
        fb_bits=6,
        require_association=False,
        positive_only_below_q0=False,
    )
    kwargs.update(overrides)
    return CoreSwitch(sim, **kwargs)


def _drive_reference(switch, times, srcs, frame_bits, duration):
    """Feed the event-driven switch the same train the kernel gets."""
    sim = switch.sim
    for t, s in zip(times, srcs):
        frame = EthernetFrame(src=int(s), dst="sink", size_bits=frame_bits,
                              flow_id=int(s), rrt_cpid=None, created_at=t)
        sim.schedule_at(t, lambda f=frame: switch.receive(f))
    sim.run(until=duration)


def _burst(n, start, gap, src=0):
    times = start + gap * np.arange(n)
    return times, np.full(n, src, dtype=int)


FRAME = 12_000  # bits; service time 12 us at 1 Gb/s


class TestKernelVsReferenceSwitch:
    """Exactness against the event-driven oracle (deterministic pm)."""

    def _compare(self, times, srcs, duration, **overrides):
        ref_sim = Simulator()
        ref = _make_switch(ref_sim, **overrides)
        _drive_reference(ref, times, srcs, FRAME, duration)

        bat_sim = Simulator()
        bat = _make_switch(bat_sim, **overrides)
        kernel = BatchedSwitchKernel(bat, FRAME)
        assoc = np.ones(len(times), dtype=bool)
        kernel.process(0.0, duration, np.asarray(times, float),
                       np.asarray(srcs), assoc)
        return ref, bat

    def test_overload_burst_matches(self):
        # 3 us spacing vs 12 us service: queue builds, sigma goes
        # negative; the buffer is deep enough that nothing drops, so
        # this exercises the vectorized fast path.
        times, srcs = _burst(60, 1e-5, 3e-6)
        ref, bat = self._compare(times, srcs, duration=1e-3,
                                 buffer_bits=200 * FRAME)
        assert bat.stats.samples == ref.stats.samples
        assert bat.stats.bcn_negative == ref.stats.bcn_negative
        assert bat.stats.bcn_positive == ref.stats.bcn_positive
        assert bat.stats.forwarded_frames == ref.stats.forwarded_frames
        assert bat.queue.enqueued_frames == ref.queue.enqueued_frames
        assert bat.queue.dropped_frames == ref.queue.dropped_frames == 0
        np.testing.assert_allclose(
            np.asarray(bat.sigma_history, float),
            np.asarray(ref.sigma_history, float), rtol=1e-12)

    def test_underload_matches(self):
        times, srcs = _burst(40, 1e-5, 20e-6)  # slower than service
        ref, bat = self._compare(times, srcs, duration=1e-3)
        assert bat.stats.forwarded_frames == ref.stats.forwarded_frames
        np.testing.assert_allclose(
            np.asarray(bat.sigma_history, float),
            np.asarray(ref.sigma_history, float), rtol=1e-12)

    def test_drop_window_falls_back_exactly(self):
        # Buffer of 5 frames: the burst overflows and drop-tail engages;
        # the kernel must take the scalar path and still match.
        times, srcs = _burst(80, 1e-5, 2e-6)
        ref, bat = self._compare(times, srcs, duration=1e-3,
                                 buffer_bits=5 * FRAME)
        assert ref.queue.dropped_frames > 0
        assert bat.queue.dropped_frames == ref.queue.dropped_frames
        assert bat.queue.enqueued_frames == ref.queue.enqueued_frames
        assert bat.stats.forwarded_frames == ref.stats.forwarded_frames
        assert bat.stats.samples == ref.stats.samples
        np.testing.assert_allclose(
            np.asarray(bat.sigma_history, float),
            np.asarray(ref.sigma_history, float), rtol=1e-12)

    def test_association_and_q0_gating_match(self):
        times, srcs = _burst(50, 1e-5, 4e-6)
        ref, bat = self._compare(times, srcs, duration=1e-3,
                                 buffer_bits=200 * FRAME,
                                 require_association=True,
                                 positive_only_below_q0=True)
        assert bat.stats.bcn_positive == ref.stats.bcn_positive
        assert bat.stats.bcn_negative == ref.stats.bcn_negative


class TestWindowSplitInvariance:
    """Processing one train as N windows must equal processing it as one."""

    @pytest.mark.parametrize("cut", [1, 7, 29, 59])
    def test_split_any_boundary(self, cut):
        times, srcs = _burst(60, 1e-5, 3e-6)
        assoc = np.ones(60, dtype=bool)

        one = _make_switch(Simulator(), buffer_bits=200 * FRAME)
        k1 = BatchedSwitchKernel(one, FRAME)
        k1.process(0.0, 1e-3, times, srcs, assoc)

        two = _make_switch(Simulator(), buffer_bits=200 * FRAME)
        k2 = BatchedSwitchKernel(two, FRAME)
        t_cut = float(times[cut - 1]) + 1e-9
        k2.process(0.0, t_cut, times[:cut], srcs[:cut], assoc[:cut])
        k2.process(t_cut, 1e-3, times[cut:], srcs[cut:], assoc[cut:])

        assert two.stats.samples == one.stats.samples
        assert two.stats.bcn_negative == one.stats.bcn_negative
        assert two.stats.forwarded_frames == one.stats.forwarded_frames
        assert two.queue.dequeued_frames == one.queue.dequeued_frames
        np.testing.assert_allclose(
            np.asarray(two.sigma_history, float),
            np.asarray(one.sigma_history, float), rtol=1e-9)

    def test_empty_window_between_trains(self):
        times, srcs = _burst(20, 1e-5, 3e-6)
        assoc = np.ones(20, dtype=bool)
        sw = _make_switch(Simulator(), buffer_bits=200 * FRAME)
        k = BatchedSwitchKernel(sw, FRAME)
        k.process(0.0, 2e-4, times, srcs, assoc)
        empty = np.empty(0)
        w = k.process(2e-4, 4e-4, empty, empty.astype(int),
                      empty.astype(bool))
        assert w.committed == 0
        # The backlog keeps draining through an empty window.
        assert sw.stats.forwarded_frames == 20


class TestQueueAt:
    def test_occupancy_probe_matches_hand_count(self):
        # Arrivals every 4 us, service 12 us: at t the queue holds
        # arrivals <= t minus services started <= t.
        times, srcs = _burst(10, 0.0, 4e-6)
        sw = _make_switch(Simulator())
        k = BatchedSwitchKernel(sw, FRAME)
        k.process(0.0, 1e-3, times, srcs, np.ones(10, dtype=bool))
        # At 13 us: arrivals at 0,4,8,12 us (4 of them); services started
        # at 0 and 12 us (the second frame waits for the first).
        q = k.queue_at(np.array([13e-6]))
        assert q[0] == pytest.approx(2 * FRAME)
        # After everything drains the occupancy probe reads zero.
        assert k.queue_at(np.array([0.9e-3]))[0] == 0.0


class TestPauseTruncation:
    def test_pause_crossing_cuts_window(self):
        times, srcs = _burst(60, 1e-5, 2e-6)
        sw = _make_switch(Simulator(), q_sc=4 * FRAME,
                          buffer_bits=1_000 * FRAME)
        k = BatchedSwitchKernel(sw, FRAME, pause_fanout=3)
        w = k.process(0.0, 1e-3, times, srcs, np.ones(60, dtype=bool))
        assert w.pause_at is not None
        assert 0 < w.committed < 60
        # The crossing arrival itself is committed.
        assert w.t_commit == pytest.approx(float(times[w.committed - 1]))
        assert sw.stats.pauses_sent == 3

    def test_pause_rearms_after_duration(self):
        times, srcs = _burst(60, 1e-5, 2e-6)
        sw = _make_switch(Simulator(), q_sc=4 * FRAME,
                          buffer_bits=1_000 * FRAME, pause_duration=30e-6)
        k = BatchedSwitchKernel(sw, FRAME, pause_fanout=1)
        w1 = k.process(0.0, 1e-3, times, srcs, np.ones(60, dtype=bool))
        assert w1.pause_at is not None
        rest = slice(w1.committed, None)
        w2 = k.process(w1.t_commit, 1e-3, times[rest], srcs[rest],
                       np.ones(60 - w1.committed, dtype=bool))
        # Arrivals before the re-arm time cannot trigger a second PAUSE,
        # later ones can.
        if w2.pause_at is not None:
            assert w2.pause_at >= w1.pause_at + 30e-6
        assert sw.stats.pauses_sent >= 1
