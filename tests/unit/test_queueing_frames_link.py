"""Unit tests for frames, the drop-tail queue and links."""

import pytest

from repro.simulation.engine import Simulator
from repro.simulation.frames import BCNMessage, EthernetFrame, PauseFrame
from repro.simulation.link import Link
from repro.simulation.queueing import DropTailQueue


def frame(size_bits=12000, src=0):
    return EthernetFrame(src=src, dst="sink", size_bits=size_bits, flow_id=src)


class TestFrames:
    def test_bcn_message_polarity(self):
        positive = BCNMessage(da=1, sa="sw", cpid="sw", fb=3.0, q_off=3.0,
                              q_delta=0.0)
        negative = BCNMessage(da=1, sa="sw", cpid="sw", fb=-2.0, q_off=-2.0,
                              q_delta=1.0)
        assert positive.positive
        assert not negative.positive
        assert negative.size_bits == 64 * 8

    def test_frame_uids_unique(self):
        assert frame().uid != frame().uid

    def test_pause_frame(self):
        p = PauseFrame(sa="sw", duration=5e-5)
        assert p.duration == 5e-5
        assert p.size_bits == 64 * 8


class TestDropTailQueue:
    def test_fifo_order(self):
        q = DropTailQueue(100000)
        frames = [frame(src=i) for i in range(3)]
        for f in frames:
            assert q.offer(f)
        assert [q.poll().src for _ in range(3)] == [0, 1, 2]

    def test_occupancy_tracks_bits(self):
        q = DropTailQueue(100000)
        q.offer(frame(12000))
        q.offer(frame(8000))
        assert q.occupancy_bits == 20000
        q.poll()
        assert q.occupancy_bits == 8000

    def test_drop_tail_when_full(self):
        q = DropTailQueue(20000)
        assert q.offer(frame(12000))
        assert not q.offer(frame(12000))  # would exceed 20000
        assert q.dropped_frames == 1
        assert q.dropped_bits == 12000
        assert q.occupancy_bits == 12000

    def test_poll_empty_returns_none(self):
        assert DropTailQueue(1000).poll() is None

    def test_conservation_counters(self):
        q = DropTailQueue(30000)
        for _ in range(5):
            q.offer(frame(12000))
        q.poll()
        assert q.enqueued_frames == 2
        assert q.dropped_frames == 3
        assert q.dequeued_frames == 1
        assert len(q) == 1
        assert q.conservation_holds()

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)


class TestLink:
    def test_delivers_after_delay(self):
        sim = Simulator()
        got = []
        link = Link(sim, 2.0, lambda payload: got.append((sim.now, payload)))
        link.transmit("hello")
        sim.run()
        assert got == [(2.0, "hello")]
        assert sim.events_processed == 1  # delivery is the only hop

    def test_zero_delay_still_asynchronous(self):
        sim = Simulator()
        got = []
        link = Link(sim, 0.0, got.append)
        link.transmit("x")
        assert got == []  # not delivered synchronously
        sim.run()
        assert got == ["x"]

    def test_preserves_order(self):
        sim = Simulator()
        got = []
        link = Link(sim, 1.0, got.append)
        for i in range(4):
            link.transmit(i)
        sim.run()
        assert got == [0, 1, 2, 3]

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            Link(Simulator(), -0.1, lambda p: None)
