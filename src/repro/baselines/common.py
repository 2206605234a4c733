"""Shared infrastructure for the baseline congestion-control schemes.

Every 802.1Qau proposal shares the same data plane — a serviced FIFO at
the congestion point and paced sources at the edge — and differs only
in the control plane (what is measured, what is signalled, how the rate
reacts).  :class:`QueuedPort` provides that shared data plane;
:class:`DumbbellRun` is a small harness that wires ``N`` paced sources
through one port and records the same series as the BCN dumbbell so the
schemes are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from ..core.parameters import _require_positive_finite
from ..simulation.engine import Simulator
from ..simulation.frames import EthernetFrame
from ..simulation.link import Link
from ..simulation.queueing import DropTailQueue

__all__ = ["QueuedPort", "PacedSource", "DumbbellRun", "BaselineResult"]


class QueuedPort:
    """A drop-tail FIFO serviced at line rate, with an arrival hook.

    Subclasses (or composition via ``on_arrival``/``on_departure``)
    implement the scheme-specific control plane.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        capacity: float,
        buffer_bits: float,
        forward: Callable[[EthernetFrame], None] | None = None,
    ) -> None:
        _require_positive_finite("capacity", capacity)
        self.sim = sim
        self.capacity = capacity
        self.queue = DropTailQueue(buffer_bits)
        self.forward = forward or (lambda frame: None)
        self.on_arrival: Callable[[EthernetFrame, bool], None] | None = None
        self.on_departure: Callable[[EthernetFrame], None] | None = None
        self._busy = False

    @property
    def queue_bits(self) -> float:
        return self.queue.occupancy_bits

    def receive(self, frame: EthernetFrame) -> None:
        accepted = self.queue.offer(frame)
        if self.on_arrival is not None:
            self.on_arrival(frame, accepted)
        if accepted and not self._busy:
            self._serve()

    def _serve(self) -> None:
        frame = self.queue.poll()
        if frame is None:
            self._busy = False
            return
        self._busy = True
        self.sim.schedule(frame.size_bits / self.capacity,
                          self._service_done, frame)

    def _service_done(self, frame: EthernetFrame) -> None:
        if self.on_departure is not None:
            self.on_departure(frame)
        self.forward(frame)
        self._serve()


class PacedSource:
    """A paced source whose rate is set externally by a scheme regulator."""

    def __init__(
        self,
        sim: Simulator,
        *,
        address: int,
        rate: float,
        send: Callable[[EthernetFrame], None],
        frame_bits: int = 1500 * 8,
        min_rate: float = 1e5,
        max_rate: float = float("inf"),
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.address = address
        self.rate = rate
        self.send = send
        self.frame_bits = frame_bits
        self.min_rate = min_rate
        self.max_rate = max_rate
        self.frames_sent = 0
        self._started = False

    def set_rate(self, rate: float) -> None:
        self.rate = min(max(rate, self.min_rate), self.max_rate)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sim.schedule(self.frame_bits / self.rate, self._emit)

    def _emit(self) -> None:
        self.send(
            EthernetFrame(
                src=self.address,
                dst="sink",
                size_bits=self.frame_bits,
                flow_id=self.address,
                created_at=self.sim.now,
            )
        )
        self.frames_sent += 1
        self.sim.schedule(self.frame_bits / self.rate, self._emit)


@dataclass
class BaselineResult:
    """Common result shape for baseline dumbbell runs."""

    scheme: str
    t: np.ndarray
    queue: np.ndarray
    per_source_rate: np.ndarray
    dropped_frames: int
    delivered_bits: float
    duration: float
    capacity: float
    control_messages: int

    def utilization(self) -> float:
        return self.delivered_bits / (self.capacity * self.duration)

    def queue_peak(self) -> float:
        return float(self.queue.max()) if self.queue.size else 0.0

    def queue_mean(self, *, settle: float = 0.0) -> float:
        mask = self.t >= settle
        return float(self.queue[mask].mean()) if mask.any() else 0.0

    def queue_std(self, *, settle: float = 0.0) -> float:
        mask = self.t >= settle
        return float(self.queue[mask].std()) if mask.any() else 0.0

    def jain_fairness(self) -> float:
        r = self.per_source_rate
        if r.size == 0 or float(np.sum(r * r)) == 0.0:
            return 1.0
        return float(np.sum(r)) ** 2 / (r.size * float(np.sum(r * r)))


class SchemeWiring(Protocol):
    """What a scheme must provide to the dumbbell harness."""

    def make_port(self, sim: Simulator, forward) -> QueuedPort: ...

    def attach_source(
        self, sim: Simulator, port: QueuedPort, source: PacedSource, delay: float
    ) -> None: ...

    @property
    def control_messages(self) -> int: ...


class DumbbellRun:
    """Wire and run ``N`` paced sources through one scheme-controlled port."""

    def __init__(
        self,
        scheme: SchemeWiring,
        *,
        name: str,
        capacity: float,
        n_flows: int,
        initial_rate: float,
        frame_bits: int = 1500 * 8,
        propagation_delay: float = 0.5e-6,
        queue_sample_interval: float | None = None,
    ) -> None:
        self.scheme = scheme
        self.name = name
        self.capacity = capacity
        self.sim = Simulator()
        self._delivered = 0.0

        def deliver(frame: EthernetFrame) -> None:
            self._delivered += frame.size_bits

        self.port = scheme.make_port(self.sim, deliver)
        self.sources: list[PacedSource] = []
        for i in range(n_flows):
            uplink = Link(self.sim, propagation_delay, self.port.receive)
            source = PacedSource(
                self.sim,
                address=i,
                rate=initial_rate,
                send=uplink.transmit,
                frame_bits=frame_bits,
                max_rate=capacity,
            )
            scheme.attach_source(self.sim, self.port, source, propagation_delay)
            self.sources.append(source)
        self._dt = (
            queue_sample_interval
            if queue_sample_interval is not None
            else 50 * frame_bits / capacity
        )
        self._samples: list[tuple[float, float]] = []

    def _record(self) -> None:
        self._samples.append((self.sim.now, self.port.queue_bits))

    def run(self, duration: float) -> BaselineResult:
        for source in self.sources:
            source.start()
        self._record()
        self.sim.schedule_every(self._dt, self._record, until=duration)
        self.sim.run(until=duration)
        self._record()
        return BaselineResult(
            scheme=self.name,
            t=np.array([t for t, _ in self._samples]),
            queue=np.array([q for _, q in self._samples]),
            per_source_rate=np.array([s.rate for s in self.sources]),
            dropped_frames=self.port.queue.dropped_frames,
            delivered_bits=self._delivered,
            duration=duration,
            capacity=self.capacity,
            control_messages=self.scheme.control_messages,
        )
