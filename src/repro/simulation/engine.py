"""Discrete-event simulation engine.

:class:`Simulator` is the one deterministic event kernel: events are
``(time, seq, callback)`` triples in a binary heap; ties in time break
by insertion order (``seq``), which keeps runs reproducible.

Components schedule callbacks with :meth:`Simulator.schedule` (relative
delay) or :meth:`Simulator.schedule_at` (absolute time) and may cancel
them via the returned handle.  Cancelled events are skipped lazily when
popped; when more than half of the pending events are cancelled the
queue compacts itself so long runs with heavy cancellation (rate
re-pacing, pause retries) do not leak memory.

The kernel knows nothing about networking; switches, sources and links
(:mod:`repro.simulation`) are plain objects holding a reference to the
simulator.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Event", "Simulator"]

#: Compact the pending-event store once this fraction of it is cancelled.
_COMPACT_FRACTION = 0.5
#: ... but never bother below this many pending events.
_COMPACT_MIN_PENDING = 64


@dataclass(order=True)
class Event:
    """A scheduled callback; orderable by ``(time, seq)``."""

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: The simulator that owns this event (None for detached events);
    #: lets ``cancel`` feed the owner's lazy-compaction accounting.
    owner: "Simulator | None" = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner._note_cancel()


class Simulator:
    """Deterministic discrete-event simulator (binary-heap kernel).

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.5]
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._cancelled_pending = 0
        self._freeze_horizon = math.inf

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of events still queued (cancelled ones may linger
        until the next pop or compaction)."""
        return len(self._heap)

    # -- window barrier ----------------------------------------------------

    @property
    def freeze_horizon(self) -> float:
        """Hard processing horizon for conservative window barriers.

        No event beyond the horizon is executed by :meth:`run`, even
        when a callback re-enters ``run`` with a later ``until`` — the
        guarantee a conservative parallel coordinator needs: between
        two barrier exchanges a shard can never outrun its lookahead.
        Scheduling beyond the horizon stays legal (events simply wait
        for a later window).  ``math.inf`` (the default) disables it.
        """
        return self._freeze_horizon

    def set_freeze_horizon(self, t: float) -> None:
        """Freeze event processing at ``t`` (see :attr:`freeze_horizon`)."""
        if t < self._now:
            raise ValueError(
                f"freeze horizon {t} lies before now {self._now}"
            )
        self._freeze_horizon = t

    def clear_freeze_horizon(self) -> None:
        """Remove the processing horizon."""
        self._freeze_horizon = math.inf

    def run_window(self, t_end: float) -> int:
        """Process one conservative window ``(now, t_end]`` and stop.

        Equivalent to ``run(until=t_end)`` under a freeze horizon at
        ``t_end``; the clock is left exactly at ``t_end`` and the
        number of callbacks executed is returned.  Calling it
        repeatedly with increasing ``t_end`` replays precisely the
        event sequence a single ``run`` over the union would have —
        the window barrier is invisible to the simulated system.
        """
        if not math.isfinite(t_end):
            raise ValueError("window end must be finite")
        before = self._processed
        previous = self._freeze_horizon
        self.set_freeze_horizon(t_end)
        try:
            self.run(until=t_end)
        finally:
            self._freeze_horizon = previous
        return self._processed - before

    # -- cancellation accounting ------------------------------------------

    def _note_cancel(self) -> None:
        self._cancelled_pending += 1
        pending = len(self._heap)
        if (pending > _COMPACT_MIN_PENDING
                and self._cancelled_pending > _COMPACT_FRACTION * pending):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events from the heap and re-heapify.

        In place: :meth:`run` holds the heap list across callbacks, and
        a callback's cancellation may trigger compaction.
        """
        self._heap[:] = [e for e in self._heap if not e.cancelled]
        heapq.heapify(self._heap)
        self._cancelled_pending = 0

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0 or not math.isfinite(delay):
            raise ValueError(f"delay must be finite and non-negative, got {delay}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self._now}"
            )
        event = Event(time, next(self._seq), callback, owner=self)
        heapq.heappush(self._heap, event)
        return event

    def schedule_every(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        until: float = math.inf,
    ) -> None:
        """Run ``callback`` every ``interval`` seconds until ``until``."""
        if interval <= 0:
            raise ValueError("interval must be positive")

        def tick() -> None:
            callback()
            next_time = self._now + interval
            if next_time <= until:
                self.schedule_at(next_time, tick)

        self.schedule(interval, tick)

    def run(self, until: float = math.inf, *, max_events: int | None = None) -> None:
        """Process events in order until the horizon or queue exhaustion.

        Parameters
        ----------
        until:
            Stop once the next event would occur after this time; the
            clock is advanced to ``until`` if any later events remain.
        max_events:
            Safety cap on callbacks executed in this call.
        """
        until = min(until, self._freeze_horizon)
        heap = self._heap
        executed = 0
        while heap:
            if max_events is not None and executed >= max_events:
                break
            if heap[0].time > until:
                self._now = until
                return
            event = heapq.heappop(heap)
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            self._now = event.time
            event.callback()
            self._processed += 1
            executed += 1
        if math.isfinite(until):
            self._now = max(self._now, until)

    def reset(self) -> None:
        """Clear all pending events and rewind the clock to zero."""
        self._heap.clear()
        self._cancelled_pending = 0
        self._now = 0.0
        self._processed = 0
        self._freeze_horizon = math.inf


def noop() -> None:  # pragma: no cover - convenience for tests
    """A callback that does nothing."""
