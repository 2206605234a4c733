"""Discrete-event simulation engine.

:class:`Simulator` is the one deterministic event kernel.  Each pending
event is a plain ``(time, seq, callback, arg)`` tuple in a binary heap,
so ordering runs in C: ties in time break by insertion order (``seq``),
and because ``seq`` is unique a callback or its argument is never
compared.  Runs are therefore reproducible by construction.

Components schedule callbacks with :meth:`Simulator.schedule` (relative
delay) or :meth:`Simulator.schedule_at` (absolute time).  Either takes
an optional single argument that is passed to the callback when it
fires, so a per-frame hop can schedule a bound method plus its frame
instead of building a closure.  Events cannot be cancelled; every
scheduled event runs once the clock reaches it.

The kernel knows nothing about networking; switches, sources and links
(:mod:`repro.simulation`) are plain objects holding a reference to the
simulator.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Any, Callable

__all__ = ["Simulator"]

#: Marks an event whose callback takes no argument.
_NO_ARG = object()


class Simulator:
    """Deterministic discrete-event simulator (binary-heap kernel).

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(1.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.5]
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[..., None], Any]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._processed = 0

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
        """Number of events still queued."""
        return len(self._heap)

    # -- scheduling --------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., None], arg: Any = _NO_ARG
    ) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        If ``arg`` is given the callback is called as ``callback(arg)``,
        otherwise as ``callback()``.
        """
        if not 0.0 <= delay < math.inf:
            raise ValueError(f"delay must be finite and non-negative, got {delay}")
        heappush(self._heap, (self._now + delay, next(self._seq), callback, arg))

    def schedule_at(
        self, time: float, callback: Callable[..., None], arg: Any = _NO_ARG
    ) -> None:
        """Schedule ``callback`` at absolute simulation time ``time``.

        ``arg`` is passed as in :meth:`schedule`.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self._now}"
            )
        heappush(self._heap, (time, next(self._seq), callback, arg))

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
        self.schedule(interval, self._ticker(interval, callback, until))

    def _ticker(self, interval: float, callback: Callable[[], None],
                until: float) -> Callable[[], None]:
        """The self-rescheduling tick :meth:`schedule_every` schedules."""

        def tick() -> None:
            callback()
            next_time = self._now + interval
            if next_time <= until:
                self.schedule_at(next_time, tick)

        return tick

    def run(self, until: float = math.inf, *, max_events: int | None = None) -> None:
        """Process events in order until the horizon or queue exhaustion.

        Parameters
        ----------
        until:
            Stop once the next event would occur after this time; the
            clock is advanced to ``until`` unless ``max_events`` stopped
            the run with events still due by then.
        max_events:
            Safety cap on callbacks executed in this call.
        """
        heap = self._heap
        pop = heappop
        no_arg = _NO_ARG
        executed = 0
        while heap:
            if max_events is not None and executed >= max_events:
                break
            if heap[0][0] > until:
                self._now = until
                return
            time, _, callback, arg = pop(heap)
            self._now = time
            if arg is no_arg:
                callback()
            else:
                callback(arg)
            self._processed += 1
            executed += 1
        # A max_events stop with events still due by ``until`` leaves
        # the clock at the last executed event.
        if math.isfinite(until) and (not heap or heap[0][0] > until):
            self._now = max(self._now, until)

    def reset(self) -> None:
        """Clear all pending events and rewind the clock to zero."""
        self._heap.clear()
        self._now = 0.0
        self._processed = 0

