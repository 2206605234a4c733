"""Unit tests for the discrete-event engine (repro.simulation.engine).

Behavioural tests run through the ``sim`` fixture; the event contract
(one-argument callbacks, insertion-order ties, no comparison beyond
``(time, seq)``) gets its own class.
"""

import math

import pytest

from repro.simulation.engine import Simulator

#: The event kernels under test (the binary heap is the only one); the
#: fixture id keeps each test's name, ``test_x[heap]``, stable.
KERNELS = ["heap"]


@pytest.fixture(params=KERNELS)
def sim(request):
    return Simulator()


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self, sim):
        fired = []
        for name in "abcde":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_schedule_at_absolute(self, sim):
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_nested_scheduling(self, sim):
        fired = []

        def first():
            fired.append(("first", sim.now))
            sim.schedule(1.0, lambda: fired.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == [("first", 1.0), ("second", 2.0)]

    def test_rejects_negative_delay(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule(math.inf, lambda: None)

    def test_rejects_past_absolute_time(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)


class _Incomparable:
    """A callback or payload that fails loudly if the heap compares it."""

    def __init__(self, log=None, name=None):
        self.log, self.name = log, name

    def __call__(self, *args):
        self.log.append((self.name, *args))

    def _refuse(self, other):
        raise AssertionError("event callbacks and payloads must never be compared")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = _refuse
    __hash__ = object.__hash__


class TestEventContract:
    def test_one_argument_callback_receives_its_payload(self, sim):
        got = []
        payload = object()
        sim.schedule(1.0, got.append, payload)
        sim.schedule_at(2.0, got.append, None)
        sim.run()
        assert got[0] is payload
        assert got[1] is None  # None is a payload, not "no argument"
        assert sim.events_processed == 2

    def test_mixed_arity_ties_fire_in_insertion_order(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule_at(1.0, fired.append, "b")
        sim.schedule_at(1.0, lambda: fired.append("c"))
        sim.schedule(1.0, fired.append, "d")
        sim.schedule(0.5, lambda: sim.schedule(0.5, fired.append, "e"))
        sim.run()
        assert fired == list("abcde")

    def test_callbacks_and_payloads_are_never_compared(self, sim):
        log = []
        for i in range(50):
            # Many exact ties: only ``seq`` may break them.
            t = float(i % 3)
            sim.schedule(t, _Incomparable(log, i), _Incomparable())
            sim.schedule_at(t, _Incomparable(log, -i))
        sim.run()
        assert sim.events_processed == 100
        assert [entry[0] for entry in log] == [
            n for t in range(3) for i in range(50) if i % 3 == t
            for n in (i, -i)
        ]

    def test_schedule_returns_no_handle(self, sim):
        assert sim.schedule(1.0, lambda: None) is None
        assert sim.schedule_at(2.0, lambda: None) is None

    def test_events_processed_exact_after_capped_reentrant_run(self, sim):
        counts = []
        for t in (0.005, 0.008):
            sim.schedule(t, lambda: None)

        def greedy():
            sim.schedule(0.001, lambda: None)   # inside the nested run
            sim.schedule(0.05, lambda: None)    # beyond both runs
            sim.run(until=0.02)                 # re-entrant
            counts.append(sim.events_processed)

        sim.schedule(0.01, greedy)
        sim.schedule(0.03, lambda: None)
        sim.run(until=0.02)
        # The nested run returned with the two earlier events and the
        # one it ran counted; the outer event is counted once it ends.
        assert counts == [3]
        assert sim.events_processed == 4
        assert sim.now == 0.02
        sim.run()
        assert sim.events_processed == 6


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_max_events_cap(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_max_events_stop_keeps_the_clock_at_the_last_event(self, sim):
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda t=t: fired.append(t))
        sim.run(until=10.0, max_events=1)
        assert fired == [1.0]
        assert sim.now == 1.0
        sim.schedule_at(2.5, lambda: fired.append(2.5))
        sim.run(until=10.0)
        assert fired == [1.0, 2.0, 2.5, 3.0]
        assert sim.now == 10.0

    def test_max_events_stop_before_a_later_event_reaches_until(self, sim):
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(20.0, lambda: None)
        sim.run(until=10.0, max_events=1)
        assert sim.now == 10.0
        assert sim.pending == 1

    def test_schedule_every_respects_until(self, sim):
        ticks = []
        sim.schedule_every(1.0, lambda: ticks.append(sim.now), until=3.5)
        sim.run()
        assert ticks == [1.0, 2.0, 3.0]

    def test_schedule_every_rejects_nonpositive(self, sim):
        with pytest.raises(ValueError):
            sim.schedule_every(0.0, lambda: None)

    def test_reset(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending == 0
        assert sim.events_processed == 0
        # The kernel stays usable after a reset.
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0]

    def test_determinism(self, sim):
        def run_once(s):
            out = []
            s.schedule_every(0.3, lambda: out.append(round(s.now, 9)),
                             until=2.0)
            s.schedule(0.9, lambda: out.append("mark"))
            s.run()
            return out

        first = run_once(sim)
        sim.reset()
        assert run_once(sim) == first
