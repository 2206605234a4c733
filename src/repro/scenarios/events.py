"""Declarative scenario events and the :class:`Scenario` container.

A scenario is a *plan*: a base parameter point, a run horizon, and a
canonically ordered tuple of timed events — dynamic flow arrivals and
departures, synchronized incast bursts, link outages, and piecewise
time-varying capacity ``C(t)``.  Nothing here touches a simulator; the
plan is interpreted against either packet engine by
:func:`repro.scenarios.runtime.run_scenario`, which is what makes the
reference/batched conformance suite possible: both engines execute the
*same* declarative schedule.

Event ordering is part of the contract: :class:`Scenario` sorts its
events into a canonical total order ``(time, kind rank, fields)`` at
construction, so two scenarios built from the same event *set* — in any
order — are identical objects (the permutation-invariance property the
test suite checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from ..core.parameters import BCNParams, _require_positive_finite

__all__ = [
    "FlowArrival",
    "FlowDeparture",
    "IncastBurst",
    "LinkOutage",
    "CapacityChange",
    "Scenario",
    "sinusoidal_capacity",
    "piecewise_capacity",
]


def _require_time(t: float) -> None:
    if not (isinstance(t, (int, float)) and math.isfinite(t)) or t < 0:
        raise ValueError(f"event time must be a finite non-negative number, got {t!r}")


@dataclass(frozen=True)
class FlowArrival:
    """A dynamic flow arriving at ``t``.

    The flow sends at up to ``demand`` bits/s; with ``size_bits`` set it
    is a finite "mouse" that departs (and records its FCT) after sending
    that many bits, otherwise it persists to the end of the run.
    """

    t: float
    demand: float
    size_bits: float | None = None

    def __post_init__(self) -> None:
        _require_time(self.t)
        if self.demand <= 0:
            raise ValueError("demand must be positive")
        if self.size_bits is not None and self.size_bits <= 0:
            raise ValueError("size_bits must be positive when given")


@dataclass(frozen=True)
class FlowDeparture:
    """Permanently mute base source ``address`` at ``t``.

    Departure leaves the regulator state in place (its rate still counts
    toward the recorded aggregate in both engines) but stops emissions.
    """

    t: float
    address: int

    def __post_init__(self) -> None:
        _require_time(self.t)
        if self.address < 0:
            raise ValueError("address must be non-negative")


@dataclass(frozen=True)
class IncastBurst:
    """``n_servers`` synchronized finite responses starting at ``t``.

    The partition/aggregate fan-in: every server answers one client at
    once with ``response_bits``, each pacing at up to ``demand`` bits/s —
    the classic queue-buildup/PAUSE stress case.
    """

    t: float
    n_servers: int
    response_bits: float
    demand: float

    def __post_init__(self) -> None:
        _require_time(self.t)
        if self.n_servers < 1:
            raise ValueError("n_servers must be at least 1")
        if self.response_bits <= 0 or self.demand <= 0:
            raise ValueError("response_bits and demand must be positive")


@dataclass(frozen=True)
class LinkOutage:
    """Bottleneck egress blackout over ``[t, t + duration)``.

    Store-and-forward semantics in both engines: the in-flight frame
    completes, no new service starts, arrivals keep queueing (and
    dropping once the buffer fills).
    """

    t: float
    duration: float

    def __post_init__(self) -> None:
        _require_time(self.t)
        if self.duration <= 0:
            raise ValueError("duration must be positive")


@dataclass(frozen=True)
class CapacityChange:
    """Set the bottleneck service rate to ``capacity`` at ``t``."""

    t: float
    capacity: float

    def __post_init__(self) -> None:
        _require_time(self.t)
        _require_positive_finite("capacity", self.capacity)


#: Canonical same-timestamp ordering: capacity and outage state flips
#: apply before traffic-population changes, arrivals before departures.
_KIND_RANK = {
    CapacityChange: 0,
    LinkOutage: 1,
    IncastBurst: 2,
    FlowArrival: 3,
    FlowDeparture: 4,
}

ScenarioEvent = (
    FlowArrival | FlowDeparture | IncastBurst | LinkOutage | CapacityChange
)


def _event_sort_key(event) -> tuple:
    return (
        event.t,
        _KIND_RANK[type(event)],
        tuple(
            (f.name, getattr(event, f.name))
            for f in fields(event)
            if getattr(event, f.name) is not None
        ),
    )


@dataclass(frozen=True)
class Scenario:
    """A named, declarative, engine-agnostic experiment plan.

    Attributes
    ----------
    name:
        Scenario identifier (preset name, or anything descriptive).
    params:
        Base :class:`~repro.core.parameters.BCNParams` — the persistent
        "elephant" population and the switch configuration.
    duration:
        Run horizon in seconds.
    events:
        Timed events, canonically re-sorted at construction (see the
        module docstring); events scheduled at or beyond ``duration``
        never fire.
    frame_bits:
        Data frame size shared by every flow.
    seed:
        The seed the preset was built with (recorded for provenance;
        the plan itself is fully deterministic once built).
    """

    name: str
    params: BCNParams
    duration: float
    events: tuple[ScenarioEvent, ...] = ()
    frame_bits: int = 12_000
    seed: int = 0
    enable_pause: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name cannot be empty")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.frame_bits <= 0:
            raise ValueError("frame_bits must be positive")
        for event in self.events:
            if type(event) not in _KIND_RANK:
                raise TypeError(f"unknown scenario event {event!r}")
            if isinstance(event, FlowDeparture) \
                    and event.address >= self.params.n_flows:
                raise ValueError(
                    f"departure of source {event.address} but the base "
                    f"population has only {self.params.n_flows} flows"
                )
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=_event_sort_key))
        )

    def with_(self, **overrides) -> "Scenario":
        """A copy with fields replaced (re-validates and re-sorts)."""
        return replace(self, **overrides)

    # -- derived views -----------------------------------------------------

    def capacity_profile(self) -> list[tuple[float, float]]:
        """The piecewise-constant ``C(t)`` as ``[(t, capacity), ...]``.

        Starts with ``(0, params.capacity)``; one entry per
        :class:`CapacityChange` inside the horizon.  Outages are *not*
        folded in (they suspend service without changing the rate).
        """
        profile = [(0.0, self.params.capacity)]
        for event in self.events:
            if isinstance(event, CapacityChange) and event.t < self.duration:
                profile.append((event.t, event.capacity))
        return profile

    def capacity_integral(self) -> float:
        """``∫ C(t) dt`` over the horizon, outage windows excluded.

        The denominator for utilisation under time-varying capacity:
        the bits the bottleneck *could* have served.
        """
        profile = self.capacity_profile()
        times = [t for t, _ in profile] + [self.duration]
        total = sum(
            c * (times[i + 1] - times[i])
            for i, (_, c) in enumerate(profile)
        )
        # Subtract capacity lost to outages (service is frozen there).
        for event in self.events:
            if isinstance(event, LinkOutage) and event.t < self.duration:
                lo = event.t
                hi = min(event.t + event.duration, self.duration)
                total -= sum(
                    c * max(0.0, min(hi, times[i + 1]) - max(lo, times[i]))
                    for i, (_, c) in enumerate(profile)
                )
        return total

    def n_capacity_transitions(self) -> int:
        """How many ``C(t)`` changes fire inside the horizon."""
        return sum(
            1 for e in self.events
            if isinstance(e, CapacityChange) and e.t < self.duration
        )

    def dynamic_flow_count(self) -> int:
        """Sources added on top of the base population."""
        return sum(
            e.n_servers if isinstance(e, IncastBurst) else 1
            for e in self.events
            if isinstance(e, (FlowArrival, IncastBurst))
        )


def piecewise_capacity(steps: list[tuple[float, float]]) -> tuple[CapacityChange, ...]:
    """Turn ``[(t, C), ...]`` into a tuple of :class:`CapacityChange`."""
    return tuple(CapacityChange(t=t, capacity=c) for t, c in steps)


def sinusoidal_capacity(
    *,
    base: float,
    amplitude: float,
    period: float,
    t_start: float,
    t_end: float,
    steps: int = 8,
) -> tuple[CapacityChange, ...]:
    """A piecewise-constant approximation of sinusoidal ``C(t)``.

    ``steps`` capacity changes over ``[t_start, t_end)``, each holding
    ``base + amplitude * sin(2*pi*(t - t_start)/period)`` sampled at the
    step start.  The last step is followed by a restore to ``base`` at
    ``t_end`` (so the profile returns to nominal).
    """
    if amplitude >= base:
        raise ValueError("amplitude must stay below base (C > 0 everywhere)")
    if t_end <= t_start:
        raise ValueError("need t_end > t_start")
    if steps < 2:
        raise ValueError("need at least two steps")
    dt = (t_end - t_start) / steps
    changes = [
        CapacityChange(
            t=t_start + k * dt,
            capacity=base + amplitude * math.sin(
                2.0 * math.pi * (k * dt) / period
            ),
        )
        for k in range(steps)
    ]
    changes.append(CapacityChange(t=t_end, capacity=base))
    return tuple(changes)
