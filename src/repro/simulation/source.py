"""Traffic sources with BCN rate regulators (congestion reaction points).

Each source emits fixed-size frames paced at its current rate ``r`` and
hosts a **rate regulator** — the congestion reaction point of Section
II.B, usually located in the edge NIC.  On receiving a BCN message the
regulator applies the modified AIMD of eq. (2)::

    r <- r + Gi * Ru * sigma        if sigma > 0   (additive increase)
    r <- r * (1 + Gd * sigma)       if sigma < 0   (multiplicative decrease)

A source receiving a *negative* BCN associates itself with the
congestion point named in the CPID field; its subsequent frames carry a
Rate Regulator Tag with that CPID so the switch can send it positive
feedback once the queue drains below ``q0``.  The association is
released when the regulator's rate recovers to the line rate.

Draft vs fluid semantics
------------------------
The draft states eq. (2) per *message* with a quantized FB field, while
the fluid model (eq. 7) reads the same laws per *unit time* with sigma
in bits.  :class:`RateRegulator` supports both (see its docstring); the
fluid modes integrate the per-flow law over the time elapsed since the
flow's previous BCN message, which converges to eq. (7) in the
fluid limit and is what the fluid-vs-packet validation experiments use.
"""

from __future__ import annotations

import math
from typing import Callable

from .engine import Simulator
from .frames import BCNMessage, EthernetFrame, PauseFrame

__all__ = ["REGULATOR_MODES", "RateRegulator", "TrafficSource",
           "expected_message_interval", "rate_law"]

#: :class:`RateRegulator` modes and the codes :func:`rate_law` and the
#: kernels take for them.
REGULATOR_MODES = {"message": 0, "fluid-euler": 1, "fluid-exact": 2}


def rate_law(mode, gi, gd, ru, max_dt, min_rate, line_rate, rate,
             last_update, now, fb, sigma):
    """One BCN message at a reaction point: eq. (2) or eq. (7).

    Mode 0 applies the wire FB ``fb`` once; modes 1 (Euler) and 2
    (exact) integrate the raw ``sigma`` over the time since
    ``last_update``, capped at ``max_dt``.  A NaN ``last_update`` means
    never updated (no time has passed) and a NaN ``max_dt`` means no
    cap.  Returns ``(rate, last_update, hold)``: the new rate clamped to
    ``[min_rate, line_rate]``, the new update time, and ``hold``: True
    when negative feedback associates the source with the sender's
    congestion point, False when the rate is back at the line rate (the
    association is released), else None.  Every python engine applies
    BCN through this function; the C kernels' ``bcn_rate_step`` is its
    compiled twin.
    """
    if mode == 0:
        sign = fb
        if fb > 0:
            rate += gi * ru * fb
        elif fb < 0:
            rate *= max(1.0 + gd * fb, 0.0)
    else:
        sign = sigma
        dt = min(0.0 if last_update != last_update else now - last_update,
                 max_dt)
        last_update = now
        if sigma > 0:
            rate += gi * ru * sigma * dt
        elif sigma < 0:
            if mode == 2:
                rate *= math.exp(gd * sigma * dt)
            else:
                rate *= max(1.0 + gd * sigma * dt, 0.0)
    rate = min(max(rate, min_rate), line_rate)
    if sign < 0:
        return rate, last_update, True
    return rate, last_update, False if rate >= line_rate else None


class RateRegulator:
    """The BCN congestion reaction point: AIMD state for one source.

    Three update semantics are supported (``mode``):

    ``"message"`` (draft semantics, the default)
        Eq. (2) applied literally per BCN message, with ``fb`` being the
        FB field as carried on the wire (quantized by the switch when
        quantization is enabled): ``r += Gi*Ru*fb`` on positive feedback
        and ``r *= (1 + Gd*fb)`` on negative.  The draft's recommended
        gains are calibrated for this mode — e.g. ``Gd = 1/128`` with a
        6-bit FB (max magnitude 64) caps a single decrease at 50%.
    ``"fluid-euler"``
        The fluid laws of eq. (7) integrated with an explicit Euler step
        over the time since this regulator's previous update:
        ``r += Gi*Ru*sigma*dt`` / ``r *= (1 + Gd*sigma*dt)``.  Matches
        the fluid model only while ``|Gd*sigma*dt| << 1``.
    ``"fluid-exact"``
        Same, but the multiplicative decrease integrates exactly:
        ``r *= exp(Gd*sigma*dt)`` — unconditionally positive and stable
        for any message spacing; preferred for fluid-vs-packet
        validation.  Both fluid modes read the *raw* sigma in bits
        (``fb_raw``), not the quantized FB field.

    ``max_dt=None`` (no cap) is stored as NaN, and a regulator that was
    never updated has a NaN ``_last_update``: :func:`rate_law`'s
    conventions.
    """

    def __init__(
        self,
        *,
        gi: float,
        gd: float,
        ru: float,
        initial_rate: float,
        min_rate: float,
        line_rate: float,
        mode: str = "message",
        max_dt: float | None = None,
    ) -> None:
        if initial_rate <= 0:
            raise ValueError("initial_rate must be positive")
        if not 0 < min_rate <= line_rate:
            raise ValueError("need 0 < min_rate <= line_rate")
        if mode not in REGULATOR_MODES:
            raise ValueError(f"unknown regulator mode {mode!r}")
        self.gi = gi
        self.gd = gd
        self.ru = ru
        self.mode = mode
        self.min_rate = min_rate
        self.line_rate = line_rate
        self.rate = min(initial_rate, line_rate)
        self.max_dt = math.nan if max_dt is None else max_dt
        self.associated_cpid: str | None = None
        self.updates_applied = 0
        self._last_update = math.nan

    def apply(self, message: BCNMessage, now: float = 0.0) -> None:
        """Apply eq. (2) / eq. (7) to this regulator's rate."""
        self.rate, self._last_update, hold = rate_law(
            REGULATOR_MODES[self.mode], self.gi, self.gd, self.ru,
            self.max_dt, self.min_rate, self.line_rate, self.rate,
            self._last_update, now, message.fb, message.fb_raw)
        self.updates_applied += 1
        if hold is not None:
            self.associated_cpid = message.cpid if hold else None


class TrafficSource:
    """A paced constant-size-frame source with a BCN rate regulator.

    Parameters
    ----------
    sim:
        Event engine.
    address:
        Source address (matched against BCN ``da``).
    frame_bits:
        Data frame size (default 1500 bytes).
    regulator:
        The AIMD state; the source paces at ``regulator.rate``.
    send:
        Callback carrying each emitted frame to the first hop.
    start_time:
        Simulation time at which the source begins pacing (dynamic
        workloads schedule arrivals here; 0.0 = active from the start).
    on_rate_change:
        Optional observer invoked as ``(time, rate)`` after every BCN
        update, used by the recorder.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        address: int,
        regulator: RateRegulator,
        send: Callable[[EthernetFrame], None],
        frame_bits: int = 1500 * 8,
        dst: str = "sink",
        total_bits: float | None = None,
        start_time: float = 0.0,
        on_rate_change: Callable[[float, float], None] | None = None,
    ) -> None:
        if start_time < 0:
            raise ValueError("start_time cannot be negative")
        self.sim = sim
        self.address = address
        self.regulator = regulator
        self.send = send
        self.frame_bits = frame_bits
        self.dst = dst
        self.total_bits = total_bits
        self.start_time = start_time
        self.on_rate_change = on_rate_change
        self.frames_sent = 0
        self.bits_sent = 0.0
        self.paused_until = 0.0
        self._started = False
        self.muted = False  # on/off workloads toggle this
        #: Emission time of a finite flow's last frame (None until then).
        self.finish_time: float | None = None

    # -- data plane -------------------------------------------------------

    def start(self) -> None:
        """Begin pacing frames at the regulator's current rate."""
        if self._started:
            return
        self._started = True
        self.sim.schedule(self.frame_bits / self.regulator.rate, self._emit)

    @property
    def finished(self) -> bool:
        """True once a finite flow has sent all its bits."""
        return self.total_bits is not None and self.bits_sent >= self.total_bits

    def _emit(self) -> None:
        # The hottest callback of the reference engine: ``finished`` and
        # the frame gap are inlined and the frame is built positionally.
        sim = self.sim
        now = sim._now
        total_bits = self.total_bits
        if total_bits is not None and self.bits_sent >= total_bits:
            return
        frame_bits = self.frame_bits
        regulator = self.regulator
        if self.muted:
            # OFF period: poll again after one frame gap at current rate.
            sim.schedule(frame_bits / regulator.rate, self._emit)
            return
        if now < self.paused_until:
            # PAUSEd: retry right after the silence interval ends.
            sim.schedule_at(self.paused_until, self._emit)
            return
        address = self.address
        self.send(EthernetFrame(address, self.dst, frame_bits, address,
                                regulator.associated_cpid, now))
        self.frames_sent += 1
        self.bits_sent += frame_bits
        if total_bits is not None and self.bits_sent >= total_bits:
            # Send-side flow completion time (emission of the last
            # frame) — the FCT convention shared with the batched engine.
            self.finish_time = now
            return
        sim.schedule(frame_bits / regulator.rate, self._emit)

    # -- control plane ------------------------------------------------------

    def receive_control(self, message: BCNMessage | PauseFrame) -> None:
        """Handle a backward control frame (BCN or PAUSE)."""
        if isinstance(message, PauseFrame):
            self.paused_until = max(
                self.paused_until, self.sim.now + message.duration
            )
            return
        self.regulator.apply(message, self.sim.now)
        if self.on_rate_change is not None:
            self.on_rate_change(self.sim.now, self.regulator.rate)

    @property
    def rate(self) -> float:
        """Current regulated sending rate in bits/s."""
        return self.regulator.rate


def expected_message_interval(
    n_flows: int, frame_bits: int, pm: float, capacity: float
) -> float:
    """Expected BCN inter-message time for a flow at the fair rate.

    A flow sending at ``C/N`` is sampled every ``L / (pm * C/N)
    = N L / (pm C)`` seconds.  Useful as a ``max_dt`` cap for the fluid
    regulator modes and for sizing recorder intervals.
    """
    if n_flows < 1 or frame_bits <= 0 or not 0 < pm <= 1 or capacity <= 0:
        raise ValueError("invalid inputs")
    return n_flows * frame_bits / (pm * capacity)
