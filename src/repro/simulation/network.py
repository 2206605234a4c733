"""Single-bottleneck (dumbbell) BCN network simulator.

Wires the paper's reference scenario (Fig. 1): ``N`` homogeneous sources
behind edge rate regulators, one core switch with a BCN congestion
point, and a sink — all over links with configurable propagation delay.
:class:`BCNNetworkSimulator` builds the network from a
:class:`~repro.core.parameters.BCNParams`, runs it, and returns a
:class:`SimulationResult` with the queue trajectory, per-source rates,
drop/PAUSE/BCN counters and derived metrics (utilisation, Jain fairness,
peak queue), ready to be compared against the fluid model.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass

import numpy as np

from ..core.parameters import BCNParams, _require_positive_finite
from . import event_core
from .engine import Simulator
from .frames import EthernetFrame, PauseFrame
from .link import Link
from .source import (REGULATOR_MODES, RateRegulator, TrafficSource,
                     expected_message_interval)
from .switch import BatchedSwitchKernel, CoreSwitch

__all__ = ["SimulationResult", "BCNNetworkSimulator", "PACKET_ENGINES"]

#: Selectable packet engines: the event-driven oracle, and the frame-train
#: window loop on the numpy tier (``batched``) or on the best available
#: ``repro.kernels`` tier (``compiled``).
PACKET_ENGINES = ("reference", "batched", "compiled")


class _SeriesBuffer:
    """An appendable ``(t, value)`` series backed by growable arrays.

    The recorder used to collect Python lists of tuples and convert
    them element-by-element at the end of a run; this keeps the samples
    in preallocated float arrays (doubling on overflow) and hands back
    views with a single slice.
    """

    def __init__(self, capacity: int = 256) -> None:
        self._t = np.empty(max(capacity, 16))
        self._v = np.empty(max(capacity, 16))
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def _grow(self, need: int) -> None:
        capacity = self._t.size
        while capacity < need:
            capacity *= 2
        t = np.empty(capacity)
        v = np.empty(capacity)
        t[: self._n] = self._t[: self._n]
        v[: self._n] = self._v[: self._n]
        self._t, self._v = t, v

    def append(self, t: float, value: float) -> None:
        if self._n == self._t.size:
            self._grow(self._n + 1)
        self._t[self._n] = t
        self._v[self._n] = value
        self._n += 1

    def extend(self, t: np.ndarray, values: np.ndarray) -> None:
        n = self._n + t.size
        if n > self._t.size:
            self._grow(n)
        self._t[self._n : n] = t
        self._v[self._n : n] = values
        self._n = n

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._t[: self._n].copy(), self._v[: self._n].copy()


@dataclass
class SimulationResult:
    """Outcome of a packet-level run.

    Attributes
    ----------
    t, queue:
        Sampled queue-length series (seconds, bits).
    rate_t, rate_total:
        Sampled aggregate offered rate series (sum of regulator rates).
    per_source_rate:
        Final per-source rates in bits/s.
    dropped_frames, forwarded_frames:
        Bottleneck counters.
    bcn_negative, bcn_positive, pauses:
        Control-plane counters.
    delivered_bits:
        Bits serviced by the bottleneck over the run.
    duration:
        Simulated horizon in seconds.
    """

    t: np.ndarray
    queue: np.ndarray
    rate_t: np.ndarray
    rate_total: np.ndarray
    per_source_rate: np.ndarray
    dropped_frames: int
    forwarded_frames: int
    bcn_negative: int
    bcn_positive: int
    pauses: int
    delivered_bits: float
    duration: float
    capacity: float

    def utilization(self) -> float:
        """Bottleneck utilisation over the whole run.

        ``delivered_bits / (capacity * duration)``.  The result keeps
        only the run's total delivered bits, so a utilisation over a
        sub-window cannot be computed from it.
        """
        return self.delivered_bits / (self.capacity * self.duration)

    def jain_fairness(self) -> float:
        """Jain's fairness index of the final per-source rates."""
        r = self.per_source_rate
        if r.size == 0 or float(np.sum(r * r)) == 0.0:
            return 1.0
        return float(np.sum(r)) ** 2 / (r.size * float(np.sum(r * r)))

    def queue_peak(self) -> float:
        return float(self.queue.max()) if self.queue.size else 0.0

    def queue_mean(self, *, settle: float = 0.0) -> float:
        mask = self.t >= settle
        return float(self.queue[mask].mean()) if mask.any() else 0.0

    def queue_std(self, *, settle: float = 0.0) -> float:
        mask = self.t >= settle
        return float(self.queue[mask].std()) if mask.any() else 0.0


def _require_event_time(t: float) -> None:
    # NaN compares false against every event and instant, so a NaN
    # time would fire at an arbitrary point of the heap.
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(
            f"event time must be finite and non-negative, got {t!r}")


class BCNNetworkSimulator:
    """Builds and runs the dumbbell BCN scenario of Fig. 1.

    Parameters
    ----------
    params:
        Physical BCN parameters (capacity, gains, thresholds...).
    frame_bits:
        Data frame size; default 1500 bytes.
    propagation_delay:
        One-way link delay (data and control paths alike); the paper's
        model takes it negligible, default 0.5 us as in the Section IV
        example.
    initial_rate:
        Per-source starting rate; defaults to 1.5x the fair share so
        congestion forms and the BCN loop engages.
    regulator_mode:
        ``"message"`` (draft per-message AIMD on the quantized FB
        field), ``"fluid-euler"`` or ``"fluid-exact"`` (integrate the
        fluid laws between messages); see
        :class:`repro.simulation.source.RateRegulator`.
    fb_bits:
        FB quantization width at the switch (None = raw sigma).
    require_association:
        Gate positive BCN on RRT/CPID match (draft behaviour); set
        False for the paper's idealised unconditional positive feedback.
    enable_pause:
        Wire 802.3x PAUSE from the core switch back to the sources.
    queue_sample_interval:
        Recorder period for the queue series; defaults to 50 service
        times.
    engine:
        ``"reference"`` (the event-driven kernel, one callback per
        frame — the differential oracle), ``"batched"`` (frame-train
        batching: sources plan whole emission trains and the switch
        drains them window by window, on the numpy kernel tier) or
        ``"compiled"`` (the same window loop on
        :func:`repro.kernels.get_backend`'s tier — C when a compiler is
        available, else numpy).  ``batched`` and ``compiled`` produce
        bit-identical results.  All engines are deterministic; the
        window loop agrees with the reference within a documented
        tolerance — it computes queue/sigma/sampling exactly but
        applies control messages to the regulators at window
        boundaries, so rate changes can lag their reference timing by
        up to one ``control_quantum``.  The reference engine runs in
        one of two places with the same result: when
        :func:`repro.kernels.get_backend`'s tier is compiled, a fresh
        network wired as built here runs its events on the C event
        core (:mod:`repro.simulation.event_core`), bit for bit;
        otherwise (numpy tier, or a network the core does not model:
        an ``on_rate_change`` observer, a replaced callback, several
        frame sizes...) the python :class:`Simulator` loop runs.
    control_quantum:
        Window length for the batched and compiled engines; defaults to
        twice the expected BCN inter-message time (small enough that
        the compensated regulator lag stays well below the control loop
        period, large enough to amortize the per-window overhead).
        Must be finite and positive.
    obs:
        Optional :class:`repro.obs.Observability` handle.  The switch
        emits ``bcn``/``pause_on``/``pause_off``/``drop`` events live
        under ``engine="packet.<engine>"``; :meth:`run` adds a
        ``packet.<engine>.run`` span, derives ``region_switch`` events
        from the sampled sigma history and fills the normalised queue
        histograms from the recorder series.
    """

    def __init__(
        self,
        params: BCNParams,
        *,
        frame_bits: int = 1500 * 8,
        propagation_delay: float = 0.5e-6,
        initial_rate: float | None = None,
        regulator_mode: str = "message",
        fb_bits: int | None = 6,
        min_rate: float | None = None,
        enable_pause: bool = True,
        pause_duration: float = 50e-6,
        queue_sample_interval: float | None = None,
        require_association: bool = True,
        positive_only_below_q0: bool = True,
        random_sampling: bool = False,
        engine: str = "reference",
        control_quantum: float | None = None,
        obs=None,
    ) -> None:
        if engine not in PACKET_ENGINES:
            raise ValueError(
                f"unknown packet engine {engine!r}; pick from {PACKET_ENGINES}"
            )
        if control_quantum is not None:
            _require_positive_finite("control_quantum", control_quantum)
        self.params = params
        self.frame_bits = frame_bits
        self.engine = engine
        self.sim = Simulator()
        self._propagation_delay = propagation_delay
        self._enable_pause = enable_pause
        self._pause_duration = pause_duration
        self._quantum_explicit = control_quantum is not None
        if control_quantum is None:
            # Auto window: the fluid regulator modes integrate feedback
            # over elapsed time, so the owed-bits pacing compensation
            # keeps two message intervals per window accurate; message
            # mode takes large per-message rate jumps (up to 50% each),
            # so halve the window to keep the boundary-application lag
            # inside the documented tolerance.
            emi = expected_message_interval(
                params.n_flows, frame_bits, params.pm, params.capacity
            )
            control_quantum = emi if regulator_mode == "message" else 2.0 * emi
        self._control_quantum = control_quantum
        if initial_rate is None:
            # Start in mild overload so the BCN loop engages: at exactly
            # the fair share the queue never builds and (per the draft)
            # no source ever associates with the congestion point.
            initial_rate = 1.5 * params.capacity / params.n_flows
        if min_rate is None:
            min_rate = min(1e6, initial_rate)
        self._regulator_mode = regulator_mode
        self._initial_rate = initial_rate
        self._min_rate = min_rate
        #: Timed events ``(t, seq, kind, payload)`` injected by the
        #: scenario layer; ``seq`` preserves registration order among
        #: same-timestamp events (see :meth:`schedule_capacity`).
        self._timed_events: list[tuple[float, int, str, tuple]] = []
        #: How many timed events and sources already have their events
        #: on the heap: a later :meth:`run` continues the same heap and
        #: schedules only the events and flows registered since.
        self._armed = (0, 0)
        #: Set by a window engine's run, which cannot be continued.
        self._windows_ran = False
        self._queue_dt = (
            queue_sample_interval
            if queue_sample_interval is not None
            else 50 * frame_bits / params.capacity
        )

        self.switch = CoreSwitch(
            self.sim,
            cpid="core-0",
            capacity=params.capacity,
            q0=params.q0,
            buffer_bits=params.buffer_size,
            w=params.w,
            pm=params.pm,
            q_sc=params.severe_threshold if enable_pause else None,
            pause_duration=pause_duration,
            forward=self._deliver,
            require_association=require_association,
            positive_only_below_q0=positive_only_below_q0,
            fb_bits=fb_bits,
            random_sampling=random_sampling,
        )
        self.obs = obs if (obs is not None and obs.enabled) else None
        self.switch.attach_obs(self.obs, f"packet.{engine}")

        self.sources: list[TrafficSource] = []
        #: Each source's data link to the switch, by source address; its
        #: ``delay`` may be changed before :meth:`run` (heterogeneous
        #: propagation delays, reference engine).
        self.uplinks: list[Link] = []
        self._delivered_bits = 0.0
        self._queue_samples = _SeriesBuffer()
        self._rate_samples = _SeriesBuffer()
        #: Test hook of the C event core: a bytearray here receives one
        #: ``<ddqd`` row of (now, occupancy, forwarded frames, sum of
        #: rates) per executed event (see ``event_core``).
        self._event_digest: bytearray | None = None

        for _ in range(params.n_flows):
            self._wire_source(initial_rate, min_rate, params.capacity)

    # -- internal ------------------------------------------------------------

    def _wire_source(self, rate: float, min_rate: float, line_rate: float,
                     **source_kwargs) -> TrafficSource:
        """Add the next source: its regulator under the network's BCN law,
        its uplink to the switch and its backlink for BCN and PAUSE."""
        params = self.params
        regulator = RateRegulator(
            gi=params.gi, gd=params.gd, ru=params.ru, initial_rate=rate,
            min_rate=min_rate, line_rate=line_rate,
            mode=self._regulator_mode,
            max_dt=4.0 * expected_message_interval(
                params.n_flows, self.frame_bits, params.pm, params.capacity),
        )
        address = len(self.sources)
        uplink = Link(self.sim, self._propagation_delay, self.switch.receive)
        source = TrafficSource(self.sim, address=address, regulator=regulator,
                               send=uplink.transmit,
                               frame_bits=self.frame_bits, **source_kwargs)
        backlink = Link(self.sim, self._propagation_delay,
                        source.receive_control)
        self.switch.register_bcn_link(address, backlink)
        if self._enable_pause:
            self.switch.register_pause_link(backlink)
        self.sources.append(source)
        self.uplinks.append(uplink)
        return source

    def _deliver(self, frame: EthernetFrame) -> None:
        self._delivered_bits += frame.size_bits

    def _record(self) -> None:
        self._queue_samples.append(self.sim.now, self.switch.queue_bits)
        total_rate = sum(s.rate for s in self.sources)
        self._rate_samples.append(self.sim.now, total_rate)

    # -- scenario hooks: dynamic flows and timed events -------------------

    def add_flow(
        self,
        *,
        start_time: float = 0.0,
        demand: float | None = None,
        size_bits: float | None = None,
    ) -> TrafficSource:
        """Add a dynamic flow (declared before :meth:`run`).

        The flow's source starts pacing at ``start_time``, sends at up
        to ``demand`` bits/s (default: the base initial rate) under the
        same BCN regulator laws as the built-in sources, and — when
        ``size_bits`` is given — stops after that many bits, recording
        its send-side completion in ``TrafficSource.finish_time``.
        Both packet engines honour all three knobs identically.
        """
        if demand is None:
            demand = self._initial_rate
        if demand <= 0:
            raise ValueError("demand must be positive")
        return self._wire_source(demand, min(self._min_rate, demand), demand,
                                 total_bits=size_bits, start_time=start_time)

    def _register_event(self, t: float, kind: str, payload: tuple) -> None:
        _require_event_time(t)
        self._timed_events.append((t, len(self._timed_events), kind, payload))

    def schedule_capacity(self, t: float, capacity: float) -> None:
        """At time ``t`` change the bottleneck service rate to ``capacity``.

        Takes effect from the next service start (store-and-forward);
        the batched engine truncates its control window at ``t`` so the
        rate is constant within every window.  Same-timestamp events
        apply in registration order.
        """
        _require_positive_finite("capacity", capacity)
        self._register_event(t, "capacity", (capacity,))

    def schedule_outage(self, t: float, outage_duration: float) -> None:
        """Black out the bottleneck egress during ``[t, t + duration)``.

        The in-flight frame completes; no new service starts while the
        link is down.  Arrivals keep queueing and drop-tail keeps
        applying, so a long outage fills the buffer and drops.
        """
        _require_positive_finite("outage_duration", outage_duration)
        self._register_event(t, "outage", (outage_duration,))

    def schedule_departure(self, t: float, address: int) -> None:
        """At time ``t`` mute source ``address`` permanently.

        Departure is a permanent mute: the regulator state stays in
        place (its rate still counts toward the recorded aggregate,
        matching both engines) but no further frames are emitted.
        ``address`` may name a flow that :meth:`add_flow` adds later;
        :meth:`run` rejects one that no source has by then.
        """
        if not 0 <= address:
            raise ValueError("address must be non-negative")
        self._register_event(t, "departure", (address,))

    def _apply_event(self, kind: str, payload: tuple) -> None:
        """Apply one timed event (reference engine, at its sim time)."""
        if kind == "capacity":
            self.switch.set_capacity(payload[0])
        elif kind == "outage":
            self.switch.suspend_service(self.sim.now + payload[0])
        elif kind == "departure":
            self.sources[payload[0]].muted = True
        else:  # pragma: no cover - _register_event controls the kinds
            raise ValueError(f"unknown event kind {kind!r}")

    def _run_windows(self, duration: float, be) -> None:
        """Drive the scenario with frame-train batching on backend ``be``.

        The run advances in control-quantum windows.  Within a window
        every regulator's rate is frozen, so each source contributes an
        arithmetic emission train (its pending emission, then one frame
        gap apart, deferred past a PAUSE and capped at a finite flow's
        remaining frames; held across sources in struct-of-array state,
        see the backend's ``bind_pacing_plan``); the trains merge into
        one sorted train that goes through the switch window kernel,
        which returns the BCN messages (and possibly a PAUSE) the window
        generated.  Control is delivered to the sources at the window
        boundary with its true timestamps — the regulator arithmetic
        (including the fluid modes' ``dt`` integration) is exact, but a
        rate update takes effect on pacing up to one window later than
        under the reference engine.  The first-order part of that lag is
        compensated: each update books the bits the new rate would have
        (not) sent before the boundary and shifts the source's next
        emission to repay them, so the emitted bit count tracks the
        reference pacing to second order in the quantum.  A PAUSE
        truncates the window so its boundary stays sharp; a window where
        drop-tail engages is replayed frame-by-frame by the kernel's
        exact scalar fallback.

        Timed events (:meth:`schedule_capacity`, :meth:`schedule_outage`,
        :meth:`schedule_departure`) are additional window boundaries:
        ``t_end`` clamps to the next event time, the event applies when
        the clock lands exactly on it, and the per-source state arrays
        are re-synced before the next window is planned.  Dynamic flows
        (``start_time`` / ``total_bits``) need no boundary — a start
        mid-window is just a later first emission of the arithmetic
        train, and finite flows cap their train at the frames they have
        left.

        The backend supplies the hot loops as bound closures (see
        :class:`~repro.kernels.KernelBackend`): pacing plan, train
        merge, pacing commit, owed-bits repayment and message delivery,
        and the switch window's plan, commit and per-frame drop loop,
        which a :class:`BatchedSwitchKernel` bound to the same backend
        drives; the numpy and C tiers differ only in those closures.  Message
        delivery updates struct-of-array regulator state (folded back
        into the :class:`RateRegulator` objects at the end of the run),
        so every source must share one regulator law and none may carry
        an ``on_rate_change`` observer.
        """
        if any(s.muted for s in self.sources):
            raise NotImplementedError(
                f"the {self.engine} engine cannot pace initially-muted "
                "(on/off) sources; use engine='reference' for those "
                "workloads"
            )
        d = self._propagation_delay
        if any(link.delay != d for link in self.uplinks):
            raise NotImplementedError(
                f"the {self.engine} engine models one propagation delay; "
                "per-source uplink delays need engine='reference'"
            )
        regs = [s.regulator for s in self.sources]
        reg0 = regs[0]
        if any(
            s.on_rate_change is not None
            or (r.gi, r.gd, r.ru, r.mode, r.max_dt)
            != (reg0.gi, reg0.gd, reg0.ru, reg0.mode, reg0.max_dt)
            for s, r in zip(self.sources, regs)
        ):
            raise NotImplementedError(
                f"the {self.engine} engine applies BCN with one regulator "
                "law for every source and no on_rate_change observer; use "
                "engine='reference' for per-source laws or observers"
            )
        L = float(self.frame_bits)
        n = len(self.sources)
        cpid = self.switch.cpid
        kernel_kwargs = dict(
            pause_fanout=n if self._enable_pause else 0,
            # Frames emitted before a PAUSE reaches their source (one
            # propagation delay control-path, then one data-path back)
            # are in flight and must land, as in the reference engine.
            pause_commit_horizon=2.0 * d,
        )
        kernel = BatchedSwitchKernel(self.switch, self.frame_bits,
                                     backend=be, **kernel_kwargs)
        self._batched_kernel = kernel
        # The auto quantum (2x the expected message interval) assumes the
        # run is long relative to the control loop; cap it so short runs
        # still get enough windows for the boundary-applied messages to
        # track the reference dynamics.  An explicit control_quantum is
        # always respected.
        quantum = self._control_quantum
        if not self._quantum_explicit:
            quantum = min(quantum, duration / 32.0)
        dt = self._queue_dt

        # Recorder grid mirroring the reference engine: one sample at
        # t=0, one per tick, and a final sample at `duration` (which
        # duplicates the last tick when duration is a tick multiple,
        # exactly as the event-driven recorder does).
        ticks = dt * np.arange(1, int(np.floor(duration / dt + 1e-9)) + 1)
        grid = np.concatenate([ticks[ticks <= duration], [duration]])
        grid_pos = 0
        self._record()

        # Pacing state, one slot per source, plus the struct-of-array
        # regulator mirror the message kernel updates in place:
        # ``rates``/``owed_bits`` serve both roles directly.
        rates = np.array([r.rate for r in regs])
        total_rate = float(rates.sum())
        gaps = L / rates
        # First emission one gap after each flow's start time.
        next_emit = np.array([s.start_time for s in self.sources]) + gaps
        paused = np.zeros(n)
        assoc8 = np.array(
            [1 if r.associated_cpid == cpid else 0 for r in regs],
            dtype=np.uint8,
        )
        #: Emitting sources; cleared on departure or flow completion.
        active = np.ones(n, dtype=bool)
        #: Frames each finite flow still has to send (inf = persistent).
        remaining = np.array([
            np.inf if s.total_bits is None
            else float(np.ceil(s.total_bits / L))
            for s in self.sources
        ])
        frames_acc = np.zeros(n, dtype=np.int64)
        owed_bits = np.zeros(n)  # lag-compensation ledger

        last_update = np.array([r._last_update for r in regs])
        updates = np.zeros(n, dtype=np.int64)
        min_rate_a = np.array([r.min_rate for r in regs])
        line_rate_a = np.array([r.line_rate for r in regs])
        reg_d = np.empty(1)

        events = sorted(self._timed_events)
        ev_pos = 0

        # Persistent per-window work buffers: passing the *same* array
        # objects to the kernels every window lets the cffi backend
        # cache its pointer casts (see ``_CffiKernels._ptr``).
        first = np.empty(n)
        counts = np.empty(n, dtype=np.int64)
        comm = np.empty(n, dtype=np.int64)
        fin_idx = np.empty(n, dtype=np.int64)
        fin_t = np.empty(n)
        merge_t = np.empty(max(64, 4 * n))
        merge_src = np.empty(merge_t.shape[0], dtype=np.int64)
        merge_assoc = np.empty(merge_t.shape[0], dtype=np.uint8)
        empty_t = np.empty(0)
        empty_src = np.empty(0, dtype=np.int64)
        empty_assoc = np.empty(0, dtype=np.uint8)
        # Sources with ``total_bits=None`` never finish, so the finish
        # bookkeeping can be skipped wholesale for pure-elephant runs.
        any_finite = 1 if np.isfinite(remaining).any() else 0

        # Bound closures: argument marshalling (and, on the cffi tier,
        # the pointer casts for every persistent array) happens once
        # here instead of on each of the ~10^3..10^5 window iterations.
        # Closures capture array *objects*, so any rebinding of the
        # arrays above must re-bind the closure too (see the merge
        # buffer growth branch below).
        bound_pacing_plan = be.bind_pacing_plan(
            next_emit, paused, active, remaining, gaps, first, counts)
        bound_merge = be.bind_merge_trains(
            first, gaps, counts, assoc8, merge_t, merge_src, merge_assoc)
        bound_pacing_commit = be.bind_pacing_commit(
            merge_src, first, gaps, counts, any_finite, next_emit,
            remaining, active, frames_acc, comm, fin_idx, fin_t)
        bound_owed = be.bind_owed_repay(owed_bits, next_emit, rates)
        bound_apply = be.bind_apply_messages(
            REGULATOR_MODES[reg0.mode], reg0.gi, reg0.gd, reg0.ru,
            reg0.max_dt, d,
            rates, last_update, assoc8, updates, min_rate_a,
            line_rate_a, owed_bits, reg_d)

        t = 0.0
        while t < duration:
            # Apply every timed event the clock has reached; each is a
            # window boundary, so normally ev_t == t exactly.
            while ev_pos < len(events) and events[ev_pos][0] <= t:
                ev_t, _, kind, payload = events[ev_pos]
                ev_pos += 1
                if kind == "capacity":
                    kernel.set_capacity(payload[0])
                elif kind == "outage":
                    kernel.freeze_until(ev_t + payload[0])
                elif kind == "departure":
                    self.sources[payload[0]].muted = True
                    active[payload[0]] = False
            next_ev = events[ev_pos][0] if ev_pos < len(events) else np.inf
            t_end = min(t + quantum, duration, next_ev)
            until = t_end - d
            total = int(bound_pacing_plan(until))
            if total:
                if total > merge_t.shape[0]:
                    merge_t = np.empty(2 * total)
                    merge_src = np.empty(2 * total, dtype=np.int64)
                    merge_assoc = np.empty(2 * total, dtype=np.uint8)
                    bound_merge = be.bind_merge_trains(
                        first, gaps, counts, assoc8,
                        merge_t, merge_src, merge_assoc)
                    bound_pacing_commit = be.bind_pacing_commit(
                        merge_src, first, gaps, counts, any_finite,
                        next_emit, remaining, active, frames_acc,
                        comm, fin_idx, fin_t)
                bound_merge(d)
                times = merge_t[:total]
                srcs = merge_src[:total]
                assoc = merge_assoc[:total]
            else:
                times, srcs, assoc = empty_t, empty_src, empty_assoc

            window = kernel.process(t, t_end, times, srcs, assoc)

            # Advance each source's pacing by its committed prefix while
            # the planning rate is still in force.
            n_fin = int(bound_pacing_commit(window.committed))
            for k in range(n_fin):
                self.sources[int(fin_idx[k])].finish_time = float(fin_t[k])
            self._delivered_bits += window.delivered_bits

            # Emit recorder samples covered by this window.
            hi = int(np.searchsorted(grid, window.t_commit, side="right"))
            if hi > grid_pos:
                pts = grid[grid_pos:hi]
                self._queue_samples.extend(pts, kernel.queue_at(pts))
                self._rate_samples.extend(
                    pts, np.full(pts.size, total_rate)
                )
                grid_pos = hi

            # Deliver the window's control plane in timestamp order.
            if window.msg_t.size:
                reg_d[0] = total_rate
                bound_apply(window.msg_t, window.msg_src,
                            window.msg_fb, window.msg_sigma,
                            window.t_commit)
                total_rate = float(reg_d[0])
                np.divide(L, rates, out=gaps)
            if window.pause_at is not None and self._enable_pause:
                self.sim._now = window.pause_at + d
                pause = PauseFrame(
                    sa=cpid,
                    duration=self._pause_duration,
                    sent_at=window.pause_at,
                )
                for i, source in enumerate(self.sources):
                    source.receive_control(pause)
                    paused[i] = source.paused_until

            bound_owed(until, np.nextafter(until, np.inf))

            t = window.t_commit

        for i, source in enumerate(self.sources):
            source.frames_sent += int(frames_acc[i])
            source.bits_sent += float(frames_acc[i]) * L
        # Fold the struct-of-array regulator state back into the
        # RateRegulator objects, so post-run inspection reads them as it
        # would after the reference engine's per-message delivery.
        for i, reg in enumerate(regs):
            reg.rate = float(rates[i])
            reg._last_update = float(last_update[i])
            reg.updates_applied += int(updates[i])
            reg.associated_cpid = cpid if assoc8[i] else None
        self.sim._now = duration

    # -- driving ---------------------------------------------------------------

    def _run_python_loop(self, duration: float) -> None:
        """The reference engine on the python :class:`Simulator` loop:
        the oracle of the C event core."""
        # Timed events first: heap ties at the same timestamp break
        # by insertion order, so events registered here fire before
        # any frame arrival scheduled mid-run for the same instant.
        n_events, n_sources = self._armed
        for t_event, _, kind, payload in sorted(
                self._timed_events[n_events:]):
            self.sim.schedule_at(
                t_event,
                lambda kind=kind, payload=payload: self._apply_event(
                    kind, payload
                ),
            )
        for source in self.sources[n_sources:]:
            if source.start_time > 0.0:
                self.sim.schedule_at(source.start_time, source.start)
            else:
                source.start()
        self._armed = (len(self._timed_events), len(self.sources))
        self._record()
        self.sim.schedule_every(self._queue_dt, self._record, until=duration)
        self.sim.run(until=duration)
        self._record()

    def run(self, duration: float) -> SimulationResult:
        """Run the scenario for ``duration`` seconds of simulated time.

        On the reference engine a later call continues the run up to
        its own ``duration``; the window engines run once per network
        and raise :class:`RuntimeError` on a second call.
        """
        _require_positive_finite("duration", duration)
        for _, _, kind, payload in self._timed_events:
            if kind == "departure" and payload[0] >= len(self.sources):
                raise ValueError(
                    f"departure of unknown source address {payload[0]}; "
                    f"this network has {len(self.sources)} sources"
                )
        if self.engine != "reference":
            # _run_windows plans every source from its start time and
            # records from t=0, so a second call would re-send the run.
            if self._windows_ran:
                raise RuntimeError(
                    f"the {self.engine} engine runs once per network; "
                    f"engine=\"reference\" continues a run")
            self._windows_ran = True
        wall_start = _time.monotonic() if self.obs is not None else 0.0  # repro-lint: disable=wall-clock -- obs run-span wall-time
        if self.engine == "batched":
            from ..kernels import KernelBackend

            self._run_windows(duration, KernelBackend())
        elif self.engine == "compiled":
            from ..kernels import consume_warmup_span, get_backend

            be = get_backend()
            if self.obs is not None:
                consume_warmup_span(self.obs)
            self._run_windows(duration, be)
        else:
            from ..kernels import get_backend

            be = get_backend()
            if be.compiled and event_core.ineligible(self) is None:
                event_core.run_event_core(self, duration, be)
                # the core ran every timed event and start that fell in
                # the run and handed the rest back to the heap
                self._armed = (len(self._timed_events), len(self.sources))
            else:
                self._run_python_loop(duration)

        t_q, q = self._queue_samples.arrays()
        t_r, r = self._rate_samples.arrays()
        if self.obs is not None:
            from ..obs import emit_sign_switches
            engine_tag = f"packet.{self.engine}"
            self.obs.add_span(f"{engine_tag}.run",
                              _time.monotonic() - wall_start)  # repro-lint: disable=wall-clock -- obs run-span wall-time
            # The control law is evaluated at sample instants only, so
            # region membership is known exactly there: a sign change of
            # the sampled sigma is a region switch in either engine.
            hist = self.switch.sigma_history
            emit_sign_switches(self.obs, [h[0] for h in hist],
                               [h[1] for h in hist], engine=engine_tag,
                               node=self.switch.cpid)
            self.obs.observe_queue(engine_tag, q,
                                   self.params.buffer_size, self.params.q0)
        return SimulationResult(
            t=t_q,
            queue=q,
            rate_t=t_r,
            rate_total=r,
            per_source_rate=np.array([s.rate for s in self.sources]),
            dropped_frames=self.switch.queue.dropped_frames,
            forwarded_frames=self.switch.stats.forwarded_frames,
            bcn_negative=self.switch.stats.bcn_negative,
            bcn_positive=self.switch.stats.bcn_positive,
            pauses=self.switch.stats.pauses_sent,
            delivered_bits=self._delivered_bits,
            duration=duration,
            capacity=self.params.capacity,
        )
