"""The BCN-aware core switch (congestion point).

Implements the congestion-point side of the BCN mechanism (Section
II.B):

* a drop-tail FIFO serviced at line rate ``C``;
* **deterministic sampling**: every ``round(1/pm)``-th arriving frame is
  sampled; at a sample the switch computes the queue variation
  ``dq`` since the previous sample (by counting arrivals and departures,
  as the draft prescribes) and the congestion measure
  ``sigma = (q0 - q) - w * dq`` (eq. 1);
* **negative BCN** to the sampled frame's source when ``sigma < 0``;
* **positive BCN** only when ``sigma > 0``, the queue is below ``q0``
  *and* the sampled frame carries an RRT whose CPID matches this switch
  (i.e. the source is associated with this congestion point);
* **802.3x PAUSE** to all upstream neighbours when the instantaneous
  queue exceeds the severe-congestion threshold ``q_sc``.

BCN messages travel on dedicated backward links registered per source
address.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.parameters import _require_positive_finite
from .engine import Simulator
from .frames import BCNMessage, EthernetFrame, PauseFrame
from .link import Link
from .queueing import DropTailQueue

__all__ = ["CoreSwitch", "SwitchStats", "BatchedSwitchKernel", "BatchedWindow",
           "bcn_feedback", "quantize_fb"]

_EMPTY = np.empty(0)


def bcn_feedback(q, q_last, q0, w, pos_only, req_assoc, associated):
    """The congestion point's law at one sample with queue ``q``.

    ``sigma = (q0 - q) - w * dq`` with ``dq = q - q_last`` (eq. 1).
    Negative sigma always draws negative BCN (``emit = -1``).  Positive
    sigma draws positive BCN (``emit = 1``) only below ``q0`` (unless
    not ``pos_only``) and only to an ``associated`` source (unless not
    ``req_assoc``).  Returns ``(sigma, dq, emit)``, ``emit = 0`` for no
    message.  The python engines sample through this function; the
    numpy window's ``bind_packet_commit`` is its one array form and the
    C kernels' ``bcn_sample`` its compiled twin.
    """
    dq = q - q_last
    sigma = (q0 - q) - w * dq
    if sigma < 0:
        return sigma, dq, -1
    if sigma > 0 and (q < q0 or not pos_only) and (
            not req_assoc or associated):
        return sigma, dq, 1
    return sigma, dq, 0


def quantize_fb(sigma, sigma_unit, full_scale):
    """The wire FB field of raw ``sigma`` (a float or an array).

    ``round(sigma / sigma_unit)`` (ties to even), clamped to
    ``[-full_scale, full_scale - 1]``; a zero FB is always +0.0.  A NaN
    ``sigma_unit`` carries raw sigma.  The C kernels' ``quant_fb`` is
    its compiled twin.
    """
    if sigma_unit != sigma_unit:
        return sigma
    return np.minimum(np.maximum(np.rint(sigma / sigma_unit), -full_scale),
                      full_scale - 1) + 0.0


@dataclass
class SwitchStats:
    """Counters the switch maintains for the experiment harness."""

    samples: int = 0
    bcn_negative: int = 0
    bcn_positive: int = 0
    pauses_sent: int = 0
    forwarded_frames: int = 0
    forwarded_bits: float = 0.0


class CoreSwitch:
    """A single congestion point with a BCN control plane.

    Parameters
    ----------
    sim:
        Event engine.
    cpid:
        Congestion-point identifier (stands in for the interface MAC).
    capacity:
        Service rate ``C`` in bits/s.
    q0:
        Reference queue length in bits.
    buffer_bits:
        Physical buffer ``B`` in bits (drop-tail beyond it).
    w:
        Weight of the queue-derivative term in ``sigma``.
    pm:
        Sampling probability; realised deterministically as one sample
        every ``round(1/pm)`` arrivals.
    q_sc:
        Severe-congestion threshold for PAUSE; None disables PAUSE.
    pause_duration:
        Silence interval requested by each PAUSE frame.
    forward:
        Callback receiving each serviced frame (the downstream link).
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        cpid: str,
        capacity: float,
        q0: float,
        buffer_bits: float,
        w: float = 2.0,
        pm: float = 0.01,
        q_sc: float | None = None,
        pause_duration: float = 50e-6,
        forward: Callable[[EthernetFrame], None] | None = None,
        require_association: bool = True,
        positive_only_below_q0: bool = True,
        fb_bits: int | None = 6,
        sigma_unit: float | None = None,
        random_sampling: bool = False,
        sampling_seed: int = 0,
    ) -> None:
        _require_positive_finite("capacity", capacity)
        if not 0 < pm <= 1:
            raise ValueError("pm must lie in (0, 1]")
        if fb_bits is not None and not (
                isinstance(fb_bits, (int, np.integer)) and fb_bits >= 2):
            # FB is a signed fb_bits-bit field: below two bits it cannot
            # carry both increase and decrease feedback.
            raise ValueError(
                f"fb_bits must be None or an int >= 2, got {fb_bits!r}")
        self.sim = sim
        self.cpid = cpid
        self.capacity = capacity
        self.q0 = q0
        self.w = w
        self.pm = pm
        self.q_sc = q_sc
        self.pause_duration = pause_duration
        self.queue = DropTailQueue(buffer_bits)
        self.forward = forward or (lambda frame: None)
        self.stats = SwitchStats()
        #: Per the draft, positive BCN goes only to sources associated
        #: with this congestion point (RRT match).  The paper's fluid
        #: model idealises this to unconditional positive feedback; set
        #: False to match it (used by fluid-vs-packet validation).
        self.require_association = require_association
        #: The draft also gates positive BCN on the queue having drained
        #: below q0; the fluid model applies the increase law whenever
        #: sigma > 0.  Set False for the model's idealisation.
        self.positive_only_below_q0 = positive_only_below_q0
        #: FB quantization: the wire FB field is
        #: ``clamp(round(sigma / sigma_unit), -2**(fb_bits-1),
        #: 2**(fb_bits-1) - 1)``.  ``fb_bits=None`` carries raw sigma.
        #: ``sigma_unit`` defaults to ``q0 / 2**(fb_bits-2)`` so that a
        #: completely full reference queue maps to a quarter of full
        #: scale (the draft's equilibrium-centred scaling).
        self.fb_bits = fb_bits
        if fb_bits is not None and sigma_unit is None:
            sigma_unit = q0 / float(2 ** (fb_bits - 2))
        self.sigma_unit = sigma_unit

        #: Optional observability handle (set via :meth:`attach_obs`);
        #: ``None`` keeps the data path at a single attribute check.
        self.obs = None
        self.obs_engine = "packet.reference"

        self._sample_interval = max(1, round(1.0 / pm))
        self._arrivals_since_sample = 0
        #: The draft samples deterministically (every 1/pm-th frame),
        #: which aliases badly against synchronized homogeneous sources:
        #: the same flow can be picked every round.  Bernoulli sampling
        #: (seeded, reproducible) restores the fluid model's uniform
        #: per-flow feedback and is used by the validation experiments.
        self._rng = random.Random(sampling_seed) if random_sampling else None
        self._sampling_seed = sampling_seed
        self._q_at_last_sample = 0.0
        self._busy = False
        self._pause_armed = True
        self._service_paused_until = 0.0
        self._bcn_links: dict[int, Link] = {}
        self._pause_links: list[Link] = []
        #: history rows ``(t, sigma)`` of every computed congestion measure
        self.sigma_history: list[tuple[float, float]] = []

    # -- wiring ---------------------------------------------------------

    def attach_obs(self, obs, engine: str = "packet.reference") -> None:
        """Attach an :class:`repro.obs.Observability` handle.

        A disabled handle is stored as ``None`` so the per-frame fast
        path stays one ``is not None`` check.
        """
        self.obs = obs if (obs is not None and obs.enabled) else None
        self.obs_engine = engine

    def register_bcn_link(self, source_address: int, link: Link) -> None:
        """Register the backward control link towards a source."""
        self._bcn_links[source_address] = link

    def register_pause_link(self, link: Link) -> None:
        """Register an upstream neighbour to receive PAUSE frames."""
        self._pause_links.append(link)

    # -- data plane -----------------------------------------------------

    @property
    def queue_bits(self) -> float:
        """Instantaneous queue length ``q(t)`` in bits."""
        return self.queue.occupancy_bits

    def receive(self, frame: EthernetFrame) -> None:
        """Ingest a data frame: sample, enqueue (or drop), serve."""
        rng = self._rng
        if rng is not None:
            sampled = rng.random() < self.pm
        else:
            self._arrivals_since_sample += 1
            sampled = self._arrivals_since_sample >= self._sample_interval
            if sampled:
                self._arrivals_since_sample = 0

        queue = self.queue
        accepted = queue.offer(frame)
        if not accepted and self.obs is not None:
            self.obs.event("drop", self.sim.now, engine=self.obs_engine,
                           node=self.cpid, flow=frame.flow_id,
                           value=float(frame.size_bits))

        if sampled:
            self._process_sample(frame)

        q_sc = self.q_sc
        if q_sc is not None and queue.occupancy_bits > q_sc:
            self._maybe_pause()

        if accepted and not self._busy:
            self._start_service()

    def _process_sample(self, frame: EthernetFrame) -> None:
        """Compute sigma for a sampled frame and emit BCN if warranted."""
        self.stats.samples += 1
        q = self.queue.occupancy_bits
        sigma, dq, emit = bcn_feedback(
            q, self._q_at_last_sample, self.q0, self.w,
            self.positive_only_below_q0, self.require_association,
            frame.rrt_cpid == self.cpid)
        self._q_at_last_sample = q
        self.sigma_history.append((self.sim.now, sigma))
        if not emit:
            return
        if emit < 0:
            self.stats.bcn_negative += 1
        else:
            self.stats.bcn_positive += 1
        self._send_bcn(frame.src, sigma, q, dq)
        if self.obs is not None:
            self.obs.event("bcn", self.sim.now, engine=self.obs_engine,
                           node=self.cpid, flow=frame.src, value=sigma)

    @property
    def fb_scale(self) -> tuple[float, float]:
        """``(sigma_unit, full_scale)`` for :func:`quantize_fb`; a NaN
        unit when the switch carries raw sigma."""
        if self.fb_bits is None or self.sigma_unit is None:
            return math.nan, 0.0
        return float(self.sigma_unit), float(2 ** (self.fb_bits - 1))

    def quantize_fb(self, sigma: float) -> float:
        """Map raw sigma (bits) to the wire FB value."""
        return float(quantize_fb(sigma, *self.fb_scale))

    def _send_bcn(self, src: int, sigma: float, q: float, dq: float) -> None:
        link = self._bcn_links.get(src)
        if link is None:
            return
        link.transmit(
            BCNMessage(
                da=src,
                sa=self.cpid,
                cpid=self.cpid,
                fb=self.quantize_fb(sigma),
                q_off=self.q0 - q,
                q_delta=dq,
                fb_raw=sigma,
                sent_at=self.sim.now,
            )
        )

    def _maybe_pause(self) -> None:
        """Send one PAUSE per excursion above ``q_sc`` (re-armed after)."""
        if not self._pause_armed:
            return
        self._pause_armed = False
        frame = PauseFrame(sa=self.cpid, duration=self.pause_duration,
                           sent_at=self.sim.now)
        for link in self._pause_links:
            link.transmit(frame)
        self.stats.pauses_sent += len(self._pause_links)
        if self.obs is not None:
            # One on/off pair per excursion; "off" is the re-arm time,
            # emitted eagerly so both packet engines pair identically.
            self.obs.event("pause_on", self.sim.now, engine=self.obs_engine,
                           node=self.cpid, value=self.pause_duration)
            self.obs.event("pause_off", self.sim.now + self.pause_duration,
                           engine=self.obs_engine, node=self.cpid)
        self.sim.schedule(self.pause_duration, self._rearm_pause)

    def _rearm_pause(self) -> None:
        self._pause_armed = True

    def receive_pause(self, frame: PauseFrame) -> None:
        """Honour an 802.3x PAUSE from downstream: stop serving.

        This is the hop-by-hop flow control whose head-of-line blocking
        the paper's Section I criticises: while paused, *every* frame
        behind this port waits, congestion rolls back upstream, and
        flows innocent of the original congestion stall with it.
        """
        self._service_paused_until = max(
            self._service_paused_until, self.sim.now + frame.duration
        )

    def suspend_service(self, until: float) -> None:
        """Freeze the server until ``until`` (link outage semantics).

        Store-and-forward: a frame already in service completes at its
        scheduled time; no new service starts while frozen.  Arrivals
        keep queueing (and drop-tail keeps applying), which is exactly
        how a dead egress link behaves behind a drop-tail FIFO.
        """
        self._service_paused_until = max(self._service_paused_until, until)

    def set_capacity(self, capacity: float) -> None:
        """Change the service rate ``C`` (time-varying capacity C(t)).

        Takes effect from the next service start; the in-flight frame
        finishes at the rate it started with (store-and-forward).
        """
        _require_positive_finite("capacity", capacity)
        self.capacity = capacity

    def _start_service(self) -> None:
        sim = self.sim
        if sim._now < self._service_paused_until:
            self._busy = True
            sim.schedule_at(self._service_paused_until, self._start_service)
            return
        frame = self.queue.poll()
        if frame is None:
            self._busy = False
            return
        self._busy = True
        sim.schedule(frame.size_bits / self.capacity, self._service_done, frame)

    def _service_done(self, frame: EthernetFrame) -> None:
        stats = self.stats
        stats.forwarded_frames += 1
        stats.forwarded_bits += frame.size_bits
        self.forward(frame)
        # The server is still busy here, so this is _start_service
        # without its busy-flag bookkeeping on the serve path.
        sim = self.sim
        if sim._now < self._service_paused_until:
            sim.schedule_at(self._service_paused_until, self._start_service)
            return
        frame = self.queue.poll()
        if frame is None:
            self._busy = False
            return
        sim.schedule(frame.size_bits / self.capacity, self._service_done, frame)


@dataclass
class BatchedWindow:
    """What one frame-train window produced at the congestion point.

    ``msg_*`` arrays hold one row per BCN message the switch decided to
    emit (negative and gated positive feedback alike, in sample-time
    order); the orchestrator turns them into
    :class:`~repro.simulation.frames.BCNMessage` deliveries.
    """

    t_start: float
    t_commit: float
    committed: int  #: new arrivals committed (may be < len(times) on PAUSE)
    msg_t: np.ndarray
    msg_src: np.ndarray
    msg_fb: np.ndarray
    msg_sigma: np.ndarray
    pause_at: float | None
    delivered_bits: float
    drops: int


class BatchedSwitchKernel:
    """Vectorized frame-train processing for one :class:`CoreSwitch`.

    The batched packet engines replace the per-frame event cascade
    (emit, link, offer, serve, done) with window-sized batches: between
    control boundaries every source's rate is constant, so the switch
    can ingest a whole merged frame train at once.  Service is the
    classic Lindley recursion — with uniform frame size ``L`` and
    service time ``s = L/C`` the completion times of FIFO arrivals
    ``A_k`` follow ``c_k = max(A_k, c_{k-1}) + s``, a prefix-maximum
    that vectorizes as ``c = s*k + max(c0, cummax(A_k - s*(k-1)))``.
    Queue occupancy at each arrival, the deterministic or Bernoulli
    ``pm`` sampling pattern, the congestion measure ``sigma`` and FB
    quantization all follow from those arrays with the exact semantics
    of :meth:`CoreSwitch.receive`/``_process_sample``.  Deterministic
    sampling advances the same modular counter as the reference
    engine; Bernoulli sampling draws one variate per arrival from a
    numpy ``Generator`` seeded with the switch's ``sampling_seed`` —
    reproducible run to run, but an independent stream from the
    reference engine's ``random.Random`` (the two engines' sampled
    trajectories agree statistically, not draw for draw).

    The arithmetic runs in three closures of a
    :class:`~repro.kernels.KernelBackend` tier: ``bind_packet_plan``
    (the no-drop hull, the occupancy each arrival sees, drop-tail and
    PAUSE detection), ``bind_packet_commit`` (sampling, sigma, BCN
    messages, service accounting) and ``packet_scalar``, the exact
    per-frame loop a window falls back to when drop-tail engages.  A
    severe congestion (PAUSE) crossing truncates the window so the
    orchestrator can deliver the PAUSE and re-plan trains.
    :meth:`process` turns whichever closure's outputs into the switch,
    queue, state and obs updates, so the numpy tier (the default) and
    the C tier differ only in the closures they bind.

    Shared state lives on the wrapped switch (stats, drop-tail
    counters, sigma history, sampling state); in batched mode the
    switch's :class:`~repro.simulation.queueing.DropTailQueue` holds no
    frame objects — only its counters advance.
    """

    def __init__(
        self,
        switch: CoreSwitch,
        frame_bits: int,
        *,
        pause_fanout: int | None = None,
        pause_commit_horizon: float = 0.0,
        backend=None,
    ) -> None:
        if frame_bits <= 0:
            raise ValueError("frame_bits must be positive")
        if backend is None:
            # Imported here: repro.kernels imports this module.
            from ..kernels._backend import KernelBackend

            backend = KernelBackend()
        self._backend = backend
        self.switch = switch
        self.frame_bits = frame_bits
        self._ssvc = frame_bits / switch.capacity
        #: On a PAUSE crossing the window commits through ``pause_at +
        #: pause_commit_horizon`` instead of cutting at the crossing
        #: arrival: frames emitted before the PAUSE frame reached their
        #: source (one propagation delay out, one back) are already in
        #: flight in the reference engine and must land, not be
        #: retroactively deferred.  The orchestrator passes ``2 *
        #: propagation_delay``.
        self.pause_commit_horizon = pause_commit_horizon
        #: How many upstream neighbours a PAUSE reaches (the reference
        #: engine counts one per registered pause link).
        self.pause_fanout = (
            pause_fanout if pause_fanout is not None
            else len(switch._pause_links)
        )
        #: Bernoulli sampling stream for the batched engine (None when
        #: the switch samples deterministically).
        self._rng = (
            np.random.default_rng(switch._sampling_seed)
            if switch._rng is not None else None
        )
        #: frames enqueued but whose service has not started
        self._backlog = 0
        #: completion time of the most recently started frame
        self._next_free = 0.0
        #: True while a frame is in service completing at ``_next_free``
        self._inflight = False
        #: PAUSE re-arm time (armed when the clock passes it)
        self._pause_rearm_at = -math.inf if switch._pause_armed else math.inf
        #: No service may *start* before this time (link outage); the
        #: in-flight frame still completes — store-and-forward, matching
        #: :meth:`CoreSwitch.suspend_service`.
        self._frozen_until = -math.inf
        # arrays of the last committed window, for queue_at()
        self._win_arrivals = np.empty(0)
        self._win_starts = np.empty(0)
        #: the kernels' scalar form of the PAUSE threshold (NaN: none)
        self._q_sc = (float(switch.q_sc) if switch.q_sc is not None
                      else math.nan)
        # Per-window buffers, reused across windows and grown (with the
        # closures that capture them re-bound) by ``_grow``.  Every
        # consumer of these arrays (recorder, obs, message delivery)
        # reads them before the next ``process()`` call overwrites them.
        self._cap_m = self._cap_total = -1
        self._plan_d = np.empty(2)
        self._plan_i = np.empty(3, dtype=np.int64)
        self._out_d = np.empty(2)
        self._out_i = np.empty(9, dtype=np.int64)
        self._sout_d = np.empty(5)
        self._sout_i = np.empty(14, dtype=np.int64)

    # -- timed-event hooks -------------------------------------------------

    def set_capacity(self, capacity: float) -> None:
        """Change the service rate; callers truncate windows at the event."""
        self.switch.set_capacity(capacity)
        self._ssvc = self.frame_bits / capacity

    def freeze_until(self, until: float) -> None:
        """Suspend service starts until ``until`` (link outage)."""
        self._frozen_until = max(self._frozen_until, until)
        self.switch._service_paused_until = max(
            self.switch._service_paused_until, until
        )

    # -- queue series ------------------------------------------------------

    def queue_at(self, times: np.ndarray) -> np.ndarray:
        """Queue occupancy (bits) at times inside the last window."""
        times = np.asarray(times, dtype=float)
        arrived = np.searchsorted(self._win_arrivals, times, side="right")
        started = np.searchsorted(self._win_starts, times, side="right")
        return self.frame_bits * (arrived - started).astype(float)

    # -- window processing -------------------------------------------------

    def _grow(self, m: int, total: int) -> None:
        """Size the buffers for ``m`` arrivals behind ``total - m``
        residual frames, and bind the backend's window closures."""
        sw = self.switch
        be = self._backend
        self._cap_m = cap_m = max(64, 2 * m)
        self._cap_total = cap_t = max(64, 2 * total)
        self._starts = np.empty(cap_t)
        self._completions = np.empty(cap_t)
        self._arrivals = np.empty(cap_t)
        self._q_bits = np.empty(cap_m)
        # msg_t, msg_src, msg_sigma, msg_fb
        self._msg = (np.empty(cap_m), np.empty(cap_m, np.int64),
                     np.empty(cap_m), np.empty(cap_m))
        self._samp_t = np.empty(cap_m)
        self._samp_sigma = np.empty(cap_m)
        # arrival index of each message, drop and PAUSE (drop windows)
        self._msg_j, self._drop_j, self._pause_j = (
            np.empty(cap_m, np.int64) for _ in range(3))
        self._bound_plan = be.bind_packet_plan(
            float(self.frame_bits), sw.queue.capacity_bits, self._q_sc,
            self.pause_commit_horizon, self._starts, self._completions,
            self._q_bits, self._plan_d, self._plan_i)
        self._bound_commit = be.bind_packet_commit(
            sw.pm, sw.q0, sw.w, 1 if sw.positive_only_below_q0 else 0,
            1 if sw.require_association else 0, *sw.fb_scale, self._q_bits,
            self._starts, self._completions, *self._msg, self._samp_t,
            self._samp_sigma, self._out_d, self._out_i)

    def process(
        self,
        t_start: float,
        t_end: float,
        times: np.ndarray,
        srcs: np.ndarray,
        assoc: np.ndarray,
    ) -> BatchedWindow:
        """Ingest the merged arrival train ``times`` (sorted) up to ``t_end``.

        Residual frames queued at ``t_start`` are handled as FIFO
        predecessors of the new arrivals.  Returns the committed prefix
        (everything, unless a PAUSE crossing cut the window short) plus
        the BCN messages it generated.
        """
        sw = self.switch
        Lf = float(self.frame_bits)
        m = int(times.size)
        n_res = self._backlog
        total = n_res + m
        rng = self._rng

        times = np.ascontiguousarray(times, dtype=np.float64)
        srcs = np.ascontiguousarray(srcs, dtype=np.int64)
        assoc = np.ascontiguousarray(assoc, dtype=np.uint8)

        # Buffers sized by the pre-truncation counts, so one bind
        # covers every window shape; the kernels never read shapes.
        if m > self._cap_m or total > self._cap_total:
            self._grow(m, total)
        starts, arrivals, msg = self._starts, self._arrivals, self._msg
        samp_t, samp_sigma = self._samp_t, self._samp_sigma

        self._bound_plan(
            times, float(t_start), float(t_end), self._ssvc, n_res,
            self._next_free, 1 if self._inflight else 0,
            self._frozen_until, self._pause_rearm_at,
        )

        scalar = bool(self._plan_i[0])
        if scalar:
            # Drop-tail engages inside the window: the exact per-frame
            # kernel.  It takes one uniform per arrival; pre-draw the
            # worst case, then rewind to the committed count below.
            if rng is not None:
                rng_state = rng.bit_generator.state
                uniforms = rng.random(m)
            else:
                uniforms = _EMPTY
            msg_j, drop_j, pause_j = self._msg_j, self._drop_j, self._pause_j
            self._backend.packet_scalar(
                times, srcs, assoc, uniforms, 1 if rng is not None else 0,
                float(sw.pm), sw._sample_interval, sw._arrivals_since_sample,
                float(t_start), float(t_end), self._ssvc, Lf,
                float(sw.queue.capacity_bits), self._q_sc, float(sw.q0),
                float(sw.w), 1 if sw.positive_only_below_q0 else 0,
                1 if sw.require_association else 0, *sw.fb_scale,
                n_res, self._next_free, 1 if self._inflight else 0,
                self._frozen_until, self._pause_rearm_at,
                float(sw.pause_duration), self.pause_commit_horizon,
                sw._q_at_last_sample, *msg, samp_t, samp_sigma, msg_j,
                drop_j, arrivals, starts, pause_j, self._sout_d,
                self._sout_i,
            )
            (committed, n_msg, n_samp, n_drop, delivered, backlog,
             inflight, since, n_started, n_acc, neg, pos, _,
             n_pause) = self._sout_i.tolist()
            (pause_at, t_commit, next_free, q_last,
             self._pause_rearm_at) = self._sout_d.tolist()
            if rng is not None:
                rng.bit_generator.state = rng_state
                if committed:
                    rng.random(committed)
            accepted = n_acc - n_res
        else:
            committed = int(self._plan_i[1])
            n_acc = int(self._plan_i[2])
            pause_at, t_commit = self._plan_d.tolist()
            n_pause = 1 if pause_at == pause_at else 0  # NaN: no PAUSE
            if n_pause:
                self._pause_rearm_at = pause_at + sw.pause_duration
            # Bernoulli draws cover the truncated window only.
            uniforms = (rng.random(committed) if rng is not None
                        and committed else _EMPTY)
            self._bound_commit(
                committed, n_res, times, srcs, assoc, float(t_start),
                t_commit, 1 if self._inflight else 0, self._next_free,
                uniforms, 1 if rng is not None else 0,
                sw._sample_interval, sw._arrivals_since_sample,
                sw._q_at_last_sample,
            )
            (n_msg, n_samp, neg, pos, delivered, n_started, backlog,
             inflight, since) = self._out_i.tolist()
            next_free, q_last = self._out_d.tolist()
            accepted, n_drop = committed, 0
            arrivals[:n_res] = t_start
            arrivals[n_res:n_acc] = times[:committed]

        if rng is None:
            sw._arrivals_since_sample = since
        sw._q_at_last_sample = q_last
        stats = sw.stats
        if n_samp:
            stats.samples += n_samp
            sw.sigma_history.extend(
                zip(samp_t[:n_samp].tolist(), samp_sigma[:n_samp].tolist()))
            stats.bcn_negative += neg
            stats.bcn_positive += pos
        stats.pauses_sent += n_pause * self.pause_fanout
        delivered_bits = float(delivered) * Lf
        stats.forwarded_frames += delivered
        stats.forwarded_bits += delivered_bits
        q = sw.queue
        q.enqueued_frames += accepted
        q.enqueued_bits += float(accepted) * Lf
        q.dropped_frames += n_drop
        q.dropped_bits += float(n_drop) * Lf
        q.dequeued_frames += n_started
        q.dequeued_bits += float(n_started) * Lf

        self._next_free = next_free
        self._inflight = bool(inflight)
        self._backlog = backlog
        self._win_arrivals = arrivals[:n_acc]
        self._win_starts = starts[:n_started]

        w_msg = tuple(col[:n_msg] for col in msg) if n_msg else (_EMPTY,) * 4
        msg_t, msg_src, msg_sigma, msg_fb = w_msg
        if sw.obs is not None:
            if scalar:
                # CoreSwitch.receive's order: per arrival, its drop,
                # then its BCN, then its PAUSE.
                keyed = sorted(
                    [(j, 0, "drop", j) for j in drop_j[:n_drop].tolist()]
                    + [(j, 1, "bcn", k)
                       for k, j in enumerate(msg_j[:n_msg].tolist())]
                    + [(j, 2, "pause", float(times[j]))
                       for j in pause_j[:n_pause].tolist()])
                order = [(kind, x) for _, _, kind, x in keyed]
            else:
                # No drops: the window's one PAUSE, then its BCNs.
                order = [("pause", pause_at)] if n_pause else []
                order += [("bcn", k) for k in range(n_msg)]
            self._emit_obs(order, times, srcs, msg_t, msg_src, msg_sigma)

        return BatchedWindow(
            t_start=t_start, t_commit=t_commit, committed=committed,
            msg_t=msg_t, msg_src=msg_src, msg_fb=msg_fb,
            msg_sigma=msg_sigma, pause_at=pause_at if n_pause else None,
            delivered_bits=delivered_bits, drops=n_drop,
        )

    def _emit_obs(self, order, times, srcs, msg_t, msg_src, msg_sigma):
        """Narrate one window to the switch's obs handle.

        ``order`` lists ``(kind, x)`` in emission order: ``("drop",
        arrival index)``, ``("bcn", message index)`` or ``("pause",
        time)``.
        """
        sw = self.switch
        obs = sw.obs
        for kind, x in order:
            if kind == "drop":
                obs.event("drop", float(times[x]), engine=sw.obs_engine,
                          node=sw.cpid, flow=int(srcs[x]),
                          value=float(self.frame_bits))
            elif kind == "bcn":
                obs.event("bcn", float(msg_t[x]), engine=sw.obs_engine,
                          node=sw.cpid, flow=int(msg_src[x]),
                          value=float(msg_sigma[x]))
            else:
                obs.event("pause_on", x, engine=sw.obs_engine, node=sw.cpid,
                          value=sw.pause_duration)
                obs.event("pause_off", x + sw.pause_duration,
                          engine=sw.obs_engine, node=sw.cpid)
