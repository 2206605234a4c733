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

from .engine import Simulator
from .frames import BCNMessage, EthernetFrame, PauseFrame
from .link import Link
from .queueing import DropTailQueue

__all__ = ["CoreSwitch", "SwitchStats", "BatchedSwitchKernel", "BatchedWindow"]


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
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < pm <= 1:
            raise ValueError("pm must lie in (0, 1]")
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
        dq = q - self._q_at_last_sample
        self._q_at_last_sample = q
        sigma = (self.q0 - q) - self.w * dq
        self.sigma_history.append((self.sim.now, sigma))

        if sigma < 0:
            self._send_bcn(frame.src, sigma, q, dq)
            self.stats.bcn_negative += 1
            emitted = True
        elif sigma > 0 and (q < self.q0 or not self.positive_only_below_q0) and (
            not self.require_association or frame.rrt_cpid == self.cpid
        ):
            self._send_bcn(frame.src, sigma, q, dq)
            self.stats.bcn_positive += 1
            emitted = True
        else:
            emitted = False
        if emitted and self.obs is not None:
            self.obs.event("bcn", self.sim.now, engine=self.obs_engine,
                           node=self.cpid, flow=frame.src, value=sigma)

    def quantize_fb(self, sigma: float) -> float:
        """Map raw sigma (bits) to the wire FB value."""
        if self.fb_bits is None or self.sigma_unit is None:
            return sigma
        full_scale = 2 ** (self.fb_bits - 1)
        quantum = round(sigma / self.sigma_unit)
        return float(max(-full_scale, min(full_scale - 1, quantum)))

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
        if capacity <= 0:
            raise ValueError("capacity must be positive")
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
    msg_q_off: np.ndarray
    msg_dq: np.ndarray
    pause_at: float | None
    delivered_bits: float
    drops: int


class BatchedSwitchKernel:
    """Vectorized frame-train processing for one :class:`CoreSwitch`.

    The batched packet engine replaces the per-frame event cascade
    (emit, link, offer, serve, done) with window-sized numpy batches:
    between control boundaries every source's rate is constant, so the
    switch can ingest a whole merged frame train at once.  Service is
    the classic Lindley recursion — with uniform frame size ``L`` and
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

    The fast path assumes no frame is dropped; when the no-drop check
    fails the window falls back to an exact per-frame scalar loop
    (drops are control boundaries in the ISSUE's sense).  A severe
    congestion (PAUSE) crossing truncates the window at the crossing
    arrival so the orchestrator can deliver the PAUSE and re-plan
    trains.

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
    ) -> None:
        if frame_bits <= 0:
            raise ValueError("frame_bits must be positive")
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
        L = self.frame_bits
        ssvc = self._ssvc
        m = int(times.size)
        n_res = self._backlog

        # FIFO stream = residual frames (already queued) then new arrivals.
        if n_res:
            arrivals = np.concatenate([np.full(n_res, t_start), times])
        else:
            arrivals = times
        total = n_res + m

        prev_inflight = self._inflight
        prev_next_free = self._next_free
        c0 = self._next_free if self._inflight else t_start
        # Outage: no service start before _frozen_until (the completion
        # hull floor delays every start past the freeze horizon).
        c0 = max(c0, self._frozen_until)

        if total:
            k = np.arange(1, total + 1, dtype=float)
            hull = np.maximum.accumulate(arrivals - ssvc * (k - 1.0))
            completions = ssvc * k + np.maximum(c0, hull)
            starts = completions - ssvc
        else:
            completions = starts = np.empty(0)

        pause_at: float | None = None
        drops = 0
        if m:
            # Occupancy just after each new arrival is offered (own frame
            # included, in-service frame excluded) — assuming no drops.
            # A start exactly at the arrival instant counts as "before"
            # only when it belongs to an earlier frame (the reference
            # engine processes the completion that triggered it first);
            # the arrival's own immediate start must not.  searchsorted
            # side="right" plus a clamp at the frame's own position gets
            # both, and is robust to the reconstructed start times
            # rounding one ulp below the arrival they equal.
            started_before = np.minimum(
                np.searchsorted(starts, times, side="right"),
                np.arange(n_res, total),
            )
            q_bits = L * (np.arange(n_res + 1, total + 1)
                          - started_before).astype(float)
            if bool(np.any(q_bits > sw.queue.capacity_bits)):
                # Drop-tail engages somewhere in this window: per-frame
                # fallback reproduces the reference semantics exactly.
                return self._process_scalar(t_start, t_end, times, srcs, assoc)

            if sw.q_sc is not None:
                crossing = (q_bits > sw.q_sc) & (times >= self._pause_rearm_at)
                hits = np.nonzero(crossing)[0]
                if hits.size:
                    cut = int(hits[0])
                    pause_at = float(times[cut])
                    self._pause_rearm_at = pause_at + sw.pause_duration
                    sw.stats.pauses_sent += self.pause_fanout
                    if sw.obs is not None:
                        sw.obs.event("pause_on", pause_at,
                                     engine=sw.obs_engine, node=sw.cpid,
                                     value=sw.pause_duration)
                        sw.obs.event("pause_off",
                                     pause_at + sw.pause_duration,
                                     engine=sw.obs_engine, node=sw.cpid)
                    # Commit through the in-flight horizon (frames the
                    # PAUSE cannot take back), defer the rest.
                    limit = min(pause_at + self.pause_commit_horizon, t_end)
                    m = max(
                        int(np.searchsorted(times, limit, side="right")),
                        cut + 1,
                    )
                    total = n_res + m
                    times = times[:m]
                    srcs = srcs[:m]
                    assoc = assoc[:m]
                    arrivals = arrivals[:total]
                    completions = completions[:total]
                    starts = starts[:total]
                    q_bits = q_bits[:m]
        else:
            q_bits = np.empty(0)

        if pause_at is None:
            t_commit = t_end
        else:
            t_commit = min(pause_at + self.pause_commit_horizon, t_end)

        # -- sampling / BCN ------------------------------------------------
        if m:
            if self._rng is not None:
                sampled = self._rng.random(m) < sw.pm
            else:
                idx = np.arange(1, m + 1)
                sampled = (sw._arrivals_since_sample + idx) \
                    % sw._sample_interval == 0
                sw._arrivals_since_sample = \
                    (sw._arrivals_since_sample + m) % sw._sample_interval
            sample_idx = np.nonzero(sampled)[0]
        else:
            sample_idx = np.empty(0, dtype=int)

        if sample_idx.size:
            qs = q_bits[sample_idx]
            q_prev = np.concatenate([[sw._q_at_last_sample], qs[:-1]])
            dq = qs - q_prev
            sigma = (sw.q0 - qs) - sw.w * dq
            sw._q_at_last_sample = float(qs[-1])
            t_s = times[sample_idx]
            sw.stats.samples += int(sample_idx.size)
            sw.sigma_history.extend(zip(t_s.tolist(), sigma.tolist()))

            negative = sigma < 0
            positive = (sigma > 0) \
                & ((qs < sw.q0) | (not sw.positive_only_below_q0))
            if sw.require_association:
                positive &= assoc[sample_idx] != 0  # bool or uint8 flags
            sw.stats.bcn_negative += int(np.count_nonzero(negative))
            sw.stats.bcn_positive += int(np.count_nonzero(positive))
            emit = negative | positive
            msg_t = t_s[emit]
            msg_src = srcs[sample_idx][emit]
            msg_sigma = sigma[emit]
            msg_q_off = sw.q0 - qs[emit]
            msg_dq = dq[emit]
            if sw.fb_bits is not None and sw.sigma_unit is not None:
                full_scale = 2 ** (sw.fb_bits - 1)
                msg_fb = np.clip(np.round(msg_sigma / sw.sigma_unit),
                                 -full_scale, full_scale - 1).astype(float)
            else:
                msg_fb = msg_sigma
        else:
            msg_t = msg_src = msg_fb = msg_sigma = np.empty(0)
            msg_q_off = msg_dq = np.empty(0)

        if sw.obs is not None and msg_t.size:
            for mt, msrc, msig in zip(msg_t.tolist(), msg_src.tolist(),
                                      msg_sigma.tolist()):
                sw.obs.event("bcn", mt, engine=sw.obs_engine, node=sw.cpid,
                             flow=int(msrc), value=msig)

        # -- service accounting & state roll-forward -----------------------
        delivered = int(np.searchsorted(completions, t_commit, side="right"))
        if prev_inflight and t_start < prev_next_free <= t_commit:
            delivered += 1
        n_started = int(np.searchsorted(starts, t_commit, side="right"))
        if n_started:
            self._next_free = float(completions[n_started - 1])
            self._inflight = self._next_free > t_commit
        elif prev_inflight and prev_next_free <= t_commit:
            self._inflight = False
        self._backlog = total - n_started

        delivered_bits = float(delivered * L)
        sw.stats.forwarded_frames += delivered
        sw.stats.forwarded_bits += delivered_bits
        q = sw.queue
        q.enqueued_frames += m
        q.enqueued_bits += float(m * L)
        q.dequeued_frames += n_started
        q.dequeued_bits += float(n_started * L)

        self._win_arrivals = arrivals
        self._win_starts = starts

        return BatchedWindow(
            t_start=t_start, t_commit=t_commit, committed=m,
            msg_t=msg_t, msg_src=msg_src, msg_fb=msg_fb,
            msg_sigma=msg_sigma, msg_q_off=msg_q_off, msg_dq=msg_dq,
            pause_at=pause_at, delivered_bits=delivered_bits, drops=drops,
        )

    # -- exact per-frame fallback -----------------------------------------

    def _process_scalar(
        self,
        t_start: float,
        t_end: float,
        times: np.ndarray,
        srcs: np.ndarray,
        assoc: np.ndarray,
    ) -> BatchedWindow:
        """Reference-faithful per-frame loop for windows with drops."""
        sw = self.switch
        L = self.frame_bits
        ssvc = self._ssvc
        B = sw.queue.capacity_bits

        backlog = self._backlog
        prev_inflight = self._inflight
        prev_next_free = self._next_free
        next_free = self._next_free if self._inflight else -math.inf
        # Outage floor: the earliest time any *new* service may start.
        # ``next_free`` doubles as the next start time of a backlogged
        # frame, so flooring it here freezes starts without touching the
        # in-flight completion already rolled into ``_next_free``.
        next_free = max(next_free, t_start, self._frozen_until)
        any_started = False

        acc_arrivals: list[float] = [t_start] * backlog
        starts: list[float] = []
        msg_rows: list[tuple[float, int, float, float, float, float]] = []
        drops = 0
        accepted_new = 0
        pause_at: float | None = None
        pause_limit = math.inf
        t_commit = t_end
        committed = 0

        interval = sw._sample_interval
        rng = self._rng

        for j in range(times.size):
            a = float(times[j])
            if a > pause_limit:
                # Beyond the in-flight horizon of the PAUSE: deferred.
                break
            # services that started strictly before this arrival
            while backlog and next_free < a:
                starts.append(next_free)
                next_free += ssvc
                backlog -= 1
                any_started = True
            # sampling decision consumed before the offer, as in receive()
            if rng is not None:
                sampled = float(rng.random()) < sw.pm
            else:
                sw._arrivals_since_sample += 1
                sampled = sw._arrivals_since_sample >= interval
                if sampled:
                    sw._arrivals_since_sample = 0
            occ = backlog * L
            accepted = occ + L <= B
            if accepted:
                accepted_new += 1
                acc_arrivals.append(a)
                sw.queue.enqueued_frames += 1
                sw.queue.enqueued_bits += L
                if backlog == 0 and next_free <= a:
                    starts.append(a)
                    next_free = a + ssvc
                    any_started = True
                else:
                    backlog += 1
                q_now = occ + L
            else:
                drops += 1
                sw.queue.dropped_frames += 1
                sw.queue.dropped_bits += L
                q_now = occ
                if sw.obs is not None:
                    sw.obs.event("drop", a, engine=sw.obs_engine,
                                 node=sw.cpid, flow=int(srcs[j]),
                                 value=float(L))
            if sampled:
                dq = q_now - sw._q_at_last_sample
                sw._q_at_last_sample = q_now
                sigma = (sw.q0 - q_now) - sw.w * dq
                sw.stats.samples += 1
                sw.sigma_history.append((a, sigma))
                n_rows_before = len(msg_rows)
                if sigma < 0:
                    sw.stats.bcn_negative += 1
                    msg_rows.append((a, int(srcs[j]), sigma,
                                     sw.q0 - q_now, dq, sw.quantize_fb(sigma)))
                elif sigma > 0 and (q_now < sw.q0
                                    or not sw.positive_only_below_q0) and (
                        not sw.require_association or bool(assoc[j])):
                    sw.stats.bcn_positive += 1
                    msg_rows.append((a, int(srcs[j]), sigma,
                                     sw.q0 - q_now, dq, sw.quantize_fb(sigma)))
                if sw.obs is not None and len(msg_rows) > n_rows_before:
                    sw.obs.event("bcn", a, engine=sw.obs_engine,
                                 node=sw.cpid, flow=int(srcs[j]), value=sigma)
            committed += 1
            if (sw.q_sc is not None and q_now > sw.q_sc
                    and a >= self._pause_rearm_at):
                pause_at = a
                self._pause_rearm_at = a + sw.pause_duration
                sw.stats.pauses_sent += self.pause_fanout
                if sw.obs is not None:
                    sw.obs.event("pause_on", a, engine=sw.obs_engine,
                                 node=sw.cpid, value=sw.pause_duration)
                    sw.obs.event("pause_off", a + sw.pause_duration,
                                 engine=sw.obs_engine, node=sw.cpid)
                pause_limit = min(a + self.pause_commit_horizon, t_end)
                t_commit = pause_limit
        # drain services through the commit horizon
        while backlog and next_free <= t_commit:
            starts.append(next_free)
            next_free += ssvc
            backlog -= 1
            any_started = True

        starts_arr = np.asarray(starts, dtype=float)
        delivered = int(np.searchsorted(starts_arr + ssvc, t_commit,
                                        side="right"))
        if prev_inflight and t_start < prev_next_free <= t_commit:
            delivered += 1
        if any_started:
            self._next_free = next_free
            self._inflight = next_free > t_commit
        elif prev_inflight and prev_next_free <= t_commit:
            self._inflight = False
        self._backlog = backlog

        delivered_bits = float(delivered * L)
        sw.stats.forwarded_frames += delivered
        sw.stats.forwarded_bits += delivered_bits
        sw.queue.dequeued_frames += len(starts)
        sw.queue.dequeued_bits += float(len(starts) * L)

        self._win_arrivals = np.asarray(acc_arrivals, dtype=float)
        self._win_starts = starts_arr

        if msg_rows:
            cols = list(zip(*msg_rows))
            msg_t = np.asarray(cols[0], dtype=float)
            msg_src = np.asarray(cols[1])
            msg_sigma = np.asarray(cols[2], dtype=float)
            msg_q_off = np.asarray(cols[3], dtype=float)
            msg_dq = np.asarray(cols[4], dtype=float)
            msg_fb = np.asarray(cols[5], dtype=float)
        else:
            msg_t = msg_src = msg_fb = msg_sigma = np.empty(0)
            msg_q_off = msg_dq = np.empty(0)

        return BatchedWindow(
            t_start=t_start, t_commit=t_commit, committed=committed,
            msg_t=msg_t, msg_src=msg_src, msg_fb=msg_fb,
            msg_sigma=msg_sigma, msg_q_off=msg_q_off, msg_dq=msg_dq,
            pause_at=pause_at, delivered_bits=delivered_bits, drops=drops,
        )
