"""Backend selection for the packet and fluid kernels.

Two tiers (override with ``REPRO_KERNEL_BACKEND`` set to ``auto`` /
``cffi`` / ``numpy``):

``numpy``
    No compiled code, and the oracle the C tier is checked against.
    :class:`KernelBackend` supplies the window loop's per-window
    closures (``bind_pacing_plan``, ``bind_merge_trains``,
    ``bind_pacing_commit``, ``bind_owed_repay``,
    ``bind_apply_messages``) and the switch window's
    (``bind_packet_plan``, ``bind_packet_commit`` and the drop-window
    loop ``packet_scalar``, which
    :class:`~repro.simulation.switch.BatchedSwitchKernel` drives); the
    fluid entry point runs :func:`repro.fluid.batch.simulate_fluid_batch`.
    ``engine="batched"`` always runs on this tier, and
    ``engine="compiled"`` falls back to it without a C compiler.
``cffi``
    The C kernels of :mod:`repro.kernels._cbuild`, compiled once into
    a content-addressed cache directory.  They run the same float64
    operations in the same order as the numpy tier, so the two tiers
    agree bit for bit.  This tier alone has three entry points, each
    bit for bit with the python or numpy loop that runs on the numpy
    tier: ``fluid_rows`` (the batch fluid kernel), ``delayed`` (the
    delayed-feedback model's method of steps) and ``event_core``
    (the ``engine="reference"`` dumbbell's and a fabric's events).
    ``auto`` picks this tier whenever cffi and a C compiler are
    available.

Neither tier restates the BCN control law.  The numpy closures call
the python law, :func:`~repro.simulation.switch.bcn_feedback` (sigma,
eq. 1, and the emission rule; ``bind_packet_commit`` is its one array
form), :func:`~repro.simulation.switch.quantize_fb` (the FB field) and
:func:`~repro.simulation.source.rate_law` (eqs. 2/7), which the
reference ``CoreSwitch`` and ``RateRegulator`` call too; the C kernels
share its compiled twins ``bcn_sample``, ``quant_fb`` and
``bcn_rate_step`` in :mod:`repro.kernels._cbuild`.

The one-time C build cost is accumulated in ``warmup_seconds`` and
surfaced to the observability layer by :func:`consume_warmup_span`, so
``repro profile`` separates first-call compilation from steady-state
kernel time.
"""

from __future__ import annotations

import math
import os

import numpy as np

from ..simulation.source import rate_law
from ..simulation.switch import bcn_feedback, quantize_fb

__all__ = [
    "KernelBackend",
    "consume_warmup_span",
    "get_backend",
    "reset_backend",
]

#: obs span name under which warm-up/compile time is recorded.
WARMUP_SPAN = "kernels.jit_warmup"

#: Accepted ``REPRO_KERNEL_BACKEND`` values.
_CHOICES = ("auto", "cffi", "numpy")


class KernelBackend:
    """Uniform facade over one backend tier; this base class is the
    numpy tier.

    The packet window loop calls the same kernels every window on the
    same preallocated arrays.  ``bind_*`` returns a closure with the
    persistent arrays (and per-run constants) already captured, so the
    per-window call passes only what changes.  The cffi tier overrides
    every entry point (the ``bind_*`` methods and ``packet_scalar``)
    with the same signatures to call C through precomputed pointer
    casts.  Callers must re-bind after replacing
    any captured array object.  ``compiled`` tells callers whether the
    calls run native code.
    """

    name = "numpy"
    compiled = False
    #: One-time compile/warm-up cost paid constructing this backend.
    warmup_seconds = 0.0

    def bind_pacing_plan(self, next_emit, paused, active, remaining, gaps,
                         first, counts):
        def call(until):
            # A source's train starts at its pending emission, deferred
            # past a PAUSE; it holds every gap that fits before `until`,
            # capped at the frames a finite flow has left.
            np.maximum(next_emit, paused, out=first)
            counts_f = np.where(
                (active != 0) & (first <= until),
                np.floor((until - first) / gaps) + 1.0,
                0.0,
            )
            counts[:] = np.minimum(counts_f, remaining)
            return int(counts.sum())

        return call

    def bind_pacing_commit(self, srcs, first, gaps, counts, any_finite,
                           next_emit, remaining, active, frames_acc,
                           comm, fin_idx, fin_t):
        n = next_emit.shape[0]

        def call(m_committed):
            # Advance each source's pacing by its committed prefix while
            # the planning rate is still in force.
            comm[:] = np.bincount(srcs[:m_committed], minlength=n)
            frames_acc[:] += comm
            has = comm > 0
            next_emit[has] = first[has] + gaps[has] * comm[has]
            held = (counts > 0) & ~has  # planned but cut off (PAUSE)
            next_emit[held] = first[held]
            if not any_finite:
                return 0
            remaining[has] -= comm[has]
            finished = np.flatnonzero(has & (remaining <= 0))
            n_fin = finished.size
            # Send-side FCT: emission time of the last frame, matching
            # TrafficSource._emit in the reference path.
            fin_idx[:n_fin] = finished
            fin_t[:n_fin] = first[finished] + gaps[finished] * (
                comm[finished] - 1)
            active[finished] = 0
            return n_fin

        return call

    def bind_merge_trains(self, first, gaps, counts, assoc,
                          out_t, out_src, out_assoc):
        src_idx = np.arange(first.shape[0])

        def call(d):
            # Concatenate the arithmetic trains, then a stable argsort:
            # time ties resolve in ascending source order.
            total = int(counts.sum())
            srcs = np.repeat(src_idx, counts)
            ends = np.cumsum(counts)
            offsets = np.arange(total) - np.repeat(ends - counts, counts)
            times = (np.repeat(first, counts)
                     + np.repeat(gaps, counts) * offsets + d)
            order = np.argsort(times, kind="stable")
            out_t[:total] = times[order]
            out_src[:total] = srcs[order]
            out_assoc[:total] = assoc[out_src[:total]]
            return total

        return call

    def bind_owed_repay(self, owed, next_emit, rates):
        def call(until, nxt):
            # A positive balance means the new rate would have sent more
            # bits before the boundary, so the next emission moves
            # earlier (clamped to stay beyond the planned horizon; the
            # unpaid remainder carries over).  Sources holding a cut-off
            # emission keep their schedule.
            if not owed.any():
                return
            target = np.where(next_emit > until,
                              np.maximum(next_emit - owed / rates, nxt),
                              next_emit)
            owed[:] -= (next_emit - target) * rates
            next_emit[:] = target

        return call

    def bind_apply_messages(self, mode, gi, gd, ru, max_dt, d, rate,
                            last_update, assoc8, updates, min_rate,
                            line_rate, owed, out_d):
        def call(msg_t, msg_src, msg_fb, msg_sigma, t_commit):
            # rate_law over struct-of-array state, message by message
            # (mode: a REGULATOR_MODES code).  Each rate change accrues
            # the owed-bits ledger for the lag to the commit boundary
            # and moves the running total rate kept in out_d[0].
            total_rate = out_d[0]
            for k in range(msg_t.shape[0]):
                i = int(msg_src[k])
                now = msg_t[k] + d
                r0 = rate[i]
                r, last_update[i], hold = rate_law(
                    mode, gi, gd, ru, max_dt, min_rate[i], line_rate[i], r0,
                    last_update[i], now, msg_fb[k], msg_sigma[k])
                rate[i] = r
                updates[i] += 1
                if hold is not None:
                    assoc8[i] = hold
                if r != r0:
                    delta = r - r0
                    lag = t_commit - now
                    if lag < 0.0:
                        lag = 0.0
                    owed[i] += delta * lag
                    total_rate += delta
            out_d[0] = total_rate

        return call

    # -- the switch window (BatchedSwitchKernel.process drives these) ----

    def bind_packet_plan(self, L, B, q_sc, pause_horizon, starts,
                         completions, q_bits, out_d, out_i):
        def call(times, t_start, t_end, ssvc, n_res, next_free, inflight,
                 frozen_until, pause_rearm_at):
            # Plan one window without touching state.  The no-drop
            # Lindley hull over n_res residual frames (queued at
            # t_start) then the arrivals: completion k is ssvc*k past
            # the latest of the service floor c0 and every earlier
            # frame's backlog-free start.  out_i = [needs_scalar,
            # m_eff, total_eff]; out_d = [pause_at (NaN: none),
            # t_commit].
            m = times.shape[0]
            total = n_res + m
            c0 = next_free if inflight else t_start
            c0 = max(c0, frozen_until)
            needs_scalar, m_eff = 0, m
            pause_at, t_commit = math.nan, t_end
            if total:
                arrivals = (np.concatenate([np.full(n_res, t_start), times])
                            if n_res else times)
                k = np.arange(1.0, total + 1.0)
                hull = np.maximum.accumulate(arrivals - ssvc * (k - 1.0))
                comp = np.multiply(k, ssvc, out=completions[:total])
                comp += np.maximum(hull, c0, out=hull)
                np.subtract(comp, ssvc, out=starts[:total])
            if m:
                # Occupancy just after each arrival is offered (own
                # frame included, in-service frame excluded).  A start
                # exactly at the arrival instant counts as "before"
                # only when it belongs to an earlier frame (the
                # reference engine processes the completion that
                # triggered it first); the arrival's own immediate
                # start must not.  searchsorted side="right" plus a
                # clamp at the frame's own position gets both, and is
                # robust to a reconstructed start rounding one ulp
                # below the arrival it equals.
                own = np.arange(n_res, total)
                started_before = np.minimum(
                    starts[:total].searchsorted(times, side="right"), own)
                q = (own + 1 - started_before) * L
                over = q > B
                if over.any():
                    # Drop-tail engages: the window goes to
                    # packet_scalar; occupancies stop at the first drop.
                    needs_scalar = 1
                    q = q[:int(over.argmax()) + 1]
                q_bits[:q.shape[0]] = q
                if not needs_scalar and q_sc == q_sc:
                    hits = (q > q_sc) & (times >= pause_rearm_at)
                    if hits.any():
                        # Commit through the in-flight horizon (frames
                        # the PAUSE cannot take back), defer the rest.
                        cut = int(hits.argmax())
                        pause_at = float(times[cut])
                        t_commit = min(pause_at + pause_horizon, t_end)
                        m_eff = max(int(times.searchsorted(
                            t_commit, side="right")), cut + 1)
            out_i[0], out_i[1], out_i[2] = needs_scalar, m_eff, n_res + m_eff
            out_d[0], out_d[1] = pause_at, t_commit

        return call

    def bind_packet_commit(self, pm, q0, w, pos_only, req_assoc,
                           sigma_unit, full_scale, q_bits, starts,
                           completions, msg_t, msg_src, msg_sigma, msg_fb,
                           samp_t, samp_sigma, out_d, out_i):
        def call(m_eff, n_res, times, srcs, assoc, t_start, t_commit,
                 prev_inflight, prev_next_free, uniforms, use_rng,
                 interval, since, q_prev):
            # Commit the planned no-drop window: sampling (pre-drawn
            # uniforms when use_rng, else the deterministic counter),
            # sigma (eq. 1), BCN messages and service accounting.
            # sigma_unit is NaN for raw-sigma feedback.  out_i = [n_msg,
            # n_samp, neg, pos, delivered, n_started, backlog, inflight,
            # since]; out_d = [next_free, q_at_last_sample].
            total_eff = n_res + m_eff
            if use_rng:
                sampled = uniforms[:m_eff] < pm
            else:
                sampled = (since + np.arange(1, m_eff + 1)) % interval == 0
                since = (since + m_eff) % interval
            sample_idx = sampled.nonzero()[0]
            n_samp = sample_idx.shape[0]
            n_msg = neg = pos = 0
            prev = q_prev
            if n_samp:
                qs = q_bits[sample_idx]
                dq = np.empty(n_samp)
                dq[0] = qs[0] - q_prev
                np.subtract(qs[1:], qs[:-1], out=dq[1:])
                sigma = (q0 - qs) - w * dq
                prev = float(qs[-1])
                samp_t[:n_samp] = times[sample_idx]
                samp_sigma[:n_samp] = sigma
                negative = sigma < 0
                positive = (sigma > 0) & ((qs < q0) | (not pos_only))
                if req_assoc:
                    positive &= assoc[sample_idx] != 0
                neg = int(np.count_nonzero(negative))
                pos = int(np.count_nonzero(positive))
                emit = negative | positive
                n_msg = neg + pos
                msg_t[:n_msg] = samp_t[:n_samp][emit]
                msg_src[:n_msg] = srcs[sample_idx[emit]]
                msg_sigma[:n_msg] = sigma[emit]
                msg_fb[:n_msg] = quantize_fb(sigma[emit], sigma_unit,
                                             full_scale)
            delivered = int(completions[:total_eff].searchsorted(
                t_commit, side="right"))
            if prev_inflight and t_start < prev_next_free <= t_commit:
                delivered += 1
            n_started = int(starts[:total_eff].searchsorted(
                t_commit, side="right"))
            next_free, inflight = prev_next_free, prev_inflight
            if n_started:
                next_free = float(completions[n_started - 1])
                inflight = 1 if next_free > t_commit else 0
            elif prev_inflight and prev_next_free <= t_commit:
                inflight = 0
            out_i[:] = (n_msg, n_samp, neg, pos, delivered, n_started,
                        total_eff - n_started, inflight, since)
            out_d[0], out_d[1] = next_free, prev

        return call

    def packet_scalar(self, times, srcs, assoc, uniforms, use_rng, pm,
                      interval, since, t_start, t_end, ssvc, L, B, q_sc, q0,
                      w, pos_only, req_assoc, sigma_unit, full_scale, backlog,
                      next_free0, inflight, frozen_until, pause_rearm_at,
                      pause_duration, pause_horizon, q_prev, msg_t, msg_src,
                      msg_sigma, msg_fb, samp_t, samp_sigma, msg_j, drop_j,
                      acc_arrivals, starts_out, pause_j, out_d, out_i):
        """The window loop frame by frame, for windows where drop-tail
        engages (:meth:`CoreSwitch.receive` semantics).

        ``uniforms`` holds one draw per arrival; the caller rewinds its
        generator to the committed count.  ``msg_j``, ``drop_j`` and
        ``pause_j`` give the arrival index of each message, drop and
        PAUSE firing.  out_i = [committed, n_msg, n_samp, n_drop,
        delivered, backlog, inflight, since, n_starts, n_acc, neg, pos,
        any_started, n_pause]; out_d = [pause_at, t_commit, next_free,
        q_at_last_sample, pause_rearm_at].
        """
        prev_next_free = next_free0
        # next_free doubles as the next start time of a backlogged
        # frame; flooring it at the outage freezes starts without
        # touching the in-flight completion.
        next_free = next_free0 if inflight else -math.inf
        next_free = max(next_free, t_start, frozen_until)
        draws = uniforms.tolist() if use_rng else ()
        acc = [t_start] * backlog
        starts: list[float] = []
        samples: list[tuple[float, float]] = []
        msgs: list[tuple[int, float]] = []
        drops: list[int] = []
        pauses: list[int] = []
        any_started = committed = neg = pos = 0
        pause_at, pause_limit, t_commit = math.nan, math.inf, t_end
        q_last = q_prev
        for j, a in enumerate(times.tolist()):
            if a > pause_limit:
                break  # beyond the PAUSE's in-flight horizon: deferred
            # services that started strictly before this arrival
            while backlog and next_free < a:
                starts.append(next_free)
                next_free += ssvc
                backlog -= 1
                any_started = 1
            # sampling decision consumed before the offer, as in receive()
            if use_rng:
                sampled = draws[j] < pm
            else:
                since += 1
                sampled = since >= interval
                if sampled:
                    since = 0
            occ = backlog * L
            if occ + L <= B:
                acc.append(a)
                if backlog == 0 and next_free <= a:
                    starts.append(a)
                    next_free = a + ssvc
                    any_started = 1
                else:
                    backlog += 1
                q_now = occ + L
            else:
                drops.append(j)
                q_now = occ
            if sampled:
                sigma, _, emit = bcn_feedback(q_now, q_last, q0, w, pos_only,
                                              req_assoc, assoc[j] != 0)
                q_last = q_now
                samples.append((a, sigma))
                if emit:
                    msgs.append((j, sigma))
                    if emit < 0:
                        neg += 1
                    else:
                        pos += 1
            committed += 1
            if q_sc == q_sc and q_now > q_sc and a >= pause_rearm_at:
                pause_at = a
                pause_rearm_at = a + pause_duration
                pauses.append(j)
                pause_limit = t_commit = min(a + pause_horizon, t_end)
        # drain services through the commit horizon
        while backlog and next_free <= t_commit:
            starts.append(next_free)
            next_free += ssvc
            backlog -= 1
            any_started = 1

        n_msg, n_samp, n_starts = len(msgs), len(samples), len(starts)
        if n_msg:
            cols = list(zip(*msgs))
            js = np.array(cols[0], dtype=np.int64)
            msg_j[:n_msg] = js
            msg_t[:n_msg] = times[js]
            msg_src[:n_msg] = srcs[js]
            msg_sigma[:n_msg] = cols[1]
            msg_fb[:n_msg] = quantize_fb(msg_sigma[:n_msg], sigma_unit,
                                         full_scale)
        if n_samp:
            samp_t[:n_samp], samp_sigma[:n_samp] = zip(*samples)
        drop_j[:len(drops)] = drops
        pause_j[:len(pauses)] = pauses
        acc_arrivals[:len(acc)] = acc
        starts_out[:n_starts] = starts
        delivered = int(np.searchsorted(
            starts_out[:n_starts] + ssvc, t_commit, side="right"))
        if inflight and t_start < prev_next_free <= t_commit:
            delivered += 1
        out_next_free, out_inflight = prev_next_free, inflight
        if any_started:
            out_next_free = next_free
            out_inflight = 1 if next_free > t_commit else 0
        elif inflight and prev_next_free <= t_commit:
            out_inflight = 0
        out_i[:] = (committed, n_msg, n_samp, len(drops), delivered, backlog,
                    out_inflight, since, n_starts, len(acc), neg, pos,
                    any_started, len(pauses))
        out_d[:] = (pause_at, t_commit, out_next_free, q_last,
                    pause_rearm_at)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<KernelBackend {self.name} compiled={self.compiled}>"


#: The event core's grown outputs: field -> (count fields, dtype); an
#: output holds the product of its counts.  ``rec_q`` is sample-major,
#: one row of port queues per recorder tick, and a digest row is ``(now,
#: occupancy, forwarded frames, sum of rates)`` over every port.
_CORE_OUTPUTS = {
    "rec_t": (("n_rec",), "f8"), "rec_q": (("n_rec", "n_ports"), "f8"),
    "rec_r": (("n_rec",), "f8"),
    "sig_port": (("n_sig",), "i8"), "sig_t": (("n_sig",), "f8"),
    "sig_v": (("n_sig",), "f8"),
    "log_kind": (("n_log",), "i1"), "log_port": (("n_log",), "i8"),
    "log_t": (("n_log",), "f8"), "log_flow": (("n_log",), "i8"),
    "log_v": (("n_log",), "f8"),
    "dig": (("n_dig",), [("now", "f8"), ("occupancy", "f8"),
                         ("forwarded", "i8"), ("rate", "f8")]),
    "res_port": (("n_res",), "i8"), "res_src": (("n_res",), "i8"),
    "res_assoc": (("n_res",), "i8"), "res_t": (("n_res",), "f8"),
    **{f"pend_{x}": (("n_pend",), dtype) for x, dtype in (
        ("kind", "i1"), ("idx", "i8"), ("port", "i8"), ("seq", "i8"),
        ("t", "f8"), ("a", "f8"), ("b", "f8"), ("c", "f8"), ("d", "f8"),
        ("e", "f8"))},
}


class _CffiKernels(KernelBackend):
    """The C tier: every entry point of the numpy tier, same arguments,
    plus three C-only ones: the batch fluid kernel ``fluid_rows``, whose
    numpy oracle is :func:`repro.fluid.batch.simulate_fluid_batch`, the
    delayed fluid model's ``delayed``, whose oracle is the python loop
    of :func:`repro.fluid.delay.simulate_delayed`, and the reference
    networks' ``event_core``, whose oracle is the python ``Simulator``
    loop."""

    name = "cffi"
    compiled = True

    #: Entries kept in the pointer cache before it is flushed wholesale.
    _PCACHE_LIMIT = 1024

    def __init__(self) -> None:
        from . import _cbuild

        lib, ffi = _cbuild.load_cffi_kernels()
        self._lib = lib
        self._ffi = ffi
        # ``ffi.from_buffer`` + ``ffi.cast`` cost ~0.5 µs per argument,
        # which dominates the per-window overhead once the kernels are
        # fast.  The bound closures cast their persistent buffers once;
        # the per-call arrays (window slices, message columns, RNG
        # draws) are new objects nearly every call and mostly miss this
        # (id, ctype) cache: 48,640 of the 75,613 casts of the 96
        # compiled scenario runs in perfbench's fast_engines seed-1
        # plan.  Each entry keeps a strong reference to its array, which
        # both guarantees the id cannot be recycled while the entry
        # lives and keeps the cached pointer valid; the cache is flushed
        # when those transient arrays grow it past ``_PCACHE_LIMIT``.
        # ``fluid_rows``, ``delayed`` and ``event_core`` take one-shot
        # buffers, which the cache would pin, and so cast theirs per call.
        self._pcache: dict = {}
        self.warmup_seconds = _cbuild.build_seconds

    # -- pointer helpers --------------------------------------------------

    def _ptr(self, arr, ctype):
        key = (id(arr), ctype)
        ent = self._pcache.get(key)
        if ent is not None:
            return ent[1]
        p = self._ffi.cast(ctype, self._ffi.from_buffer(arr))
        if len(self._pcache) >= self._PCACHE_LIMIT:
            self._pcache.clear()
        self._pcache[key] = (arr, p)
        return p

    def _d(self, arr):
        return self._ptr(arr, "double *")

    def _i(self, arr):
        return self._ptr(arr, "int64_t *")

    def _u8(self, arr):
        return self._ptr(arr, "uint8_t *")

    # -- unbound kernels ---------------------------------------------------

    def packet_scalar(self, times, srcs, assoc, uniforms, use_rng, pm,
                      interval, since, t_start, t_end, ssvc, L, B, q_sc, q0,
                      w, pos_only, req_assoc, sigma_unit, full_scale, backlog,
                      next_free0, inflight, frozen_until, pause_rearm_at,
                      pause_duration, pause_horizon, q_prev, msg_t, msg_src,
                      msg_sigma, msg_fb, samp_t, samp_sigma, msg_j, drop_j,
                      acc_arrivals, starts_out, pause_j, out_d, out_i):
        self._lib.k_packet_scalar(
            times.shape[0], self._d(times), self._i(srcs), self._u8(assoc),
            self._d(uniforms), int(use_rng), float(pm), int(interval),
            int(since), float(t_start), float(t_end), float(ssvc), float(L),
            float(B), float(q_sc), float(q0), float(w), int(pos_only),
            int(req_assoc), float(sigma_unit), float(full_scale),
            int(backlog), float(next_free0), int(inflight),
            float(frozen_until), float(pause_rearm_at), float(pause_duration),
            float(pause_horizon), float(q_prev), self._d(msg_t),
            self._i(msg_src), self._d(msg_sigma), self._d(msg_fb),
            self._d(samp_t), self._d(samp_sigma), self._i(msg_j),
            self._i(drop_j), self._d(acc_arrivals), self._d(starts_out),
            self._i(pause_j), self._d(out_d), self._i(out_i),
        )

    def fluid_rows(self, lo, hi, x0, y0, t_grid, a, b, cap, k, q0, x_full,
                   x_empty, linear_dec, physical, max_switches, conv_rtol,
                   t_max, xs, ys, reason, switches, t_end, x_end, y_end,
                   ev_cap, n_events, ev_t, ev_kind, ev_x, ev_y, out_i):
        """Run ``k_fluid`` on rows ``[lo, hi)`` of the ``x0.shape[0]``-row
        buffers; ``out_i`` receives this range's ``[last, overflow]``.

        The buffers are one-shot and the call may run on a worker
        thread, so the pointers bypass the shared pointer cache: each
        ``from_buffer`` lives only as long as the call.
        """
        buf = self._ffi.from_buffer
        self._lib.k_fluid(
            x0.shape[0], int(lo), int(hi), t_grid.shape[0] - 1,
            buf("double[]", t_grid), buf("double[]", x0),
            buf("double[]", y0), float(a), float(b), float(cap), float(k),
            float(q0), float(x_full), float(x_empty), int(linear_dec),
            int(physical), int(max_switches), float(conv_rtol),
            float(t_max), buf("double[]", xs), buf("double[]", ys),
            buf("int8_t[]", reason), buf("int64_t[]", switches),
            buf("double[]", t_end), buf("double[]", x_end),
            buf("double[]", y_end), int(ev_cap), buf("int64_t[]", n_events),
            buf("double[]", ev_t), buf("int8_t[]", ev_kind),
            buf("double[]", ev_x), buf("double[]", ev_y),
            buf("int64_t[]", out_i),
        )

    def delayed(self, tau, step, a, b, cap, k, s_initial, limit, t, x, y):
        """Run ``k_delayed``, the delayed fluid model's method of steps,
        from sample 0 of ``t``/``x``/``y`` over their remaining slots;
        returns the sample count.  Its oracle is
        :func:`repro.fluid.delay._simulate_delayed_python`.  The buffers
        are one-shot, so they bypass the pointer cache."""
        buf = self._ffi.from_buffer
        return self._lib.k_delayed(
            t.shape[0] - 1, float(tau), float(step), float(a), float(b),
            float(cap), float(k), float(s_initial), float(limit),
            buf("double[]", t), buf("double[]", x), buf("double[]", y))

    def event_core(self, scalars, arrays):
        """Run one reference network's events in C (``k_event_core``).

        ``scalars`` and ``arrays`` fill the ``ev_core`` struct field by
        field; ``arrays`` must name every input array (the per-source,
        per-port, wiring and timed-event state), and the state ones are
        updated in place.  Returns every scalar field after the run plus
        copies of the outputs the core grew: recorder series ``rec_*``,
        sigma history ``sig_*``, obs log ``log_*``, digest rows ``dig``,
        the frames left in the queues ``res_*`` and the events still
        pending at the horizon ``pend_*``.  Its oracle is the python
        ``Simulator`` loop of
        :class:`~repro.simulation.network.BCNNetworkSimulator` (one
        port) and :class:`~repro.simulation.multihop.MultiHopNetwork`.
        """
        ffi, lib = self._ffi, self._lib
        core = ffi.new("ev_core *")
        inputs = {name for name, field in ffi.typeof("ev_core").fields
                  if field.type.kind == "pointer"} - set(_CORE_OUTPUTS)
        if set(arrays) != inputs:
            raise ValueError(
                f"the event core needs exactly the arrays {sorted(inputs)}")
        keep = []
        for name, value in scalars.items():
            setattr(core, name, value)
        for name, arr in arrays.items():
            buf = ffi.from_buffer(arr, require_writable=True)
            keep.append(buf)
            setattr(core, name, ffi.cast(ffi.typeof(getattr(core, name)), buf))
        try:
            if lib.k_event_core(core) != 0:
                raise MemoryError("the event core could not grow its buffers")
            out = {name: getattr(core, name)
                   for name, field in ffi.typeof("ev_core").fields
                   if field.type.kind == "primitive"}
            for name, (counts, dtype) in _CORE_OUTPUTS.items():
                n = math.prod(out[count] for count in counts)
                dt = np.dtype(dtype)
                out[name] = (np.frombuffer(
                    ffi.buffer(getattr(core, name), n * dt.itemsize),
                    dtype=dt).copy() if n else np.empty(0, dt))
        finally:
            lib.k_event_core_free(core)
        return out

    # -- bound fast-call closures (pointer casts hoisted out of the loop) --
    #
    # Each closure keeps a reference to the arrays it captured (``keep``)
    # so the cached pointers can never outlive their buffers, even if
    # the pointer cache is flushed.

    def bind_pacing_plan(self, next_emit, paused, active, remaining, gaps,
                         first, counts):
        lib = self._lib
        n = next_emit.shape[0]
        keep = (next_emit, paused, active, remaining, gaps, first, counts)
        p_ne, p_pa = self._d(next_emit), self._d(paused)
        p_ac, p_re = self._u8(active), self._d(remaining)
        p_ga, p_fi, p_co = self._d(gaps), self._d(first), self._i(counts)

        def call(until, _keep=keep):
            return lib.k_pacing_plan(n, p_ne, p_pa, p_ac, p_re, p_ga,
                                     until, p_fi, p_co)

        return call

    def bind_pacing_commit(self, srcs, first, gaps, counts, any_finite,
                           next_emit, remaining, active, frames_acc,
                           comm, fin_idx, fin_t):
        lib = self._lib
        n = next_emit.shape[0]
        keep = (srcs, first, gaps, counts, next_emit, remaining, active,
                frames_acc, comm, fin_idx, fin_t)
        p_sr = self._i(srcs)
        p_fi, p_ga, p_co = self._d(first), self._d(gaps), self._i(counts)
        p_ne, p_re = self._d(next_emit), self._d(remaining)
        p_ac, p_fr = self._u8(active), self._i(frames_acc)
        p_cm, p_fx, p_ft = self._i(comm), self._i(fin_idx), self._d(fin_t)
        af = int(any_finite)

        def call(m_committed, _keep=keep):
            return lib.k_pacing_commit(n, m_committed, p_sr, p_fi, p_ga,
                                       p_co, af, p_ne, p_re, p_ac, p_fr,
                                       p_cm, p_fx, p_ft)

        return call

    def bind_merge_trains(self, first, gaps, counts, assoc,
                          out_t, out_src, out_assoc):
        lib = self._lib
        n = first.shape[0]
        keep = (first, gaps, counts, assoc, out_t, out_src, out_assoc)
        p_fi, p_ga, p_co = self._d(first), self._d(gaps), self._i(counts)
        p_as = self._u8(assoc)
        p_ot, p_os, p_oa = (self._d(out_t), self._i(out_src),
                            self._u8(out_assoc))

        def call(d, _keep=keep):
            total = lib.k_merge_trains(n, p_fi, p_ga, p_co, p_as, d,
                                       p_ot, p_os, p_oa)
            if total < 0:
                raise MemoryError(
                    f"cannot allocate the train-merge heap for {n} sources")
            return total

        return call

    def bind_owed_repay(self, owed, next_emit, rates):
        lib = self._lib
        n = owed.shape[0]
        keep = (owed, next_emit, rates)
        p_ow, p_ne, p_ra = (self._d(owed), self._d(next_emit),
                            self._d(rates))

        def call(until, nxt, _keep=keep):
            lib.k_owed_repay(n, p_ow, p_ne, p_ra, until, nxt)

        return call

    def bind_apply_messages(self, mode, gi, gd, ru, max_dt, d, rate,
                            last_update, assoc8, updates, min_rate,
                            line_rate, owed, out_d):
        lib = self._lib
        _d = self._d
        _i = self._i
        keep = (rate, last_update, assoc8, updates, min_rate, line_rate,
                owed, out_d)
        p_ra, p_lu = _d(rate), _d(last_update)
        p_as, p_up = self._u8(assoc8), _i(updates)
        p_mi, p_li = _d(min_rate), _d(line_rate)
        p_ow, p_od = _d(owed), _d(out_d)
        mode_i, max_dt_f = int(mode), float(max_dt)
        gi_f, gd_f, ru_f, d_f = float(gi), float(gd), float(ru), float(d)

        def call(msg_t, msg_src, msg_fb, msg_sigma, t_commit, _keep=keep):
            lib.k_apply_messages(
                msg_t.shape[0], _d(msg_t), _i(msg_src), _d(msg_fb),
                _d(msg_sigma), mode_i, gi_f, gd_f, ru_f, max_dt_f, d_f,
                t_commit, p_ra, p_lu, p_as, p_up, p_mi, p_li, p_ow, p_od,
            )

        return call

    def bind_packet_plan(self, L, B, q_sc, pause_horizon, starts,
                         completions, q_bits, out_d, out_i):
        lib = self._lib
        _d = self._d
        keep = (starts, completions, q_bits, out_d, out_i)
        p_st, p_cp, p_qb = _d(starts), _d(completions), _d(q_bits)
        p_od, p_oi = _d(out_d), self._i(out_i)
        L_f, B_f = float(L), float(B)
        q_sc_f, hor_f = float(q_sc), float(pause_horizon)

        def call(times, t_start, t_end, ssvc, n_res, next_free, inflight,
                 frozen_until, pause_rearm_at, _keep=keep):
            lib.k_packet_plan(
                times.shape[0], _d(times), t_start, t_end, ssvc, L_f,
                B_f, q_sc_f, n_res, next_free, inflight, frozen_until,
                pause_rearm_at, hor_f, p_st, p_cp, p_qb, p_od, p_oi,
            )

        return call

    def bind_packet_commit(self, pm, q0, w, pos_only, req_assoc,
                           sigma_unit, full_scale, q_bits, starts,
                           completions, msg_t, msg_src, msg_sigma, msg_fb,
                           samp_t, samp_sigma, out_d, out_i):
        lib = self._lib
        _d = self._d
        _i = self._i
        _u8 = self._u8
        keep = (q_bits, starts, completions, msg_t, msg_src, msg_sigma,
                msg_fb, samp_t, samp_sigma, out_d, out_i)
        p_qb, p_st, p_cp = _d(q_bits), _d(starts), _d(completions)
        p_mt, p_ms, p_mg, p_mf = (_d(msg_t), _i(msg_src), _d(msg_sigma),
                                  _d(msg_fb))
        p_st2, p_ss = _d(samp_t), _d(samp_sigma)
        p_od, p_oi = _d(out_d), _i(out_i)
        pm_f, q0_f, w_f = float(pm), float(q0), float(w)
        po_i, ra_i = int(pos_only), int(req_assoc)
        su_f, fs_f = float(sigma_unit), float(full_scale)

        def call(m_eff, n_res, times, srcs, assoc, t_start, t_commit,
                 prev_inflight, prev_next_free, uniforms, use_rng,
                 interval, since, q_prev, _keep=keep):
            lib.k_packet_commit(
                m_eff, n_res, _d(times), _i(srcs), _u8(assoc), p_qb,
                p_st, p_cp, t_start, t_commit, prev_inflight,
                prev_next_free, _d(uniforms), use_rng, pm_f, interval,
                since, q_prev, q0_f, w_f, po_i, ra_i, su_f, fs_f,
                p_mt, p_ms, p_mg, p_mf, p_st2, p_ss,
                p_od, p_oi,
            )

        return call


_BACKEND: KernelBackend | None = None
_WARMUP_REPORTED = False


def _select(choice: str) -> KernelBackend:
    if choice in ("auto", "cffi"):
        try:
            return _CffiKernels()
        except Exception:
            if choice == "cffi":
                raise
    return KernelBackend()


def get_backend() -> KernelBackend:
    """Return the process-wide kernel backend (built on first use)."""
    global _BACKEND
    if _BACKEND is None:
        choice = os.environ.get("REPRO_KERNEL_BACKEND", "auto").lower()
        if choice not in _CHOICES:
            raise ValueError(
                f"REPRO_KERNEL_BACKEND={choice!r}: expected "
                f"{'|'.join(_CHOICES)}"
            )
        _BACKEND = _select(choice)
    return _BACKEND


def reset_backend() -> None:
    """Drop the cached backend (tests switch tiers via the env var)."""
    global _BACKEND, _WARMUP_REPORTED
    _BACKEND = None
    _WARMUP_REPORTED = False


def consume_warmup_span(obs) -> None:
    """Record the one-time C build cost as a ``repro.obs`` span.

    Called by the engines right after their first kernel use; the span
    is emitted once per process so ``repro profile`` attributes warm-up
    separately from steady-state kernel time.
    """
    global _WARMUP_REPORTED
    if obs is None or not getattr(obs, "enabled", False) or _WARMUP_REPORTED:
        return
    backend = get_backend()
    if backend.warmup_seconds > 0.0:
        obs.add_span(f"{WARMUP_SPAN}.{backend.name}",
                     backend.warmup_seconds)
    _WARMUP_REPORTED = True
