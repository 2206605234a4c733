"""Scalar (per-element) kernel bodies: the executable spec of every tier.

These functions are the *semantic source of truth* for the compiled
hot paths: each one is written in plain scalar style (numpy arrays,
scalar arithmetic, no python objects) so the same body serves two
tiers:

* ``cffi`` (C) — :mod:`repro.kernels._cbuild` carries a C translation
  with the same float64 operation order, differentially tested for
  bit-identical float64 output against these bodies in
  ``tests/unit/test_kernels.py``.  The packet kernels follow their
  bodies statement by statement; the C fluid kernel runs step-major
  over an array of row states where :func:`fluid_rows` runs one row at
  a time, which is exact because the rows are independent;
* plain python — the numpy tier runs the bodies as-is (slowly) where it
  has no vectorized closure of its own, which is also what the unit
  tests exercise on machines without a C compiler.

The floating-point operation *order* in each body deliberately mirrors
the vectorized numpy implementations in
:class:`repro.simulation.switch.BatchedSwitchKernel` and
:mod:`repro.fluid.batch` element-by-element, so a compiled engine run
reproduces the batched engines bit-for-bit (transcendental calls —
``exp``/``log`` — may differ by ulps across libm builds; everything
else is exact).

Calling convention: outputs are written into caller-preallocated numpy
arrays; scalar results travel through small ``out_d`` (float64) /
``out_i`` (int64) arrays so the signatures stay identical across
tiers (C pointers, python arrays).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "merge_trains",
    "pacing_plan",
    "pacing_commit",
    "owed_repay",
    "packet_plan",
    "packet_commit",
    "packet_scalar",
    "apply_messages",
    "fluid_rows",
]

_NEG_INF = -math.inf


# ---------------------------------------------------------------------------
# packet: frame-train planning (k-way merge of arithmetic emission trains)
# ---------------------------------------------------------------------------

def merge_trains(first, gaps, counts, assoc, d, out_t, out_src, out_assoc):
    """Merge per-source arithmetic emission trains into one sorted train.

    Source ``i`` emits ``counts[i]`` frames at ``first[i] + gaps[i]*k + d``
    (``k = 0..counts[i]-1``).  Output order is (time, source index) —
    identical to the stable argsort of the concatenated trains the
    batched engine performs.  Returns the total emitted count.
    """
    n_src = first.shape[0]
    m = 0
    for i in range(n_src):
        m += int(counts[i])
    if m == 0:
        return 0

    # array-based binary heap of (next_time, src), keyed lexicographically
    hp_t = np.empty(n_src, dtype=np.float64)
    hp_s = np.empty(n_src, dtype=np.int64)
    size = 0
    emitted = np.zeros(n_src, dtype=np.int64)
    for i in range(n_src):
        if counts[i] > 0:
            t0 = first[i] + gaps[i] * 0.0 + d
            # sift-up insert
            j = size
            hp_t[j] = t0
            hp_s[j] = i
            size += 1
            while j > 0:
                parent = (j - 1) >> 1
                if (hp_t[j] < hp_t[parent]) or (
                    hp_t[j] == hp_t[parent] and hp_s[j] < hp_s[parent]
                ):
                    hp_t[j], hp_t[parent] = hp_t[parent], hp_t[j]
                    hp_s[j], hp_s[parent] = hp_s[parent], hp_s[j]
                    j = parent
                else:
                    break
    for out in range(m):
        t = hp_t[0]
        i = hp_s[0]
        out_t[out] = t
        out_src[out] = i
        out_assoc[out] = assoc[i]
        emitted[i] += 1
        if emitted[i] < counts[i]:
            nt = first[i] + gaps[i] * float(emitted[i]) + d
            hp_t[0] = nt
            hp_s[0] = i
        else:
            size -= 1
            hp_t[0] = hp_t[size]
            hp_s[0] = hp_s[size]
        # sift-down
        j = 0
        while True:
            left = 2 * j + 1
            if left >= size:
                break
            right = left + 1
            small = left
            if right < size and (
                hp_t[right] < hp_t[left]
                or (hp_t[right] == hp_t[left] and hp_s[right] < hp_s[left])
            ):
                small = right
            if (hp_t[small] < hp_t[j]) or (
                hp_t[small] == hp_t[j] and hp_s[small] < hp_s[j]
            ):
                hp_t[j], hp_t[small] = hp_t[small], hp_t[j]
                hp_s[j], hp_s[small] = hp_s[small], hp_s[j]
                j = small
            else:
                break
    return m


# ---------------------------------------------------------------------------
# packet: per-window source pacing (plan / commit / owed-bits repayment)
# ---------------------------------------------------------------------------

def pacing_plan(next_emit, paused, active, remaining, gaps, until,
                first, counts):
    """Plan one window of per-source frame emission.

    Element-by-element identical to the batched engine's vectorized
    plan: ``first = max(next_emit, paused)``, then for each active
    source whose train reaches into the window, the emission count is
    ``floor((until - first) / gap) + 1`` clipped to the frames it has
    left.  Writes ``first``/``counts`` in place and returns the total.
    """
    n = next_emit.shape[0]
    total = 0
    for i in range(n):
        f = next_emit[i]
        if paused[i] > f:
            f = paused[i]
        first[i] = f
        c = 0
        if active[i] != 0 and f <= until:
            cf = math.floor((until - f) / gaps[i]) + 1.0
            if remaining[i] < cf:
                cf = remaining[i]
            c = int(cf)
        counts[i] = c
        total += c
    return total


def pacing_commit(srcs, m_committed, first, gaps, counts, any_finite,
                  next_emit, remaining, active, frames_acc, comm,
                  fin_idx, fin_t):
    """Fold a window's committed arrivals back into the pacing state.

    Counts the committed frames per source (``srcs[:m_committed]``),
    advances ``next_emit`` (sources whose frames were all held keep
    their planned ``first``), and — when ``any_finite`` — decrements
    ``remaining`` and retires finished sources, writing their index and
    finish time into ``fin_idx``/``fin_t``.  Returns the number of
    finished sources.
    """
    n = next_emit.shape[0]
    for i in range(n):
        comm[i] = 0
    for k in range(m_committed):
        comm[srcs[k]] += 1
    n_fin = 0
    for i in range(n):
        c = comm[i]
        frames_acc[i] += c
        if c > 0:
            next_emit[i] = first[i] + gaps[i] * float(c)
            if any_finite != 0:
                remaining[i] -= float(c)
                if remaining[i] <= 0.0:
                    active[i] = 0
                    fin_idx[n_fin] = i
                    fin_t[n_fin] = first[i] + gaps[i] * (float(c) - 1.0)
                    n_fin += 1
        elif counts[i] > 0:
            next_emit[i] = first[i]
    return n_fin


def owed_repay(owed, next_emit, rates, until, nxt):
    """Repay the owed-bits lag ledger by advancing emission times.

    For each source whose next emission lies beyond the window
    (``next_emit > until``) the emission moves earlier by
    ``owed / rate`` seconds, floored at ``nxt`` (the caller passes
    ``np.nextafter(until, inf)``), and the ledger is debited by the
    bits actually moved.  Elementwise identical to the batched
    engine's vectorized repayment; entries with zero owed bits are
    bit-exact no-ops, so the call needs no emptiness gate.
    """
    n = owed.shape[0]
    for i in range(n):
        ne = next_emit[i]
        if ne > until:
            t = ne - owed[i] / rates[i]
            if t < nxt:
                t = nxt
            owed[i] -= (ne - t) * rates[i]
            next_emit[i] = t


# ---------------------------------------------------------------------------
# packet: window planning (Lindley service hull + drop / PAUSE detection)
# ---------------------------------------------------------------------------

def packet_plan(
    times, t_start, t_end, ssvc, L, B, q_sc,
    n_res, next_free, inflight, frozen_until, pause_rearm_at, pause_horizon,
    starts, completions, q_bits, out_d, out_i,
):
    """Plan one control window without mutating any state.

    Computes the no-drop Lindley service hull over ``n_res`` residual
    frames followed by the ``times`` arrivals, the occupancy seen by
    each new arrival, and detects drop-tail engagement (handing the
    window to :func:`packet_scalar`) or a PAUSE crossing (truncating the
    committed prefix).

    ``out_i = [needs_scalar, m_eff, total_eff]``;
    ``out_d = [pause_at (nan: none), t_commit, new_pause_rearm_at]``.
    """
    m = times.shape[0]
    total = n_res + m
    c0 = next_free if inflight != 0 else t_start
    if frozen_until > c0:
        c0 = frozen_until

    hull = _NEG_INF
    for i in range(total):
        a_i = t_start if i < n_res else times[i - n_res]
        term = a_i - ssvc * float(i)
        if term > hull:
            hull = term
        base = c0 if c0 > hull else hull
        comp = ssvc * float(i + 1) + base
        completions[i] = comp
        starts[i] = comp - ssvc

    needs_scalar = 0
    p = 0
    for j in range(m):
        t_j = times[j]
        g = n_res + j
        while p < total and starts[p] <= t_j:
            p += 1
        sb = p if p < g else g
        q = L * float((g + 1) - sb)
        q_bits[j] = q
        if q > B:
            needs_scalar = 1
            break

    pause_at = math.nan
    m_eff = m
    t_commit = t_end
    new_rearm = pause_rearm_at
    if needs_scalar == 0 and q_sc == q_sc:  # q_sc is not NaN
        for j in range(m):
            if q_bits[j] > q_sc and times[j] >= pause_rearm_at:
                pause_at = times[j]
                new_rearm = pause_at  # + duration, applied by the wrapper
                limit = pause_at + pause_horizon
                if t_end < limit:
                    limit = t_end
                # searchsorted(times, limit, side="right")
                lo, hi = 0, m
                while lo < hi:
                    mid = (lo + hi) >> 1
                    if times[mid] <= limit:
                        lo = mid + 1
                    else:
                        hi = mid
                m_eff = lo if lo > j + 1 else j + 1
                t_commit = limit
                break

    out_i[0] = needs_scalar
    out_i[1] = m_eff
    out_i[2] = n_res + m_eff
    out_d[0] = pause_at
    out_d[1] = t_commit
    out_d[2] = new_rearm


# ---------------------------------------------------------------------------
# packet: window commit (sampling, sigma, BCN emission, service accounting)
# ---------------------------------------------------------------------------

def packet_commit(
    m_eff, n_res, times, srcs, assoc, q_bits, starts, completions,
    t_start, t_commit, prev_inflight, prev_next_free,
    uniforms, use_rng, pm, interval, since, q_prev,
    q0, w, pos_only, req_assoc, sigma_unit, full_scale,
    msg_t, msg_src, msg_sigma, msg_qoff, msg_dq, msg_fb,
    samp_t, samp_sigma, out_d, out_i,
):
    """Execute the no-drop window planned by :func:`packet_plan`.

    ``uniforms`` holds ``m_eff`` pre-drawn Bernoulli uniforms when
    ``use_rng`` (the wrapper owns the numpy Generator so the stream is
    identical to the batched engine's); otherwise the deterministic
    counter sampler is replicated.  ``sigma_unit`` is NaN for raw-sigma
    feedback.  Outputs mirror :class:`BatchedWindow`.

    ``out_i = [n_msg, n_samp, neg, pos, delivered, n_started, backlog,
    inflight, since]``; ``out_d = [next_free, q_at_last_sample]``.
    """
    total_eff = n_res + m_eff
    n_msg = 0
    n_samp = 0
    neg = 0
    pos = 0
    prev = q_prev
    for j in range(m_eff):
        if use_rng != 0:
            sampled = uniforms[j] < pm
        else:
            sampled = (since + (j + 1)) % interval == 0
        if not sampled:
            continue
        qs = q_bits[j]
        dq = qs - prev
        sigma = (q0 - qs) - w * dq
        prev = qs
        samp_t[n_samp] = times[j]
        samp_sigma[n_samp] = sigma
        n_samp += 1
        negative = sigma < 0.0
        positive = (
            sigma > 0.0
            and (qs < q0 or pos_only == 0)
            and (req_assoc == 0 or assoc[j] != 0)
        )
        if negative:
            neg += 1
        if positive:
            pos += 1
        if negative or positive:
            msg_t[n_msg] = times[j]
            msg_src[n_msg] = srcs[j]
            msg_sigma[n_msg] = sigma
            msg_qoff[n_msg] = q0 - qs
            msg_dq[n_msg] = dq
            if sigma_unit == sigma_unit:  # quantized FB
                fb = _round_half_even(sigma / sigma_unit)
                if fb < -full_scale:
                    fb = -full_scale
                elif fb > full_scale - 1.0:
                    fb = full_scale - 1.0
                msg_fb[n_msg] = fb
            else:
                msg_fb[n_msg] = sigma
            n_msg += 1
    if use_rng == 0:
        since = (since + m_eff) % interval

    # service accounting over the committed prefix
    delivered = 0
    lo, hi = 0, total_eff
    while lo < hi:
        mid = (lo + hi) >> 1
        if completions[mid] <= t_commit:
            lo = mid + 1
        else:
            hi = mid
    delivered = lo
    if (prev_inflight != 0 and t_start < prev_next_free
            and prev_next_free <= t_commit):
        delivered += 1
    lo, hi = 0, total_eff
    while lo < hi:
        mid = (lo + hi) >> 1
        if starts[mid] <= t_commit:
            lo = mid + 1
        else:
            hi = mid
    n_started = lo

    next_free = prev_next_free
    inflight = prev_inflight
    if n_started:
        next_free = completions[n_started - 1]
        inflight = 1 if next_free > t_commit else 0
    elif prev_inflight != 0 and prev_next_free <= t_commit:
        inflight = 0

    out_i[0] = n_msg
    out_i[1] = n_samp
    out_i[2] = neg
    out_i[3] = pos
    out_i[4] = delivered
    out_i[5] = n_started
    out_i[6] = total_eff - n_started
    out_i[7] = inflight
    out_i[8] = since
    out_d[0] = next_free
    out_d[1] = prev
    return n_msg


def _round_half_even(v):
    """``np.round`` / C ``rint`` semantics (ties to even)."""
    r = math.floor(v)
    diff = v - r
    if diff > 0.5:
        r += 1.0
    elif diff == 0.5 and math.fmod(r, 2.0) != 0.0:
        r += 1.0
    return r


# ---------------------------------------------------------------------------
# packet: exact per-frame fallback (drop-tail windows)
# ---------------------------------------------------------------------------

def packet_scalar(
    times, srcs, assoc, uniforms, use_rng, pm, interval, since,
    t_start, t_end, ssvc, L, B, q_sc, q0, w, pos_only, req_assoc,
    sigma_unit, full_scale, backlog, next_free0, inflight, frozen_until,
    pause_rearm_at, pause_duration, pause_horizon, q_prev,
    msg_t, msg_src, msg_sigma, msg_qoff, msg_dq, msg_fb,
    samp_t, samp_sigma, drop_t, drop_src, acc_arrivals, starts_out,
    pause_ts, out_d, out_i,
):
    """Reference-faithful per-frame window loop (drop-tail engaged).

    A line-for-line port of
    :meth:`repro.simulation.switch.BatchedSwitchKernel._process_scalar`.
    ``uniforms`` must hold one pre-drawn uniform per arrival; the
    wrapper rewinds its Generator to the ``committed`` count afterwards
    so the consumed stream matches the batched engine's per-frame
    draws exactly.

    ``out_i = [committed, n_msg, n_samp, n_drop, delivered, backlog,
    inflight, since, n_starts, n_acc, neg, pos, any_started, n_pause]``;
    ``out_d = [pause_at, t_commit, next_free, q_at_last_sample,
    pause_rearm_at]``; ``pause_ts[:n_pause]`` records every PAUSE
    firing (multiple per window when the duration is shorter than the
    commit horizon).
    """
    m = times.shape[0]
    prev_inflight = inflight
    prev_next_free = next_free0
    next_free = next_free0 if inflight != 0 else _NEG_INF
    if t_start > next_free:
        next_free = t_start
    if frozen_until > next_free:
        next_free = frozen_until
    any_started = 0

    n_acc = 0
    for _ in range(backlog):
        acc_arrivals[n_acc] = t_start
        n_acc += 1
    n_starts = 0
    n_msg = 0
    n_samp = 0
    n_drop = 0
    neg = 0
    pos = 0
    accepted_new = 0
    n_pause = 0
    pause_at = math.nan
    pause_limit = math.inf
    t_commit = t_end
    committed = 0
    q_last = q_prev

    for j in range(m):
        a = times[j]
        if a > pause_limit:
            break
        while backlog > 0 and next_free < a:
            starts_out[n_starts] = next_free
            n_starts += 1
            next_free += ssvc
            backlog -= 1
            any_started = 1
        if use_rng != 0:
            sampled = uniforms[j] < pm
        else:
            since += 1
            sampled = since >= interval
            if sampled:
                since = 0
        occ = backlog * L
        accepted = occ + L <= B
        if accepted:
            accepted_new += 1
            acc_arrivals[n_acc] = a
            n_acc += 1
            if backlog == 0 and next_free <= a:
                starts_out[n_starts] = a
                n_starts += 1
                next_free = a + ssvc
                any_started = 1
            else:
                backlog += 1
            q_now = occ + L
        else:
            n_drop += 1
            drop_t[n_drop - 1] = a
            drop_src[n_drop - 1] = srcs[j]
            q_now = occ
        if sampled:
            dq = q_now - q_last
            q_last = q_now
            sigma = (q0 - q_now) - w * dq
            samp_t[n_samp] = a
            samp_sigma[n_samp] = sigma
            n_samp += 1
            emit = 0
            if sigma < 0.0:
                neg += 1
                emit = 1
            elif (
                sigma > 0.0
                and (q_now < q0 or pos_only == 0)
                and (req_assoc == 0 or assoc[j] != 0)
            ):
                pos += 1
                emit = 1
            if emit != 0:
                msg_t[n_msg] = a
                msg_src[n_msg] = srcs[j]
                msg_sigma[n_msg] = sigma
                msg_qoff[n_msg] = q0 - q_now
                msg_dq[n_msg] = dq
                if sigma_unit == sigma_unit:
                    fb = _round_half_even(sigma / sigma_unit)
                    if fb < -full_scale:
                        fb = -full_scale
                    elif fb > full_scale - 1.0:
                        fb = full_scale - 1.0
                    msg_fb[n_msg] = fb
                else:
                    msg_fb[n_msg] = sigma
                n_msg += 1
        committed += 1
        if q_sc == q_sc and q_now > q_sc and a >= pause_rearm_at:
            pause_at = a
            pause_rearm_at = a + pause_duration
            pause_ts[n_pause] = a
            n_pause += 1
            pause_limit = a + pause_horizon
            if t_end < pause_limit:
                pause_limit = t_end
            t_commit = pause_limit
    while backlog > 0 and next_free <= t_commit:
        starts_out[n_starts] = next_free
        n_starts += 1
        next_free += ssvc
        backlog -= 1
        any_started = 1

    delivered = 0
    for i in range(n_starts):
        if starts_out[i] + ssvc <= t_commit:
            delivered += 1
        else:
            break
    if (prev_inflight != 0 and t_start < prev_next_free
            and prev_next_free <= t_commit):
        delivered += 1

    out_next_free = next_free0
    out_inflight = prev_inflight
    if any_started != 0:
        out_next_free = next_free
        out_inflight = 1 if next_free > t_commit else 0
    elif prev_inflight != 0 and prev_next_free <= t_commit:
        out_inflight = 0

    out_i[0] = committed
    out_i[1] = n_msg
    out_i[2] = n_samp
    out_i[3] = n_drop
    out_i[4] = delivered
    out_i[5] = backlog
    out_i[6] = out_inflight
    out_i[7] = since
    out_i[8] = n_starts
    out_i[9] = n_acc
    out_i[10] = neg
    out_i[11] = pos
    out_i[12] = any_started
    out_i[13] = n_pause
    out_d[0] = pause_at
    out_d[1] = t_commit
    out_d[2] = out_next_free
    out_d[3] = q_last
    out_d[4] = pause_rearm_at


# ---------------------------------------------------------------------------
# packet: boundary delivery of the window's BCN messages
# ---------------------------------------------------------------------------

def apply_messages(
    msg_t, msg_src, msg_fb, msg_sigma,
    mode, gi, gd, ru, max_dt, d, t_commit,
    rate, last_update, assoc8, updates, min_rate, line_rate, owed, out_d,
):
    """Apply one window's BCN messages to the per-source regulator arrays.

    A port of :meth:`repro.simulation.source.RateRegulator.apply` over
    struct-of-array state (``mode``: 0 message, 1 fluid-euler, 2
    fluid-exact; ``last_update`` NaN means "never updated"; ``max_dt``
    < 0 disables the dt cap).  ``owed`` accumulates the lag-compensation
    ledger exactly as the batched orchestrator does, and
    ``out_d[0]`` carries the running ``total_rate`` (updated with the
    same per-message ``+=`` order as the batched engine).
    """
    n = msg_t.shape[0]
    total_rate = out_d[0]
    for k in range(n):
        i = int(msg_src[k])
        now = msg_t[k] + d
        r0 = rate[i]
        r = r0
        if mode == 0:
            fb = msg_fb[k]
            if fb > 0.0:
                r = r + gi * ru * fb
            elif fb < 0.0:
                factor = 1.0 + gd * fb
                if factor < 0.0:
                    factor = 0.0
                r = r * factor
        else:
            sigma = msg_sigma[k]
            lu = last_update[i]
            dt = 0.0 if lu != lu else now - lu
            if max_dt >= 0.0 and dt > max_dt:
                dt = max_dt
            last_update[i] = now
            if sigma > 0.0:
                r = r + gi * ru * sigma * dt
            elif sigma < 0.0:
                if mode == 2:
                    r = r * math.exp(gd * sigma * dt)
                else:
                    factor = 1.0 + gd * sigma * dt
                    if factor < 0.0:
                        factor = 0.0
                    r = r * factor
        if r < min_rate[i]:
            r = min_rate[i]
        if r > line_rate[i]:
            r = line_rate[i]
        rate[i] = r
        updates[i] += 1
        fb_sign = msg_fb[k] if mode == 0 else msg_sigma[k]
        if fb_sign < 0.0:
            assoc8[i] = 1
        elif r >= line_rate[i]:
            assoc8[i] = 0
        if r != r0:
            delta = r - r0
            lag = t_commit - now
            if lag < 0.0:
                lag = 0.0
            owed[i] += delta * lag
            total_rate += delta
    out_d[0] = total_rate


# ---------------------------------------------------------------------------
# fluid: per-row switched RK4 with cubic-Hermite event refinement
# ---------------------------------------------------------------------------

def _fluid_refine(
    x0, y0, dec, h, x1, y1, alpha, beta, gamma,
    a, b, cap, k, linear_dec,
):
    """Scalar :func:`repro.fluid.batch._refine_event` (one row)."""
    s0 = x0 + k * y0
    coef0 = (b * cap if linear_dec != 0 else b * (y0 + cap)) if dec else a
    f0x = y0
    f0y = -coef0 * s0
    s1 = x1 + k * y1
    coef1 = (b * cap if linear_dec != 0 else b * (y1 + cap)) if dec else a
    f1x = y1
    f1y = -coef1 * s1
    u0 = alpha * x0 + beta * y0 + gamma
    u1 = alpha * x1 + beta * y1 + gamma
    d0 = h * (alpha * f0x + beta * f0y)
    d1 = h * (alpha * f1x + beta * f1y)
    c0 = u0
    c1 = d0
    c2 = 3.0 * (u1 - u0) - 2.0 * d0 - d1
    c3 = 2.0 * (u0 - u1) + d0 + d1
    lo = 0.0
    hi = 1.0
    g_lo = u0
    b2 = 2.0 * c2
    b3 = 3.0 * c3
    denom = u0 - u1
    theta = math.nan if denom == 0.0 else u0 / denom
    if not math.isfinite(theta):
        theta = 0.5
    elif theta < 0.0:
        theta = 0.0
    elif theta > 1.0:
        theta = 1.0
    for _ in range(16):
        g = ((c3 * theta + c2) * theta + c1) * theta + c0
        if g_lo * g > 0.0:
            lo = theta
            g_lo = g
        else:
            hi = theta
        slope = (b3 * theta + b2) * theta + c1
        if slope != 0.0:
            newton = theta - g / slope
        else:
            newton = math.inf
        if newton > lo and newton < hi:
            theta = newton
        else:
            theta = 0.5 * (lo + hi)
    t2 = theta * theta
    om = 1.0 - theta
    h00 = (1.0 + 2.0 * theta) * om * om
    h10 = theta * om * om
    h01 = t2 * (3.0 - 2.0 * theta)
    h11 = t2 * (theta - 1.0)
    xt = h00 * x0 + h10 * (h * f0x) + h01 * x1 + h11 * (h * f1x)
    yt = h00 * y0 + h10 * (h * f0y) + h01 * y1 + h11 * (h * f1y)
    return theta, xt, yt


def fluid_rows(
    x0, y0, t_grid, a, b, cap, k, q0, x_full, x_empty,
    linear_dec, physical, max_switches, conv_rtol, t_max,
    xs, ys, reason, switches, t_end, x_end, y_end,
    ev_cap, n_events, ev_t, ev_kind, ev_x, ev_y, out_i,
):
    """Integrate every row of the switched fluid ensemble independently.

    A per-row port of :func:`repro.fluid.batch.simulate_fluid_batch`'s
    stepping loop (the rows of the numpy implementation are fully
    independent, so a scalar sweep commits the same float64 operations
    in the same order).  Events are recorded per row into
    ``ev_* [row*ev_cap + j]`` with kind codes 0 switch / 1 extremum /
    2 buffer_full / 3 buffer_empty.

    Rows run one after another here; the C kernel interleaves them one
    grid step at a time, with the same result bit for bit because no
    row reads another's state.

    ``out_i = [last_grid_index, event_overflow]``.
    """
    m = x0.shape[0]
    n_steps = t_grid.shape[0] - 1
    last = 0
    overflow = 0

    for r in range(m):
        x = x0[r]
        y = y0[r]
        s = x + k * y
        dec = (s > 0.0) or (s == 0.0 and y > 0.0)
        alive = 1
        rsn = 0
        pinned = 0
        pin_t = 0.0
        pin_y = 0.0
        unpin_t = math.inf
        sw_count = 0
        te = 0.0
        xe_final = x
        ye_final = y
        n_ev = 0
        dead_step = n_steps

        conv = (abs(x) / q0 <= conv_rtol) and (abs(y) / cap <= conv_rtol)
        if conv:
            alive = 0
            rsn = 1
            dead_step = 0
        elif physical != 0 and x <= x_empty and y < 0.0:
            # warm-up: start pinned at the empty buffer
            if n_ev < ev_cap:
                base = r * ev_cap + n_ev
                ev_t[base] = 0.0
                ev_kind[base] = 3
                ev_x[base] = x_empty
                ev_y[base] = y
                n_ev += 1
            else:
                overflow = 1
            pinned = 2
            pin_t = 0.0
            pin_y = y
            duration = -y / (a * q0)
            unpin_t = pin_t + duration
            if t_max < unpin_t:
                unpin_t = t_max
            x = x_empty

        xs[r] = x
        ys[r] = y

        for i in range(n_steps):
            t0 = t_grid[i]
            t1 = t_grid[i + 1]
            if alive != 0 and pinned == 0:
                # ---- advance(t0, t1 - t0), iteratively -------------------
                h = t1 - t0
                while True:
                    xx0 = x
                    yy0 = y
                    rsign = 1.0 if dec else -1.0
                    # RK4 with the frozen region mask
                    s_ = xx0 + k * yy0
                    coef = (b * cap if linear_dec != 0
                            else b * (yy0 + cap)) if dec else a
                    k1x = yy0
                    k1y = -coef * s_
                    ax = xx0 + 0.5 * h * k1x
                    ay = yy0 + 0.5 * h * k1y
                    s_ = ax + k * ay
                    coef = (b * cap if linear_dec != 0
                            else b * (ay + cap)) if dec else a
                    k2x = ay
                    k2y = -coef * s_
                    ax = xx0 + 0.5 * h * k2x
                    ay = yy0 + 0.5 * h * k2y
                    s_ = ax + k * ay
                    coef = (b * cap if linear_dec != 0
                            else b * (ay + cap)) if dec else a
                    k3x = ay
                    k3y = -coef * s_
                    ax = xx0 + h * k3x
                    ay = yy0 + h * k3y
                    s_ = ax + k * ay
                    coef = (b * cap if linear_dec != 0
                            else b * (ay + cap)) if dec else a
                    k4x = ay
                    k4y = -coef * s_
                    sixth = h / 6.0
                    x1 = xx0 + sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
                    y1 = yy0 + sixth * (k1y + 2.0 * (k2y + k3y) + k4y)

                    s1 = x1 + k * y1
                    line_tol = 1e-12 * (abs(x1) + k * abs(y1) + q0)
                    theta = 1.0
                    xe = x1
                    ye = y1
                    term = 0
                    if s1 * rsign < -line_tol:
                        th, xt, yt = _fluid_refine(
                            xx0, yy0, dec, h, x1, y1, 1.0, k, 0.0,
                            a, b, cap, k, linear_dec,
                        )
                        if th < theta:
                            theta = th
                            xe = xt
                            ye = yt
                            term = 1
                    if physical != 0:
                        if xx0 < x_full and x1 >= x_full:
                            th, xt, yt = _fluid_refine(
                                xx0, yy0, dec, h, x1, y1, 1.0, 0.0, -x_full,
                                a, b, cap, k, linear_dec,
                            )
                            if th < theta:
                                theta = th
                                xe = xt
                                ye = yt
                                term = 2
                        if xx0 > x_empty and x1 <= x_empty:
                            th, xt, yt = _fluid_refine(
                                xx0, yy0, dec, h, x1, y1, 1.0, 0.0, -x_empty,
                                a, b, cap, k, linear_dec,
                            )
                            if th < theta:
                                theta = th
                                xe = xt
                                ye = yt
                                term = 3
                    t_ev = t0 + theta * h

                    # non-terminal events on the kept part of the step
                    if yy0 * ye < 0.0:
                        hk = h * theta
                        th, xt, yt = _fluid_refine(
                            xx0, yy0, dec, hk, xe, ye, 0.0, 1.0, 0.0,
                            a, b, cap, k, linear_dec,
                        )
                        if n_ev < ev_cap:
                            base = r * ev_cap + n_ev
                            ev_t[base] = t0 + th * hk
                            ev_kind[base] = 1
                            ev_x[base] = xt
                            ev_y[base] = yt
                            n_ev += 1
                        else:
                            overflow = 1
                    if physical == 0:
                        if xx0 < x_full and xe >= x_full:
                            hk = h * theta
                            th, xt, yt = _fluid_refine(
                                xx0, yy0, dec, hk, xe, ye, 1.0, 0.0, -x_full,
                                a, b, cap, k, linear_dec,
                            )
                            if n_ev < ev_cap:
                                base = r * ev_cap + n_ev
                                ev_t[base] = t0 + th * hk
                                ev_kind[base] = 2
                                ev_x[base] = xt
                                ev_y[base] = yt
                                n_ev += 1
                            else:
                                overflow = 1
                        if xx0 > x_empty and xe <= x_empty:
                            hk = h * theta
                            th, xt, yt = _fluid_refine(
                                xx0, yy0, dec, hk, xe, ye, 1.0, 0.0, -x_empty,
                                a, b, cap, k, linear_dec,
                            )
                            if n_ev < ev_cap:
                                base = r * ev_cap + n_ev
                                ev_t[base] = t0 + th * hk
                                ev_kind[base] = 3
                                ev_x[base] = xt
                                ev_y[base] = yt
                                n_ev += 1
                            else:
                                overflow = 1

                    if term == 0:
                        x = xe
                        y = ye
                        break
                    if term == 1:
                        if n_ev < ev_cap:
                            base = r * ev_cap + n_ev
                            ev_t[base] = t_ev
                            ev_kind[base] = 0
                            ev_x[base] = xe
                            ev_y[base] = ye
                            n_ev += 1
                        else:
                            overflow = 1
                        sw_count += 1
                        over = sw_count > max_switches
                        conv = (not over) and (
                            abs(xe) / q0 <= conv_rtol
                            and abs(ye) / cap <= conv_rtol
                        )
                        if over or conv:
                            alive = 0
                            rsn = 3 if over else 1
                            te = t_ev
                            xe_final = xe
                            ye_final = ye
                            x = xe
                            y = ye
                            dead_step = i + 1
                            break
                        dec = ye > 0.0
                        x = xe
                        y = ye
                        t0 = t_ev
                        h = h * (1.0 - theta)
                        continue
                    # term 2/3: buffer pinning (physical mode)
                    kind_code = 2 if term == 2 else 3
                    if n_ev < ev_cap:
                        base = r * ev_cap + n_ev
                        ev_t[base] = t_ev
                        ev_kind[base] = kind_code
                        ev_x[base] = x_full if term == 2 else x_empty
                        ev_y[base] = ye
                        n_ev += 1
                    else:
                        overflow = 1
                    pinned = 1 if term == 2 else 2
                    pin_t = t_ev
                    pin_y = ye
                    if term == 2:
                        duration = math.log((ye + cap) / cap) / (b * x_full)
                    else:
                        duration = -ye / (a * q0)
                    unpin_t = pin_t + duration
                    if t_max < unpin_t:
                        unpin_t = t_max
                    x = x_full if term == 2 else x_empty
                    y = ye
                    t_step_end = t0 + h
                    if unpin_t <= t_step_end:
                        t_up = unpin_t
                        x_pin = x_full if term == 2 else x_empty
                        x = x_pin
                        y = 0.0
                        pinned = 0
                        unpin_t = math.inf
                        dec = x_pin > 0.0
                        t0 = t_up
                        h = t_step_end - t_up
                        continue
                    break
                # ---- end advance ----------------------------------------
            if (physical != 0 and alive != 0 and pinned != 0
                    and unpin_t <= t1 and unpin_t < t_max):
                x_pin = x_full if pinned == 1 else x_empty
                t_up = unpin_t
                x = x_pin
                y = 0.0
                pinned = 0
                unpin_t = math.inf
                dec = x_pin > 0.0
                # advance(t_up, t1 - t_up) — same loop as above
                h = t1 - t_up
                t0b = t_up
                while True:
                    xx0 = x
                    yy0 = y
                    rsign = 1.0 if dec else -1.0
                    s_ = xx0 + k * yy0
                    coef = (b * cap if linear_dec != 0
                            else b * (yy0 + cap)) if dec else a
                    k1x = yy0
                    k1y = -coef * s_
                    ax = xx0 + 0.5 * h * k1x
                    ay = yy0 + 0.5 * h * k1y
                    s_ = ax + k * ay
                    coef = (b * cap if linear_dec != 0
                            else b * (ay + cap)) if dec else a
                    k2x = ay
                    k2y = -coef * s_
                    ax = xx0 + 0.5 * h * k2x
                    ay = yy0 + 0.5 * h * k2y
                    s_ = ax + k * ay
                    coef = (b * cap if linear_dec != 0
                            else b * (ay + cap)) if dec else a
                    k3x = ay
                    k3y = -coef * s_
                    ax = xx0 + h * k3x
                    ay = yy0 + h * k3y
                    s_ = ax + k * ay
                    coef = (b * cap if linear_dec != 0
                            else b * (ay + cap)) if dec else a
                    k4x = ay
                    k4y = -coef * s_
                    sixth = h / 6.0
                    x1 = xx0 + sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
                    y1 = yy0 + sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
                    s1 = x1 + k * y1
                    line_tol = 1e-12 * (abs(x1) + k * abs(y1) + q0)
                    theta = 1.0
                    xe = x1
                    ye = y1
                    term = 0
                    if s1 * rsign < -line_tol:
                        th, xt, yt = _fluid_refine(
                            xx0, yy0, dec, h, x1, y1, 1.0, k, 0.0,
                            a, b, cap, k, linear_dec,
                        )
                        if th < theta:
                            theta = th
                            xe = xt
                            ye = yt
                            term = 1
                    if physical != 0:
                        if xx0 < x_full and x1 >= x_full:
                            th, xt, yt = _fluid_refine(
                                xx0, yy0, dec, h, x1, y1, 1.0, 0.0, -x_full,
                                a, b, cap, k, linear_dec,
                            )
                            if th < theta:
                                theta = th
                                xe = xt
                                ye = yt
                                term = 2
                        if xx0 > x_empty and x1 <= x_empty:
                            th, xt, yt = _fluid_refine(
                                xx0, yy0, dec, h, x1, y1, 1.0, 0.0, -x_empty,
                                a, b, cap, k, linear_dec,
                            )
                            if th < theta:
                                theta = th
                                xe = xt
                                ye = yt
                                term = 3
                    t_ev = t0b + theta * h
                    if yy0 * ye < 0.0:
                        hk = h * theta
                        th, xt, yt = _fluid_refine(
                            xx0, yy0, dec, hk, xe, ye, 0.0, 1.0, 0.0,
                            a, b, cap, k, linear_dec,
                        )
                        if n_ev < ev_cap:
                            base = r * ev_cap + n_ev
                            ev_t[base] = t0b + th * hk
                            ev_kind[base] = 1
                            ev_x[base] = xt
                            ev_y[base] = yt
                            n_ev += 1
                        else:
                            overflow = 1
                    if term == 0:
                        x = xe
                        y = ye
                        break
                    if term == 1:
                        if n_ev < ev_cap:
                            base = r * ev_cap + n_ev
                            ev_t[base] = t_ev
                            ev_kind[base] = 0
                            ev_x[base] = xe
                            ev_y[base] = ye
                            n_ev += 1
                        else:
                            overflow = 1
                        sw_count += 1
                        over = sw_count > max_switches
                        conv = (not over) and (
                            abs(xe) / q0 <= conv_rtol
                            and abs(ye) / cap <= conv_rtol
                        )
                        if over or conv:
                            alive = 0
                            rsn = 3 if over else 1
                            te = t_ev
                            xe_final = xe
                            ye_final = ye
                            x = xe
                            y = ye
                            dead_step = i + 1
                            break
                        dec = ye > 0.0
                        x = xe
                        y = ye
                        t0b = t_ev
                        h = h * (1.0 - theta)
                        continue
                    kind_code = 2 if term == 2 else 3
                    if n_ev < ev_cap:
                        base = r * ev_cap + n_ev
                        ev_t[base] = t_ev
                        ev_kind[base] = kind_code
                        ev_x[base] = x_full if term == 2 else x_empty
                        ev_y[base] = ye
                        n_ev += 1
                    else:
                        overflow = 1
                    pinned = 1 if term == 2 else 2
                    pin_t = t_ev
                    pin_y = ye
                    if term == 2:
                        duration = math.log((ye + cap) / cap) / (b * x_full)
                    else:
                        duration = -ye / (a * q0)
                    unpin_t = pin_t + duration
                    if t_max < unpin_t:
                        unpin_t = t_max
                    x = x_full if term == 2 else x_empty
                    y = ye
                    t_step_end = t0b + h
                    if unpin_t <= t_step_end:
                        t_up2 = unpin_t
                        x_pin = x_full if term == 2 else x_empty
                        x = x_pin
                        y = 0.0
                        pinned = 0
                        unpin_t = math.inf
                        dec = x_pin > 0.0
                        t0b = t_up2
                        h = t_step_end - t_up2
                        continue
                    break
            if physical != 0 and alive != 0 and pinned != 0:
                dt = t1 - pin_t
                if pinned == 1:
                    x = x_full
                    y = (pin_y + cap) * math.exp(-b * x_full * dt) - cap
                else:
                    x = x_empty
                    y = pin_y + a * q0 * dt
            # a dead row repeats its frozen end state, as the numpy
            # kernel does
            xs[(i + 1) * m + r] = x
            ys[(i + 1) * m + r] = y

        if alive != 0:
            conv = (
                pinned == 0
                and abs(x) / q0 <= conv_rtol
                and abs(y) / cap <= conv_rtol
            )
            rsn = 1 if conv else 2
            te = t_max
            xe_final = x
            ye_final = y
            dead_step = n_steps
        reason[r] = rsn
        switches[r] = sw_count
        t_end[r] = te
        x_end[r] = xe_final
        y_end[r] = ye_final
        n_events[r] = n_ev
        if dead_step > last:
            last = dead_step

    if last < 1:
        last = 1  # the numpy kernel always commits at least one grid step
    out_i[0] = last
    out_i[1] = overflow
