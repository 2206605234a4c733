"""cffi build recipe for the C kernels of the ``cffi`` tier.

The C source below is the fast path of the hot spots; each kernel
is checked bit for bit against its numpy or python oracle, which runs
the same float64 operations in the same order:

* the BCN control law, written once for every C kernel as ``static``
  helpers: ``bcn_sample`` (sigma, eq. 1, and the emission rule; the
  twin of :func:`repro.simulation.switch.bcn_feedback`), ``quant_fb``
  (the FB field; :func:`repro.simulation.switch.quantize_fb`) and
  ``bcn_rate_step`` (eqs. 2/7; :func:`repro.simulation.source.rate_law`);
* the packet window loop — ``k_pacing_plan``, ``k_merge_trains``,
  ``k_pacing_commit``, ``k_owed_repay``, ``k_apply_messages`` and the
  switch window's ``k_packet_plan``, ``k_packet_commit`` and
  drop-window ``k_packet_scalar`` — against the numpy entry points of
  the same name in :class:`~repro.kernels._backend.KernelBackend`;
* the batch fluid integrator ``k_fluid`` against
  :func:`repro.fluid.batch.simulate_fluid_batch`.  It runs step-major:
  an array of per-row states advances every row by one grid step
  before taking the next, so each step's samples are stored side by
  side, and it stops once no row is alive, as the numpy loop does.
  One call integrates a row range ``[lo, hi)`` of an ``m``-row bundle
  (global row indices into the inputs, the ``xs``/``ys`` columns and
  the event slots), so :mod:`repro.kernels.fluid` can run disjoint
  ranges on separate threads.  The rows are independent, so each
  row's arithmetic is the same as in the numpy loop, whatever the
  split.  Only ``physical`` mode's pinned closed forms differ: libm
  ``exp`` against numpy's vectorised ``exp`` can move a sample by an
  ulp;
* the delayed-feedback fluid model's method of steps ``k_delayed``
  against :func:`repro.fluid.delay._simulate_delayed_python`: one
  trajectory, RK4 stages and history interpolation in the python
  loop's float64 operations and order, with the same early stop, so
  the sample count and every sample are the same;
* the event core ``k_event_core`` against the python ``Simulator``
  loop of :class:`~repro.simulation.network.BCNNetworkSimulator`'s
  reference dumbbell (one port) and of
  :class:`~repro.simulation.multihop.MultiHopNetwork` (N ports, each
  flow's frames hopping port to port): one binary heap ordered by
  ``(time, seq)`` and pushed in the callbacks' order, the sources,
  links, each port's :class:`~repro.simulation.switch.CoreSwitch`
  (CPython's MT19937 ``random()`` on the port's own stream for
  Bernoulli sampling, the shared ``bcn_sample``), hop-level and
  source-directed PAUSE and the regulator laws (``bcn_rate_step``;
  libm ``exp``, the one ``math.exp`` calls), so the events, their order
  and every state they leave, the events still pending at the horizon
  included, are the same bit for bit.

Every kernel is compiled with ``-ffp-contract=off`` (:data:`COMPILE_ARGS`,
part of the content hash): no fused multiply-add may change a rounding
against a python or numpy oracle on any architecture.
``REPRO_KERNEL_CFLAGS`` adds flags to the compile and link lines (a
sanitised build, say); they enter the content hash too, so such a
build never shadows the normal one.

Builds are out-of-line cffi API-mode extensions, keyed by a content
hash of the declarations + source, cached under
``src/repro/kernels/_build/`` (override with ``REPRO_KERNEL_BUILD_DIR``)
and loaded via :mod:`importlib`.  Compilation happens in a
per-process scratch directory and the finished extension is moved into
place with :func:`os.replace`, so concurrent workers (the runner's
process pool) race benignly: first finisher wins, everyone loads the
same file.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shlex
import shutil
import sys
import sysconfig
import time
from pathlib import Path

__all__ = ["build_seconds", "load_cffi_kernels"]

#: Wall-clock seconds spent compiling + loading, for the warm-up span.
build_seconds: float = 0.0

CDEF = """
int64_t k_merge_trains(int64_t n_src, double *first, double *gaps,
    int64_t *counts, uint8_t *assoc, double d,
    double *out_t, int64_t *out_src, uint8_t *out_assoc);

int64_t k_pacing_plan(int64_t n, double *next_emit, double *paused,
    uint8_t *active, double *remaining, double *gaps, double until,
    double *first, int64_t *counts);

int64_t k_pacing_commit(int64_t n, int64_t m_committed, int64_t *srcs,
    double *first, double *gaps, int64_t *counts, int64_t any_finite,
    double *next_emit, double *remaining, uint8_t *active,
    int64_t *frames_acc, int64_t *comm, int64_t *fin_idx, double *fin_t);

void k_owed_repay(int64_t n, double *owed, double *next_emit,
    double *rates, double until, double nxt);

void k_packet_plan(int64_t m, double *times, double t_start, double t_end,
    double ssvc, double L, double B, double q_sc, int64_t n_res,
    double next_free, int64_t inflight, double frozen_until,
    double pause_rearm_at, double pause_horizon,
    double *starts, double *completions, double *q_bits,
    double *out_d, int64_t *out_i);

void k_packet_commit(int64_t m_eff, int64_t n_res, double *times,
    int64_t *srcs, uint8_t *assoc, double *q_bits, double *starts,
    double *completions, double t_start, double t_commit,
    int64_t prev_inflight, double prev_next_free, double *uniforms,
    int64_t use_rng, double pm, int64_t interval, int64_t since,
    double q_prev, double q0, double w, int64_t pos_only,
    int64_t req_assoc, double sigma_unit, double full_scale,
    double *msg_t, int64_t *msg_src, double *msg_sigma, double *msg_fb,
    double *samp_t, double *samp_sigma, double *out_d, int64_t *out_i);

void k_packet_scalar(int64_t m, double *times, int64_t *srcs,
    uint8_t *assoc, double *uniforms, int64_t use_rng, double pm,
    int64_t interval, int64_t since, double t_start, double t_end,
    double ssvc, double L, double B, double q_sc, double q0, double w,
    int64_t pos_only, int64_t req_assoc, double sigma_unit,
    double full_scale, int64_t backlog, double next_free0,
    int64_t inflight, double frozen_until, double pause_rearm_at,
    double pause_duration, double pause_horizon, double q_prev,
    double *msg_t, int64_t *msg_src, double *msg_sigma, double *msg_fb,
    double *samp_t, double *samp_sigma, int64_t *msg_j, int64_t *drop_j,
    double *acc_arrivals, double *starts_out, int64_t *pause_j,
    double *out_d, int64_t *out_i);

void k_apply_messages(int64_t n, double *msg_t, int64_t *msg_src,
    double *msg_fb, double *msg_sigma, int64_t mode, double gi, double gd,
    double ru, double max_dt, double d, double t_commit,
    double *rate, double *last_update, uint8_t *assoc8, int64_t *updates,
    double *min_rate, double *line_rate, double *owed, double *out_d);

void k_fluid(int64_t m, int64_t lo, int64_t hi, int64_t n_steps,
    double *t_grid, double *x0, double *y0, double a, double b,
    double cap, double kk, double q0, double x_full, double x_empty, int64_t linear_dec,
    int64_t physical, int64_t max_switches, double conv_rtol,
    double t_max, double *xs, double *ys, int8_t *reason,
    int64_t *switches, double *t_end, double *x_end, double *y_end,
    int64_t ev_cap, int64_t *n_events, double *ev_t, int8_t *ev_kind,
    double *ev_x, double *ev_y, int64_t *out_i);

int64_t k_delayed(int64_t n_steps, double tau, double step, double a,
    double b, double cap, double kk, double s_initial, double limit,
    double *t, double *x, double *y);

typedef struct ev_core {
    int64_t n, n_ports, n_pause, n_timed, neumaier, digest_on, start_all;
    double duration, queue_dt, L;
    double *rate, *gi, *gd, *ru, *max_dt, *min_rate, *line_rate;
    double *last_update, *up_delay, *start_time, *total_bits;
    double *paused_until, *bits_sent, *finish_time, *got, *size, *done_t;
    int64_t *mode, *updates, *frames_sent, *assoc, *up_port, *done_rank;
    uint8_t *muted, *started;
    int64_t *fl_off, *fl_port, *fl_next;
    double *fl_delay, *fl_bcn;
    int64_t *pause_off, *pause_kind, *pause_dst;
    double *pause_delay;
    double *ev_t, *ev_val;
    int64_t *ev_kind, *ev_idx;
    double *capacity, *q0, *w, *pm, *q_sc, *pause_duration, *buffer_bits;
    double *sigma_unit, *full_scale, *q_last, *service_paused_until;
    int64_t *pos_only, *req_assoc, *interval, *since, *use_rng, *log_on;
    int64_t *busy, *armed, *mt_index;
    uint32_t *mt;
    double *occ, *enq_bits, *deq_bits, *drop_bits, *fwd_bits;
    int64_t *enq_frames, *deq_frames, *drop_frames, *fwd_frames;
    int64_t *samples, *bcn_neg, *bcn_pos, *pauses_sent;
    double delivered, now;
    int64_t processed, pushes, n_done;
    int64_t n_rec, cap_rec;
    double *rec_t, *rec_q, *rec_r;
    int64_t n_sig, cap_sig;
    int64_t *sig_port;
    double *sig_t, *sig_v;
    int64_t n_log, cap_log;
    int8_t *log_kind;
    int64_t *log_port, *log_flow;
    double *log_t, *log_v;
    int64_t n_dig, cap_dig;
    double *dig;
    int64_t n_res;
    int64_t *res_port, *res_src, *res_assoc;
    double *res_t;
    int64_t n_pend;
    int8_t *pend_kind;
    int64_t *pend_idx, *pend_port, *pend_seq;
    double *pend_t, *pend_a, *pend_b, *pend_c, *pend_d, *pend_e;
} ev_core;

int64_t k_event_core(ev_core *c);

void k_event_core_free(ev_core *c);
"""

_COMMON = r"""
#include <math.h>
#include <stdint.h>

static int64_t bisect_right(const double *arr, int64_t n, double v) {
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (arr[mid] <= v) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* Merge the per-source arithmetic trains first[i] + gaps[i]*k + d
   (k < counts[i]) into one train ordered by (time, source), as the
   numpy tier's stable argsort does.  Returns the frame count, or -1
   when the merge heap for more than 4096 sources cannot be allocated
   (checked before any array argument is read; the caller raises). */
int64_t k_merge_trains(int64_t n_src, double *first, double *gaps,
    int64_t *counts, uint8_t *assoc, double d,
    double *out_t, int64_t *out_src, uint8_t *out_assoc)
{
    int64_t m = 0, i, size = 0, out;
    double hp_t[4096];
    int64_t hp_s[4096];
    int64_t emitted_stack[4096];
    double *ht = hp_t; int64_t *hs = hp_s, *emitted = emitted_stack;
    double *ht_heap = 0; int64_t *hs_heap = 0, *em_heap = 0;
    if (n_src > 4096) {
        /* every heap entry is 8 bytes wide */
        if ((uint64_t)n_src <= SIZE_MAX / sizeof(int64_t)) {
            ht_heap = (double *)malloc((size_t)n_src * sizeof(double));
            hs_heap = (int64_t *)malloc((size_t)n_src * sizeof(int64_t));
            em_heap = (int64_t *)malloc((size_t)n_src * sizeof(int64_t));
        }
        if (!ht_heap || !hs_heap || !em_heap) {
            free(ht_heap); free(hs_heap); free(em_heap);
            return -1;
        }
        ht = ht_heap; hs = hs_heap; emitted = em_heap;
    }
    for (i = 0; i < n_src; i++) m += counts[i];
    if (m == 0) {
        free(ht_heap); free(hs_heap); free(em_heap);
        return 0;
    }
    for (i = 0; i < n_src; i++) {
        emitted[i] = 0;
        if (counts[i] > 0) {
            double t0 = first[i] + gaps[i] * 0.0 + d;
            int64_t j = size;
            ht[j] = t0; hs[j] = i; size++;
            while (j > 0) {
                int64_t parent = (j - 1) >> 1;
                if (ht[j] < ht[parent] ||
                    (ht[j] == ht[parent] && hs[j] < hs[parent])) {
                    double tt = ht[j]; ht[j] = ht[parent]; ht[parent] = tt;
                    int64_t ss = hs[j]; hs[j] = hs[parent]; hs[parent] = ss;
                    j = parent;
                } else break;
            }
        }
    }
    for (out = 0; out < m; out++) {
        double t = ht[0];
        int64_t src = hs[0], j = 0;
        out_t[out] = t;
        out_src[out] = src;
        out_assoc[out] = assoc[src];
        emitted[src]++;
        if (emitted[src] < counts[src]) {
            ht[0] = first[src] + gaps[src] * (double)emitted[src] + d;
            hs[0] = src;
        } else {
            size--;
            ht[0] = ht[size];
            hs[0] = hs[size];
        }
        for (;;) {
            int64_t left = 2 * j + 1, right, small;
            if (left >= size) break;
            right = left + 1;
            small = left;
            if (right < size && (ht[right] < ht[left] ||
                (ht[right] == ht[left] && hs[right] < hs[left]))) small = right;
            if (ht[small] < ht[j] ||
                (ht[small] == ht[j] && hs[small] < hs[j])) {
                double tt = ht[j]; ht[j] = ht[small]; ht[small] = tt;
                int64_t ss = hs[j]; hs[j] = hs[small]; hs[small] = ss;
                j = small;
            } else break;
        }
    }
    free(ht_heap); free(hs_heap); free(em_heap);
    return m;
}

/* Plan one window of emissions: first = max(next_emit, paused), then
   floor((until - first) / gap) + 1 frames for each active source whose
   train reaches the window, capped at the frames it has left. */
int64_t k_pacing_plan(int64_t n, double *next_emit, double *paused,
    uint8_t *active, double *remaining, double *gaps, double until,
    double *first, int64_t *counts)
{
    int64_t i, total = 0;
    for (i = 0; i < n; i++) {
        double f = next_emit[i];
        int64_t c = 0;
        if (paused[i] > f) f = paused[i];
        first[i] = f;
        if (active[i] != 0 && f <= until) {
            double cf = floor((until - f) / gaps[i]) + 1.0;
            if (remaining[i] < cf) cf = remaining[i];
            c = (int64_t)cf;
        }
        counts[i] = c;
        total += c;
    }
    return total;
}

/* Fold the committed prefix srcs[:m_committed] back into the pacing
   state; with any_finite, retire sources that ran out and return how
   many (their index and last emission time go to fin_idx/fin_t). */
int64_t k_pacing_commit(int64_t n, int64_t m_committed, int64_t *srcs,
    double *first, double *gaps, int64_t *counts, int64_t any_finite,
    double *next_emit, double *remaining, uint8_t *active,
    int64_t *frames_acc, int64_t *comm, int64_t *fin_idx, double *fin_t)
{
    int64_t i, k, n_fin = 0;
    for (i = 0; i < n; i++) comm[i] = 0;
    for (k = 0; k < m_committed; k++) comm[srcs[k]]++;
    for (i = 0; i < n; i++) {
        int64_t c = comm[i];
        frames_acc[i] += c;
        if (c > 0) {
            next_emit[i] = first[i] + gaps[i] * (double)c;
            if (any_finite != 0) {
                remaining[i] -= (double)c;
                if (remaining[i] <= 0.0) {
                    active[i] = 0;
                    fin_idx[n_fin] = i;
                    fin_t[n_fin] = first[i] + gaps[i] * ((double)c - 1.0);
                    n_fin++;
                }
            }
        } else if (counts[i] > 0) {
            next_emit[i] = first[i];
        }
    }
    return n_fin;
}

/* Repay the owed-bits ledger: a source due after `until` emits
   owed/rate earlier, floored at nxt; the ledger is debited by the bits
   actually moved. */
void k_owed_repay(int64_t n, double *owed, double *next_emit,
    double *rates, double until, double nxt)
{
    int64_t i;
    for (i = 0; i < n; i++) {
        double ne = next_emit[i];
        if (ne > until) {
            double t = ne - owed[i] / rates[i];
            if (t < nxt) t = nxt;
            owed[i] -= (ne - t) * rates[i];
            next_emit[i] = t;
        }
    }
}

/* Plan one window without touching state: the no-drop Lindley hull
   over n_res residual frames then the arrivals, the occupancy each
   arrival sees, and drop-tail (hand the window to k_packet_scalar) or
   PAUSE detection (commit only the in-flight prefix).
   out_i = [needs_scalar, m_eff, total_eff];
   out_d = [pause_at (NaN: none), t_commit]. */
void k_packet_plan(int64_t m, double *times, double t_start, double t_end,
    double ssvc, double L, double B, double q_sc, int64_t n_res,
    double next_free, int64_t inflight, double frozen_until,
    double pause_rearm_at, double pause_horizon,
    double *starts, double *completions, double *q_bits,
    double *out_d, int64_t *out_i)
{
    int64_t total = n_res + m, i, j, p = 0;
    double c0 = inflight != 0 ? next_free : t_start;
    double hull = -INFINITY;
    double pause_at = NAN, t_commit = t_end;
    int64_t needs_scalar = 0, m_eff = m;
    if (frozen_until > c0) c0 = frozen_until;

    for (i = 0; i < total; i++) {
        double a_i = i < n_res ? t_start : times[i - n_res];
        double term = a_i - ssvc * (double)i;
        double base;
        if (term > hull) hull = term;
        base = c0 > hull ? c0 : hull;
        completions[i] = ssvc * (double)(i + 1) + base;
        starts[i] = completions[i] - ssvc;
    }
    for (j = 0; j < m; j++) {
        double t_j = times[j];
        int64_t g = n_res + j, sb;
        double q;
        while (p < total && starts[p] <= t_j) p++;
        sb = p < g ? p : g;
        q = L * (double)((g + 1) - sb);
        q_bits[j] = q;
        if (q > B) { needs_scalar = 1; break; }
    }
    if (needs_scalar == 0 && q_sc == q_sc) {
        for (j = 0; j < m; j++) {
            if (q_bits[j] > q_sc && times[j] >= pause_rearm_at) {
                double limit;
                int64_t lo;
                pause_at = times[j];
                limit = pause_at + pause_horizon;
                if (t_end < limit) limit = t_end;
                lo = bisect_right(times, m, limit);
                m_eff = lo > j + 1 ? lo : j + 1;
                t_commit = limit;
                break;
            }
        }
    }
    out_i[0] = needs_scalar;
    out_i[1] = m_eff;
    out_i[2] = n_res + m_eff;
    out_d[0] = pause_at;
    out_d[1] = t_commit;
}

/* ---- the BCN control law, once (python: repro.simulation.switch and
   repro.simulation.source) --------------------------------------------- */

/* quantize_fb: the wire FB field of raw sigma, round(sigma / sigma_unit)
   ties to even (rint in the default rounding mode, as np.rint),
   clamped to [-full_scale, full_scale - 1]; + 0.0 turns a rounded -0.0
   into +0.0.  A NaN sigma_unit carries raw sigma. */
static double quant_fb(double sigma, double sigma_unit, double full_scale) {
    double fb;
    if (sigma_unit != sigma_unit) return sigma;
    fb = rint(sigma / sigma_unit);
    if (fb < -full_scale) fb = -full_scale;
    else if (fb > full_scale - 1.0) fb = full_scale - 1.0;
    return fb + 0.0;
}

/* bcn_feedback at one sample with queue q: sigma = (q0 - q) - w*dq with
   dq = q - q_last (eq. 1); emit -1 for negative BCN, 1 for positive BCN
   (below q0 unless !pos_only, to an associated source unless
   !req_assoc), 0 for none; fb is an emitted message's wire FB. */
typedef struct { double sigma, dq, fb; int emit; } bcn_fb;

static bcn_fb bcn_sample(double q, double q_last, double q0, double w,
    int64_t pos_only, int64_t req_assoc, int associated,
    double sigma_unit, double full_scale)
{
    bcn_fb s;
    s.dq = q - q_last;
    s.sigma = (q0 - q) - w * s.dq;
    if (s.sigma < 0.0) s.emit = -1;
    else if (s.sigma > 0.0 && (q < q0 || pos_only == 0)
             && (req_assoc == 0 || associated)) s.emit = 1;
    else s.emit = 0;
    s.fb = s.emit != 0 ? quant_fb(s.sigma, sigma_unit, full_scale) : 0.0;
    return s;
}

/* rate_law for one BCN message: mode 0 applies the wire FB once, modes 1
   (Euler) and 2 (exact, libm exp as math.exp) integrate raw sigma over
   the time since *last_update (NaN: never updated) capped at max_dt
   (NaN: no cap); the rate is clamped to [min_rate, line_rate].  Negative
   feedback sets *assoc, recovery to the line rate clears it. */
static double bcn_rate_step(int64_t mode, double gi, double gd, double ru,
    double max_dt, double min_rate, double line_rate, double rate,
    double *last_update, double now, double fb, double sigma,
    uint8_t *assoc)
{
    double sign;
    if (mode == 0) {
        sign = fb;
        if (fb > 0.0) rate = rate + gi * ru * fb;
        else if (fb < 0.0) {
            double factor = 1.0 + gd * fb;
            rate = rate * (factor < 0.0 ? 0.0 : factor);
        }
    } else {
        double lu = *last_update;
        double dt = lu != lu ? 0.0 : now - lu;
        if (dt > max_dt) dt = max_dt;
        *last_update = now;
        sign = sigma;
        if (sigma > 0.0) rate = rate + gi * ru * sigma * dt;
        else if (sigma < 0.0) {
            if (mode == 2) rate = rate * exp(gd * sigma * dt);
            else {
                double factor = 1.0 + gd * sigma * dt;
                rate = rate * (factor < 0.0 ? 0.0 : factor);
            }
        }
    }
    if (rate < min_rate) rate = min_rate;
    if (rate > line_rate) rate = line_rate;
    if (sign < 0.0) *assoc = 1;
    else if (rate >= line_rate) *assoc = 0;
    return rate;
}

/* Commit the planned no-drop window: sampling (pre-drawn uniforms when
   use_rng, else the deterministic counter), sigma, BCN messages and
   service accounting.  sigma_unit is NaN for raw-sigma feedback.
   out_i = [n_msg, n_samp, neg, pos, delivered, n_started, backlog,
   inflight, since]; out_d = [next_free, q_at_last_sample]. */
void k_packet_commit(int64_t m_eff, int64_t n_res, double *times,
    int64_t *srcs, uint8_t *assoc, double *q_bits, double *starts,
    double *completions, double t_start, double t_commit,
    int64_t prev_inflight, double prev_next_free, double *uniforms,
    int64_t use_rng, double pm, int64_t interval, int64_t since,
    double q_prev, double q0, double w, int64_t pos_only,
    int64_t req_assoc, double sigma_unit, double full_scale,
    double *msg_t, int64_t *msg_src, double *msg_sigma, double *msg_fb,
    double *samp_t, double *samp_sigma, double *out_d, int64_t *out_i)
{
    int64_t total_eff = n_res + m_eff;
    int64_t n_msg = 0, n_samp = 0, neg = 0, pos = 0, j;
    int64_t delivered, n_started, inflight;
    double prev = q_prev, next_free;
    for (j = 0; j < m_eff; j++) {
        int sampled;
        bcn_fb s;
        if (use_rng != 0) sampled = uniforms[j] < pm;
        else sampled = (since + (j + 1)) % interval == 0;
        if (!sampled) continue;
        s = bcn_sample(q_bits[j], prev, q0, w, pos_only, req_assoc,
                       assoc[j] != 0, sigma_unit, full_scale);
        prev = q_bits[j];
        samp_t[n_samp] = times[j];
        samp_sigma[n_samp] = s.sigma;
        n_samp++;
        if (s.emit == 0) continue;
        if (s.emit < 0) neg++; else pos++;
        msg_t[n_msg] = times[j];
        msg_src[n_msg] = srcs[j];
        msg_sigma[n_msg] = s.sigma;
        msg_fb[n_msg] = s.fb;
        n_msg++;
    }
    if (use_rng == 0) since = (since + m_eff) % interval;

    delivered = bisect_right(completions, total_eff, t_commit);
    if (prev_inflight != 0 && t_start < prev_next_free
        && prev_next_free <= t_commit) delivered++;
    n_started = bisect_right(starts, total_eff, t_commit);

    next_free = prev_next_free;
    inflight = prev_inflight;
    if (n_started) {
        next_free = completions[n_started - 1];
        inflight = next_free > t_commit ? 1 : 0;
    } else if (prev_inflight != 0 && prev_next_free <= t_commit) {
        inflight = 0;
    }
    out_i[0] = n_msg;
    out_i[1] = n_samp;
    out_i[2] = neg;
    out_i[3] = pos;
    out_i[4] = delivered;
    out_i[5] = n_started;
    out_i[6] = total_eff - n_started;
    out_i[7] = inflight;
    out_i[8] = since;
    out_d[0] = next_free;
    out_d[1] = prev;
}

/* Per-frame window loop for windows where drop-tail engages
   (KernelBackend.packet_scalar).  uniforms holds one draw per arrival;
   the caller rewinds its generator to the committed count.  msg_j,
   drop_j and pause_j hold the arrival index of each message, drop and
   PAUSE firing.  out_i = [committed, n_msg, n_samp, n_drop, delivered,
   backlog, inflight, since, n_starts, n_acc, neg, pos, any_started,
   n_pause]; out_d = [pause_at, t_commit, next_free, q_at_last_sample,
   pause_rearm_at]. */
void k_packet_scalar(int64_t m, double *times, int64_t *srcs,
    uint8_t *assoc, double *uniforms, int64_t use_rng, double pm,
    int64_t interval, int64_t since, double t_start, double t_end,
    double ssvc, double L, double B, double q_sc, double q0, double w,
    int64_t pos_only, int64_t req_assoc, double sigma_unit,
    double full_scale, int64_t backlog, double next_free0,
    int64_t inflight, double frozen_until, double pause_rearm_at,
    double pause_duration, double pause_horizon, double q_prev,
    double *msg_t, int64_t *msg_src, double *msg_sigma, double *msg_fb,
    double *samp_t, double *samp_sigma, int64_t *msg_j, int64_t *drop_j,
    double *acc_arrivals, double *starts_out, int64_t *pause_j,
    double *out_d, int64_t *out_i)
{
    int64_t prev_inflight = inflight;
    double prev_next_free = next_free0;
    double next_free = inflight != 0 ? next_free0 : -INFINITY;
    int64_t any_started = 0, n_acc = 0, n_starts = 0;
    int64_t n_msg = 0, n_samp = 0, n_drop = 0, neg = 0, pos = 0;
    int64_t committed = 0, j, i, delivered = 0;
    int64_t out_inflight, n_pause = 0;
    double pause_at = NAN, pause_limit = INFINITY, t_commit = t_end;
    double q_last = q_prev, out_next_free;
    if (t_start > next_free) next_free = t_start;
    if (frozen_until > next_free) next_free = frozen_until;
    for (i = 0; i < backlog; i++) acc_arrivals[n_acc++] = t_start;

    for (j = 0; j < m; j++) {
        double a = times[j], occ, q_now;
        int sampled, accepted;
        if (a > pause_limit) break;
        while (backlog > 0 && next_free < a) {
            starts_out[n_starts++] = next_free;
            next_free += ssvc;
            backlog--;
            any_started = 1;
        }
        if (use_rng != 0) sampled = uniforms[j] < pm;
        else {
            since++;
            sampled = since >= interval;
            if (sampled) since = 0;
        }
        occ = (double)backlog * L;
        accepted = occ + L <= B;
        if (accepted) {
            acc_arrivals[n_acc++] = a;
            if (backlog == 0 && next_free <= a) {
                starts_out[n_starts++] = a;
                next_free = a + ssvc;
                any_started = 1;
            } else backlog++;
            q_now = occ + L;
        } else {
            drop_j[n_drop++] = j;
            q_now = occ;
        }
        if (sampled) {
            bcn_fb s = bcn_sample(q_now, q_last, q0, w, pos_only, req_assoc,
                                  assoc[j] != 0, sigma_unit, full_scale);
            q_last = q_now;
            samp_t[n_samp] = a;
            samp_sigma[n_samp] = s.sigma;
            n_samp++;
            if (s.emit != 0) {
                if (s.emit < 0) neg++; else pos++;
                msg_j[n_msg] = j;
                msg_t[n_msg] = a;
                msg_src[n_msg] = srcs[j];
                msg_sigma[n_msg] = s.sigma;
                msg_fb[n_msg] = s.fb;
                n_msg++;
            }
        }
        committed++;
        if (q_sc == q_sc && q_now > q_sc && a >= pause_rearm_at) {
            pause_at = a;
            pause_rearm_at = a + pause_duration;
            pause_j[n_pause++] = j;
            pause_limit = a + pause_horizon;
            if (t_end < pause_limit) pause_limit = t_end;
            t_commit = pause_limit;
        }
    }
    while (backlog > 0 && next_free <= t_commit) {
        starts_out[n_starts++] = next_free;
        next_free += ssvc;
        backlog--;
        any_started = 1;
    }
    for (i = 0; i < n_starts; i++) {
        if (starts_out[i] + ssvc <= t_commit) delivered++;
        else break;
    }
    if (prev_inflight != 0 && t_start < prev_next_free
        && prev_next_free <= t_commit) delivered++;

    out_next_free = next_free0;
    out_inflight = prev_inflight;
    if (any_started != 0) {
        out_next_free = next_free;
        out_inflight = next_free > t_commit ? 1 : 0;
    } else if (prev_inflight != 0 && prev_next_free <= t_commit) {
        out_inflight = 0;
    }
    out_i[0] = committed;
    out_i[1] = n_msg;
    out_i[2] = n_samp;
    out_i[3] = n_drop;
    out_i[4] = delivered;
    out_i[5] = backlog;
    out_i[6] = out_inflight;
    out_i[7] = since;
    out_i[8] = n_starts;
    out_i[9] = n_acc;
    out_i[10] = neg;
    out_i[11] = pos;
    out_i[12] = any_started;
    out_i[13] = n_pause;
    out_d[0] = pause_at;
    out_d[1] = t_commit;
    out_d[2] = out_next_free;
    out_d[3] = q_last;
    out_d[4] = pause_rearm_at;
}

/* Apply one window's BCN messages to struct-of-array regulator state
   (bcn_rate_step, message by message), accrue the owed-bits ledger and
   keep the running total rate in out_d[0]. */
void k_apply_messages(int64_t n, double *msg_t, int64_t *msg_src,
    double *msg_fb, double *msg_sigma, int64_t mode, double gi, double gd,
    double ru, double max_dt, double d, double t_commit,
    double *rate, double *last_update, uint8_t *assoc8, int64_t *updates,
    double *min_rate, double *line_rate, double *owed, double *out_d)
{
    double total_rate = out_d[0];
    int64_t k;
    for (k = 0; k < n; k++) {
        int64_t i = msg_src[k];
        double now = msg_t[k] + d;
        double r0 = rate[i];
        double r = bcn_rate_step(mode, gi, gd, ru, max_dt, min_rate[i],
                                 line_rate[i], r0, &last_update[i], now,
                                 msg_fb[k], msg_sigma[k], &assoc8[i]);
        rate[i] = r;
        updates[i]++;
        if (r != r0) {
            double delta = r - r0;
            double lag = t_commit - now;
            if (lag < 0.0) lag = 0.0;
            owed[i] += delta * lag;
            total_rate += delta;
        }
    }
    out_d[0] = total_rate;
}
"""

_FLUID = r"""
/* ---- switched-fluid RK4 with cubic-Hermite event refinement ------------ */
/* The numpy oracle is repro.fluid.batch.simulate_fluid_batch: every row
   runs the same float operations in the same order as its vectorised
   step, so samples, events and end states match it bit for bit. */

typedef struct {
    double a, b, cap, k, q0, x_full, x_empty, conv_rtol, t_max;
    int64_t linear_dec, physical, max_switches, ev_cap;
    double *ev_t; int8_t *ev_kind; double *ev_x, *ev_y;
    int64_t overflow;
} fparams;

typedef struct {
    double x, y;
    int dec, alive, pinned, rsn;
    double pin_t, unpin_t, pin_y;
    int64_t sw_count, n_ev;
    double te, xe_final, ye_final;
} frow;

static void fluid_record(fparams *p, frow *rs, int64_t r,
    double t, int8_t kind, double xv, double yv)
{
    if (rs->n_ev < p->ev_cap) {
        int64_t base = r * p->ev_cap + rs->n_ev;
        p->ev_t[base] = t;
        p->ev_kind[base] = kind;
        p->ev_x[base] = xv;
        p->ev_y[base] = yv;
        rs->n_ev++;
    } else p->overflow = 1;
}

/* Root of alpha*x + beta*y + gamma on the cubic Hermite interpolant of
   one step (batch._refine_event): safeguarded Newton, 16 iterations. */
static void fluid_refine(fparams *p, double x0, double y0, int dec,
    double h, double x1, double y1, double alpha, double beta, double gamma,
    double *th_out, double *xt_out, double *yt_out)
{
    double A = p->a, B = p->b, C = p->cap, K = p->k;
    double s0 = x0 + K * y0;
    double coef0 = dec ? (p->linear_dec ? B * C : B * (y0 + C)) : A;
    double f0x = y0, f0y = -coef0 * s0;
    double s1 = x1 + K * y1;
    double coef1 = dec ? (p->linear_dec ? B * C : B * (y1 + C)) : A;
    double f1x = y1, f1y = -coef1 * s1;
    double u0 = alpha * x0 + beta * y0 + gamma;
    double u1 = alpha * x1 + beta * y1 + gamma;
    double d0 = h * (alpha * f0x + beta * f0y);
    double d1 = h * (alpha * f1x + beta * f1y);
    double c0 = u0, c1 = d0;
    double c2 = 3.0 * (u1 - u0) - 2.0 * d0 - d1;
    double c3 = 2.0 * (u0 - u1) + d0 + d1;
    double lo = 0.0, hi = 1.0, g_lo = u0;
    double b2 = 2.0 * c2, b3 = 3.0 * c3;
    double denom = u0 - u1, theta, t2, om, h00, h10, h01, h11;
    int it;
    theta = denom == 0.0 ? NAN : u0 / denom;
    if (!isfinite(theta)) theta = 0.5;
    else if (theta < 0.0) theta = 0.0;
    else if (theta > 1.0) theta = 1.0;
    for (it = 0; it < 16; it++) {
        double g = ((c3 * theta + c2) * theta + c1) * theta + c0;
        double slope, newton;
        if (g_lo * g > 0.0) { lo = theta; g_lo = g; }
        else hi = theta;
        slope = (b3 * theta + b2) * theta + c1;
        newton = slope != 0.0 ? theta - g / slope : INFINITY;
        if (newton > lo && newton < hi) theta = newton;
        else theta = 0.5 * (lo + hi);
    }
    t2 = theta * theta;
    om = 1.0 - theta;
    h00 = (1.0 + 2.0 * theta) * om * om;
    h10 = theta * om * om;
    h01 = t2 * (3.0 - 2.0 * theta);
    h11 = t2 * (theta - 1.0);
    *th_out = theta;
    *xt_out = h00 * x0 + h10 * (h * f0x) + h01 * x1 + h11 * (h * f1x);
    *yt_out = h00 * y0 + h10 * (h * f0y) + h01 * y1 + h11 * (h * f1y);
}

/* Advance one free-running row by h from t0 (batch._advance): an RK4
   step, cut at the first switching-line or buffer crossing; a switch
   re-enters the loop on the remainder, a buffer hit pins the row. */
static void fluid_advance(fparams *p, frow *rs, int64_t r, double t0,
    double h)
{
    double A = p->a, B = p->b, C = p->cap;
    double K = p->k, Q0 = p->q0;
    double XF = p->x_full, XE = p->x_empty;
    for (;;) {
        double xx0 = rs->x, yy0 = rs->y;
        double rsign = rs->dec ? 1.0 : -1.0;
        double s_, coef, k1x, k1y, k2x, k2y, k3x, k3y, k4x, k4y, ax, ay;
        double sixth, x1, y1, s1, line_tol, theta, xe, ye;
        double t_ev;
        int term = 0;
        s_ = xx0 + K * yy0;
        coef = rs->dec ? (p->linear_dec ? B * C : B * (yy0 + C)) : A;
        k1x = yy0; k1y = -coef * s_;
        ax = xx0 + 0.5 * h * k1x; ay = yy0 + 0.5 * h * k1y;
        s_ = ax + K * ay;
        coef = rs->dec ? (p->linear_dec ? B * C : B * (ay + C)) : A;
        k2x = ay; k2y = -coef * s_;
        ax = xx0 + 0.5 * h * k2x; ay = yy0 + 0.5 * h * k2y;
        s_ = ax + K * ay;
        coef = rs->dec ? (p->linear_dec ? B * C : B * (ay + C)) : A;
        k3x = ay; k3y = -coef * s_;
        ax = xx0 + h * k3x; ay = yy0 + h * k3y;
        s_ = ax + K * ay;
        coef = rs->dec ? (p->linear_dec ? B * C : B * (ay + C)) : A;
        k4x = ay; k4y = -coef * s_;
        sixth = h / 6.0;
        x1 = xx0 + sixth * (k1x + 2.0 * (k2x + k3x) + k4x);
        y1 = yy0 + sixth * (k1y + 2.0 * (k2y + k3y) + k4y);

        s1 = x1 + K * y1;
        line_tol = 1e-12 * (fabs(x1) + K * fabs(y1) + Q0);
        theta = 1.0;
        xe = x1; ye = y1;
        if (s1 * rsign < -line_tol) {
            double th, xt, yt;
            fluid_refine(p, xx0, yy0, rs->dec, h, x1, y1,
                         1.0, K, 0.0, &th, &xt, &yt);
            if (th < theta) { theta = th; xe = xt; ye = yt; term = 1; }
        }
        if (p->physical) {
            if (xx0 < XF && x1 >= XF) {
                double th, xt, yt;
                fluid_refine(p, xx0, yy0, rs->dec, h, x1, y1,
                             1.0, 0.0, -XF, &th, &xt, &yt);
                if (th < theta) { theta = th; xe = xt; ye = yt; term = 2; }
            }
            if (xx0 > XE && x1 <= XE) {
                double th, xt, yt;
                fluid_refine(p, xx0, yy0, rs->dec, h, x1, y1,
                             1.0, 0.0, -XE, &th, &xt, &yt);
                if (th < theta) { theta = th; xe = xt; ye = yt; term = 3; }
            }
        }
        t_ev = t0 + theta * h;

        if (yy0 * ye < 0.0) {
            double hk = h * theta, th, xt, yt;
            fluid_refine(p, xx0, yy0, rs->dec, hk, xe, ye,
                         0.0, 1.0, 0.0, &th, &xt, &yt);
            fluid_record(p, rs, r, t0 + th * hk, 1, xt, yt);
        }
        if (!p->physical) {
            if (xx0 < XF && xe >= XF) {
                double hk = h * theta, th, xt, yt;
                fluid_refine(p, xx0, yy0, rs->dec, hk, xe, ye,
                             1.0, 0.0, -XF, &th, &xt, &yt);
                fluid_record(p, rs, r, t0 + th * hk, 2, xt, yt);
            }
            if (xx0 > XE && xe <= XE) {
                double hk = h * theta, th, xt, yt;
                fluid_refine(p, xx0, yy0, rs->dec, hk, xe, ye,
                             1.0, 0.0, -XE, &th, &xt, &yt);
                fluid_record(p, rs, r, t0 + th * hk, 3, xt, yt);
            }
        }

        if (term == 0) { rs->x = xe; rs->y = ye; return; }
        if (term == 1) {
            int over, conv;
            fluid_record(p, rs, r, t_ev, 0, xe, ye);
            rs->sw_count++;
            over = rs->sw_count > p->max_switches;
            conv = !over
                && fabs(xe) / p->q0 <= p->conv_rtol
                && fabs(ye) / p->cap <= p->conv_rtol;
            if (over || conv) {
                rs->alive = 0;
                rs->te = t_ev;
                rs->xe_final = xe; rs->ye_final = ye;
                rs->x = xe; rs->y = ye;
                rs->rsn = over ? 3 : 1; /* max_switches : converged */
                return;
            }
            rs->dec = ye > 0.0;
            rs->x = xe; rs->y = ye;
            t0 = t_ev;
            h = h * (1.0 - theta);
            continue;
        }
        {
            int is_full = term == 2;
            double duration, t_step_end;
            fluid_record(p, rs, r, t_ev, is_full ? 2 : 3,
                         is_full ? XF : XE, ye);
            rs->pinned = is_full ? 1 : 2;
            rs->pin_t = t_ev;
            rs->pin_y = ye;
            if (is_full)
                duration = log((ye + p->cap) / p->cap)
                           / (p->b * p->x_full);
            else
                duration = -ye / (p->a * p->q0);
            rs->unpin_t = t_ev + duration;
            if (p->t_max < rs->unpin_t) rs->unpin_t = p->t_max;
            rs->x = is_full ? XF : XE;
            rs->y = ye;
            t_step_end = t0 + h;
            if (rs->unpin_t <= t_step_end) {
                double t_up = rs->unpin_t;
                double x_pin = is_full ? XF : XE;
                rs->x = x_pin; rs->y = 0.0;
                rs->pinned = 0;
                rs->unpin_t = INFINITY;
                rs->dec = x_pin > 0.0;
                t0 = t_up;
                h = t_step_end - t_up;
                continue;
            }
            return;
        }
    }
}

/* Integrate rows [lo, hi) of an m-row bundle: x0/y0, the columns of
   xs/ys (stride m) and the event slots are indexed by the global row.
   out_i = [last, overflow]: steps 0..last of this range's columns are
   written (the step after which no row of the range was alive, else
   n_steps), -1 if the row states cannot be allocated; overflow is set
   when a row outgrew ev_cap. */
void k_fluid(int64_t m, int64_t lo, int64_t hi, int64_t n_steps,
    double *t_grid, double *x0, double *y0, double a, double b,
    double cap, double kk, double q0, double x_full, double x_empty, int64_t linear_dec,
    int64_t physical, int64_t max_switches, double conv_rtol,
    double t_max, double *xs, double *ys, int8_t *reason,
    int64_t *switches, double *t_end, double *x_end, double *y_end,
    int64_t ev_cap, int64_t *n_events, double *ev_t, int8_t *ev_kind,
    double *ev_x, double *ev_y, int64_t *out_i)
{
    /* Step-major: every row advances one grid step before any row takes
       the next, so each step's samples land in one contiguous run of
       xs/ys.  Rows share nothing but the read-only parameters (each has
       its own event slots), so neither the interleaving nor a split of
       the rows into ranges run on separate threads changes any row's
       arithmetic.  Once no row of the range is alive the loop stops, as
       the numpy loop does; later samples are never written. */
    fparams p;
    frow *rows;
    double K = kk, XF = x_full, XE = x_empty;
    int64_t r, i, last = n_steps;

    out_i[1] = 0;
    if (hi <= lo) { out_i[0] = 1; return; }
    rows = (uint64_t)(hi - lo) > SIZE_MAX / sizeof(frow) ? NULL
           : (frow *)malloc((size_t)(hi - lo) * sizeof(frow));
    if (rows == NULL) { out_i[0] = -1; return; }  /* caller raises */

    p.a = a; p.b = b; p.cap = cap; p.k = kk; p.q0 = q0;
    p.x_full = x_full; p.x_empty = x_empty;
    p.conv_rtol = conv_rtol; p.t_max = t_max;
    p.linear_dec = linear_dec; p.physical = physical;
    p.max_switches = max_switches; p.ev_cap = ev_cap;
    p.ev_t = ev_t; p.ev_kind = ev_kind; p.ev_x = ev_x; p.ev_y = ev_y;
    p.overflow = 0;

    for (r = lo; r < hi; r++) {
        frow *rs = &rows[r - lo];
        double s;
        rs->x = x0[r]; rs->y = y0[r];
        s = rs->x + K * rs->y;
        rs->dec = (s > 0.0) || (s == 0.0 && rs->y > 0.0);
        rs->alive = 1; rs->pinned = 0; rs->rsn = 0;
        rs->pin_t = 0.0; rs->pin_y = 0.0; rs->unpin_t = INFINITY;
        rs->sw_count = 0; rs->n_ev = 0;
        rs->te = 0.0; rs->xe_final = rs->x; rs->ye_final = rs->y;

        if (fabs(rs->x) / q0 <= conv_rtol
            && fabs(rs->y) / cap <= conv_rtol) {
            rs->alive = 0;
            rs->rsn = 1;
        } else if (physical && rs->x <= XE && rs->y < 0.0) {
            double duration;
            fluid_record(&p, rs, r, 0.0, 3, XE, rs->y);
            rs->pinned = 2;
            rs->pin_t = 0.0;
            rs->pin_y = rs->y;
            duration = -rs->y / (a * q0);
            rs->unpin_t = duration < t_max ? duration : t_max;
            rs->x = XE;
        }
        xs[r] = rs->x;
        ys[r] = rs->y;
    }

    for (i = 0; i < n_steps; i++) {
        double t0 = t_grid[i], t1 = t_grid[i + 1];
        double *xs_i = xs + (i + 1) * m, *ys_i = ys + (i + 1) * m;
        int64_t live = 0;
        for (r = lo; r < hi; r++) {
            frow *rs = &rows[r - lo];
            if (rs->alive && rs->pinned == 0)
                fluid_advance(&p, rs, r, t0, t1 - t0);
            if (physical && rs->alive && rs->pinned != 0
                && rs->unpin_t <= t1 && rs->unpin_t < t_max) {
                double x_pin = rs->pinned == 1 ? XF : XE;
                double t_up = rs->unpin_t;
                rs->x = x_pin; rs->y = 0.0;
                rs->pinned = 0;
                rs->unpin_t = INFINITY;
                rs->dec = x_pin > 0.0;
                fluid_advance(&p, rs, r, t_up, t1 - t_up);
            }
            if (physical && rs->alive && rs->pinned != 0) {
                double dt = t1 - rs->pin_t;
                if (rs->pinned == 1) {
                    rs->x = XF;
                    rs->y = (rs->pin_y + cap) * exp(-b * x_full * dt) - cap;
                } else {
                    rs->x = XE;
                    rs->y = rs->pin_y + a * q0 * dt;
                }
            }
            /* a dead row repeats its frozen end state */
            xs_i[r] = rs->x;
            ys_i[r] = rs->y;
            live += rs->alive;
        }
        if (live == 0) { last = i + 1; break; }
    }

    for (r = lo; r < hi; r++) {
        frow *rs = &rows[r - lo];
        if (rs->alive) {
            int conv = rs->pinned == 0
                && fabs(rs->x) / q0 <= conv_rtol
                && fabs(rs->y) / cap <= conv_rtol;
            rs->rsn = conv ? 1 : 2;
            rs->te = t_max;
            rs->xe_final = rs->x;
            rs->ye_final = rs->y;
        }
        reason[r] = (int8_t)rs->rsn;
        switches[r] = rs->sw_count;
        t_end[r] = rs->te;
        x_end[r] = rs->xe_final;
        y_end[r] = rs->ye_final;
        n_events[r] = rs->n_ev;
    }
    free(rows);
    out_i[0] = last;
    out_i[1] = p.overflow;
}
"""

_DELAYED = r"""
/* ---- delayed-feedback fluid model: RK4 method of steps ----------------- */
/* The python oracle is repro.fluid.delay._simulate_delayed_python: the
   same float operations in the same order and the same early stop, so
   t, x, y and the sample count match it bit for bit. */

typedef struct {
    const double *t, *x, *y;
    double tau, step, a, b, cap, kk, s_initial;
} dde;

/* dy/dt at `time` with rate yv (dx/dt is yv itself).  The law acts on
   s(time - tau), linearly interpolated from samples [0, upto]; the
   history before t = 0 is the constant s_initial. */
static double dde_dy(const dde *d, double time, double yv, int64_t upto)
{
    double target = time - d->tau, s = d->s_initial;
    if (target > 0.0) {
        int64_t idx = (int64_t)(target / d->step);
        double frac;
        if (idx > upto - 1) idx = upto - 1;
        frac = (target - d->t[idx]) / d->step;
        s = (d->x[idx] + frac * (d->x[idx + 1] - d->x[idx]))
            + d->kk * (d->y[idx] + frac * (d->y[idx + 1] - d->y[idx]));
    }
    if (s < 0.0) return -d->a * s;
    return -d->b * (yv + d->cap) * s;
}

/* Advance from sample 0 for up to n_steps steps into t/x/y (n_steps + 1
   slots); returns the sample count, which is smaller when |x| passes
   `limit` (the step that passes it is kept). */
int64_t k_delayed(int64_t n_steps, double tau, double step, double a,
    double b, double cap, double kk, double s_initial, double limit,
    double *t, double *x, double *y)
{
    dde d = {t, x, y, tau, step, a, b, cap, kk, s_initial};
    int64_t i;
    for (i = 0; i < n_steps; i++) {
        double ti = t[i], yi = y[i], y2, y3, y4, k1, k2, k3, k4;
        int64_t upto = i > 0 ? i : 1;
        k1 = dde_dy(&d, ti, yi, upto);
        y2 = yi + step / 2 * k1;
        k2 = dde_dy(&d, ti + step / 2, y2, upto);
        y3 = yi + step / 2 * k2;
        k3 = dde_dy(&d, ti + step / 2, y3, upto);
        y4 = yi + step * k3;
        k4 = dde_dy(&d, ti + step, y4, upto);
        x[i + 1] = x[i] + step / 6 * (yi + 2 * y2 + 2 * y3 + y4);
        y[i + 1] = yi + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4);
        t[i + 1] = ti + step;
        if (fabs(x[i + 1]) > limit) return i + 2;
    }
    return n_steps + 1;
}
"""

_CORE = r"""
/* ---- exact event core of the reference packet networks ----------------- */
/* The oracle is the python Simulator loop of BCNNetworkSimulator's
   reference engine (one port: the dumbbell) and of MultiHopNetwork (one
   port per switch output a flow crosses: a fabric): every callback below
   is one python callback, pushed onto a (time, seq) heap in the same
   order, with the same float64 operations, so the run executes the same
   events in the same order and leaves the same state. */

enum { EV_EMIT, EV_START, EV_ARRIVE, EV_DELIVER, EV_DONE, EV_SERVE, EV_BCN,
       EV_PAUSE, EV_HOLD, EV_REARM, EV_TICK, EV_TIMED };

/* timed-event kinds, PAUSE link targets and obs log kinds */
enum { TE_CAPACITY, TE_OUTAGE, TE_DEPARTURE };
enum { PL_SOURCE, PL_PORT };
enum { LOG_DROP, LOG_BCN, LOG_PAUSE_ON, LOG_PAUSE_OFF };

/* idx: the source (EMIT, START, the frame events, BCN, PAUSE), the
   paused port (HOLD) or the timed event (TIMED); port: the port the
   event runs at (ARRIVE, DONE, SERVE, REARM) or the sending port (BCN,
   PAUSE, HOLD).  A frame: a = emission time, b = the port its RRT
   names (-1: none); BCN: a = wire FB, b = raw sigma, c = q0 - q,
   d = dq, e = sent at; PAUSE and HOLD: a = duration, b = sent at */
typedef struct {
    double t; int64_t seq; double a, b, c, d, e; int32_t kind, idx, port;
} core_ev;
typedef struct { int64_t src, assoc; double t; } core_frame;
typedef struct { core_frame *q; int64_t head, len, cap; } core_fifo;

typedef struct {
    ev_core *c;
    core_ev *heap;
    int64_t n_heap, cap_heap;
    core_fifo *fifo;  /* one drop-tail FIFO per port */
    int failed;
} core_rt;

#define MT_N 624
#define MT_M 397

/* CPython's genrand_uint32 (Modules/_randommodule.c) */
static uint32_t mt_next(uint32_t *mt, int64_t *index)
{
    uint32_t y;
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    if (*index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        *index = 0;
    }
    y = mt[(*index)++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.Random.random(): 53 bits from two draws */
static double mt_random(uint32_t *mt, int64_t *index)
{
    uint32_t a = mt_next(mt, index) >> 5, b = mt_next(mt, index) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Grow every array in ptrs (element size sizes[k]) to hold need items;
   cap only moves once all reallocations succeeded. */
static int core_grow(void **ptrs[], const size_t sizes[], int n_ptrs,
                     int64_t *cap, int64_t need)
{
    int64_t c = *cap > 0 ? *cap : 64;
    int k;
    if (need <= *cap) return 0;
    while (c < need) c *= 2;
    for (k = 0; k < n_ptrs; k++) {
        void *p = realloc(*ptrs[k], (size_t)c * sizes[k]);
        if (p == NULL) return -1;
        *ptrs[k] = p;
    }
    *cap = c;
    return 0;
}

static int ev_before(const core_ev *x, const core_ev *y)
{
    return x->t < y->t || (x->t == y->t && x->seq < y->seq);
}

static void core_push5(core_rt *rt, double t, int kind, int64_t idx,
                       int64_t port, double a, double b, double c, double d,
                       double e)
{
    core_ev ev;
    int64_t i;
    if (rt->n_heap == rt->cap_heap) {
        void **ptrs[1] = {(void **)&rt->heap};
        size_t sizes[1] = {sizeof(core_ev)};
        if (core_grow(ptrs, sizes, 1, &rt->cap_heap, rt->n_heap + 1)) {
            rt->failed = 1;
            return;
        }
    }
    ev.t = t; ev.seq = rt->c->pushes++;
    ev.a = a; ev.b = b; ev.c = c; ev.d = d; ev.e = e;
    ev.kind = kind; ev.idx = (int32_t)idx; ev.port = (int32_t)port;
    i = rt->n_heap++;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (!ev_before(&ev, &rt->heap[parent])) break;
        rt->heap[i] = rt->heap[parent];
        i = parent;
    }
    rt->heap[i] = ev;
}

static void core_push(core_rt *rt, double t, int kind, int64_t idx,
                      int64_t port, double a, double b)
{
    core_push5(rt, t, kind, idx, port, a, b, 0.0, 0.0, 0.0);
}

static core_ev core_pop(core_rt *rt)
{
    core_ev top = rt->heap[0], last = rt->heap[--rt->n_heap];
    int64_t i = 0, n = rt->n_heap;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n && ev_before(&rt->heap[child + 1], &rt->heap[child]))
            child++;
        if (!ev_before(&rt->heap[child], &last)) break;
        rt->heap[i] = rt->heap[child];
        i = child;
    }
    if (n > 0) rt->heap[i] = last;
    return top;
}

/* sum(x) as the running interpreter computes it: left to right from
   0 + x[0] before python 3.12, Neumaier-compensated from 3.12 */
static double core_sum(const double *x, int64_t n, int64_t neumaier)
{
    int64_t i;
    double f, comp = 0.0;
    if (n == 0) return 0.0;
    f = 0.0 + x[0];
    if (!neumaier) {
        for (i = 1; i < n; i++) f += x[i];
        return f;
    }
    for (i = 1; i < n; i++) {
        double t = f + x[i];
        if (fabs(f) >= fabs(x[i])) comp += (f - t) + x[i];
        else comp += (x[i] - t) + f;
        f = t;
    }
    if (comp != 0.0 && isfinite(comp)) f += comp;
    return f;
}

/* one recorder tick: every port's queue and the sum of the source rates */
static void core_record(core_rt *rt)
{
    ev_core *c = rt->c;
    int64_t p, np = c->n_ports;
    if (c->n_rec == c->cap_rec) {
        void **ptrs[3] = {(void **)&c->rec_t, (void **)&c->rec_q,
                          (void **)&c->rec_r};
        size_t sizes[3] = {sizeof(double),
                           (size_t)(np > 0 ? np : 1) * sizeof(double),
                           sizeof(double)};
        if (core_grow(ptrs, sizes, 3, &c->cap_rec, c->n_rec + 1)) {
            rt->failed = 1;
            return;
        }
    }
    c->rec_t[c->n_rec] = c->now;
    for (p = 0; p < np; p++) c->rec_q[c->n_rec * np + p] = c->occ[p];
    c->rec_r[c->n_rec] = core_sum(c->rate, c->n, c->neumaier);
    c->n_rec++;
}

static void core_log(core_rt *rt, int kind, int64_t port, double t,
                     int64_t flow, double v)
{
    ev_core *c = rt->c;
    if (c->n_log == c->cap_log) {
        void **ptrs[5] = {(void **)&c->log_kind, (void **)&c->log_port,
                          (void **)&c->log_t, (void **)&c->log_flow,
                          (void **)&c->log_v};
        size_t sizes[5] = {sizeof(int8_t), sizeof(int64_t), sizeof(double),
                           sizeof(int64_t), sizeof(double)};
        if (core_grow(ptrs, sizes, 5, &c->cap_log, c->n_log + 1)) {
            rt->failed = 1;
            return;
        }
    }
    c->log_kind[c->n_log] = (int8_t)kind;
    c->log_port[c->n_log] = port;
    c->log_t[c->n_log] = t;
    c->log_flow[c->n_log] = flow;
    c->log_v[c->n_log] = v;
    c->n_log++;
}

/* CoreSwitch._start_service (the busy flag is set by the caller's path) */
static void core_serve(core_rt *rt, int64_t p)
{
    ev_core *c = rt->c;
    core_fifo *q = &rt->fifo[p];
    core_frame f;
    if (c->now < c->service_paused_until[p]) {
        c->busy[p] = 1;
        core_push(rt, c->service_paused_until[p], EV_SERVE, 0, p, 0.0, 0.0);
        return;
    }
    if (q->len == 0) {
        c->busy[p] = 0;
        return;
    }
    f = q->q[q->head];
    q->head = (q->head + 1) % q->cap;
    q->len--;
    c->occ[p] -= c->L;
    if (c->occ[p] < 0) c->occ[p] = 0.0;
    c->deq_frames[p]++;
    c->deq_bits[p] += c->L;
    c->busy[p] = 1;
    core_push(rt, c->now + c->L / c->capacity[p], EV_DONE, f.src, p, f.t,
              (double)f.assoc);
}

/* flow i's entry for port p in its hop list (fl_off[i] .. fl_off[i+1]):
   fl_next its next hop (-1: the network's _deliver), fl_delay that
   link's delay, fl_bcn its BCN back-link's delay (NaN: none); -1 when
   the flow has no entry there */
static int64_t core_hop(const ev_core *c, int64_t p, int64_t i)
{
    int64_t k;
    for (k = c->fl_off[i]; k < c->fl_off[i + 1]; k++)
        if (c->fl_port[k] == p) return k;
    return -1;
}

/* CoreSwitch._process_sample + _send_bcn */
static void core_sample(core_rt *rt, int64_t p, int64_t src, int64_t assoc)
{
    ev_core *c = rt->c;
    double q = c->occ[p];
    int64_t k;
    bcn_fb s = bcn_sample(q, c->q_last[p], c->q0[p], c->w[p],
                          c->pos_only[p], c->req_assoc[p], assoc == p,
                          c->sigma_unit[p], c->full_scale[p]);
    c->samples[p]++;
    c->q_last[p] = q;
    if (c->n_sig == c->cap_sig) {
        void **ptrs[3] = {(void **)&c->sig_port, (void **)&c->sig_t,
                          (void **)&c->sig_v};
        size_t sizes[3] = {sizeof(int64_t), sizeof(double), sizeof(double)};
        if (core_grow(ptrs, sizes, 3, &c->cap_sig, c->n_sig + 1)) {
            rt->failed = 1;
            return;
        }
    }
    c->sig_port[c->n_sig] = p;
    c->sig_t[c->n_sig] = c->now;
    c->sig_v[c->n_sig] = s.sigma;
    c->n_sig++;
    if (s.emit == 0) return;
    if (s.emit < 0) c->bcn_neg[p]++; else c->bcn_pos[p]++;
    k = core_hop(c, p, src);
    if (k >= 0 && c->fl_bcn[k] == c->fl_bcn[k])
        core_push5(rt, c->now + c->fl_bcn[k], EV_BCN, src, p, s.fb, s.sigma,
                   c->q0[p] - q, s.dq, c->now);
    if (c->log_on[p]) core_log(rt, LOG_BCN, p, c->now, src, s.sigma);
}

/* CoreSwitch.receive */
static void core_arrive(core_rt *rt, int64_t p, int64_t src, double t_emit,
                        int64_t assoc)
{
    ev_core *c = rt->c;
    int sampled, accepted;
    if (c->use_rng[p]) {
        sampled = mt_random(c->mt + MT_N * p, &c->mt_index[p]) < c->pm[p];
    } else {
        c->since[p]++;
        sampled = c->since[p] >= c->interval[p];
        if (sampled) c->since[p] = 0;
    }
    if (c->occ[p] + c->L > c->buffer_bits[p]) {
        accepted = 0;
        c->drop_frames[p]++;
        c->drop_bits[p] += c->L;
        if (c->log_on[p]) core_log(rt, LOG_DROP, p, c->now, src, c->L);
    } else {
        core_fifo *q = &rt->fifo[p];
        core_frame *f;
        accepted = 1;
        if (q->len == q->cap) {
            /* unroll the ring into a doubled buffer */
            int64_t cap = q->cap > 0 ? 2 * q->cap : 64, k;
            core_frame *nq = malloc((size_t)cap * sizeof(core_frame));
            if (nq == NULL) { rt->failed = 1; return; }
            for (k = 0; k < q->len; k++)
                nq[k] = q->q[(q->head + k) % q->cap];
            free(q->q);
            q->q = nq; q->head = 0; q->cap = cap;
        }
        f = &q->q[(q->head + q->len) % q->cap];
        f->src = src; f->t = t_emit; f->assoc = assoc;
        q->len++;
        c->occ[p] += c->L;
        c->enq_frames[p]++;
        c->enq_bits[p] += c->L;
    }
    if (sampled) core_sample(rt, p, src, assoc);
    if (c->occ[p] > c->q_sc[p] && c->armed[p]) {
        /* CoreSwitch._maybe_pause: one PAUSE per excursion, down every
           PAUSE link in registration order */
        int64_t k;
        double pd = c->pause_duration[p];
        c->armed[p] = 0;
        for (k = c->pause_off[p]; k < c->pause_off[p + 1]; k++)
            core_push(rt, c->now + c->pause_delay[k],
                      c->pause_kind[k] == PL_SOURCE ? EV_PAUSE : EV_HOLD,
                      c->pause_dst[k], p, pd, c->now);
        c->pauses_sent[p] += c->pause_off[p + 1] - c->pause_off[p];
        if (c->log_on[p]) {
            core_log(rt, LOG_PAUSE_ON, p, c->now, -1, pd);
            core_log(rt, LOG_PAUSE_OFF, p, c->now + pd, -1, 0.0);
        }
        core_push(rt, c->now + pd, EV_REARM, 0, p, 0.0, 0.0);
    }
    if (accepted && !c->busy[p]) core_serve(rt, p);
}

/* the network's _deliver: the total, the flow's bits and its finish
   (done_rank: the order the flows finished in) */
static void core_deliver(core_rt *rt, int64_t i)
{
    ev_core *c = rt->c;
    c->delivered += c->L;
    c->got[i] += c->L;
    if (c->got[i] >= c->size[i] && c->done_t[i] != c->done_t[i]) {
        c->done_t[i] = c->now;
        c->done_rank[i] = c->n_done++;
    }
}

/* TrafficSource._emit; the uplink leads to a port or straight to the
   network's _deliver (up_port -1) */
static void core_emit(core_rt *rt, int64_t i)
{
    ev_core *c = rt->c;
    double now = c->now, total = c->total_bits[i];
    if (c->bits_sent[i] >= total) return;  /* NaN total: never finished */
    if (c->muted[i]) {
        core_push(rt, now + c->L / c->rate[i], EV_EMIT, i, 0, 0.0, 0.0);
        return;
    }
    if (now < c->paused_until[i]) {
        core_push(rt, c->paused_until[i], EV_EMIT, i, 0, 0.0, 0.0);
        return;
    }
    core_push(rt, now + c->up_delay[i],
              c->up_port[i] >= 0 ? EV_ARRIVE : EV_DELIVER, i, c->up_port[i],
              now, (double)c->assoc[i]);
    c->frames_sent[i]++;
    c->bits_sent[i] += c->L;
    if (c->bits_sent[i] >= total) {
        c->finish_time[i] = now;
        return;
    }
    core_push(rt, now + c->L / c->rate[i], EV_EMIT, i, 0, 0.0, 0.0);
}

/* CoreSwitch._service_done: count the frame, then hand it to its next
   hop at this port (-1: the network's _deliver, called directly) before
   serving the next one */
static void core_done(core_rt *rt, int64_t p, const core_ev *e)
{
    ev_core *c = rt->c;
    int64_t k = core_hop(c, p, e->idx), h = k < 0 ? -1 : c->fl_next[k];
    c->fwd_frames[p]++;
    c->fwd_bits[p] += c->L;
    if (h < 0) core_deliver(rt, e->idx);
    else core_push(rt, c->now + c->fl_delay[k], EV_ARRIVE, e->idx, h, e->a,
                   e->b);
    if (c->now < c->service_paused_until[p]) {
        core_push(rt, c->service_paused_until[p], EV_SERVE, 0, p, 0.0, 0.0);
        return;
    }
    core_serve(rt, p);
}

static void core_timed(core_rt *rt, int64_t k)
{
    ev_core *c = rt->c;
    int64_t j = c->ev_idx[k], p;
    if (c->ev_kind[k] == TE_CAPACITY) {
        c->capacity[j] = c->ev_val[k];
    } else if (c->ev_kind[k] == TE_OUTAGE) {
        /* suspend_service on port j, or on every port (j = -1) */
        double end = c->now + c->ev_val[k];
        for (p = j < 0 ? 0 : j; p < (j < 0 ? c->n_ports : j + 1); p++)
            if (end > c->service_paused_until[p])
                c->service_paused_until[p] = end;
    } else {
        c->muted[j] = 1;
    }
}

static void core_digest(core_rt *rt)
{
    ev_core *c = rt->c;
    double *row;
    int64_t p, fwd = 0;
    if (c->n_dig == c->cap_dig) {
        void **ptrs[1] = {(void **)&c->dig};
        size_t sizes[1] = {4 * sizeof(double)};
        if (core_grow(ptrs, sizes, 1, &c->cap_dig, c->n_dig + 1)) {
            rt->failed = 1;
            return;
        }
    }
    for (p = 0; p < c->n_ports; p++) fwd += c->fwd_frames[p];
    row = c->dig + 4 * c->n_dig++;
    row[0] = c->now;
    row[1] = core_sum(c->occ, c->n_ports, c->neumaier);
    memcpy(&row[2], &fwd, sizeof(int64_t));
    row[3] = core_sum(c->rate, c->n, c->neumaier);
}

/* The outputs the run leaves: the frames still resident, port by port
   head first, and the events still pending, in heap order. */
static void core_leftovers(core_rt *rt)
{
    ev_core *c = rt->c;
    int64_t p, k, n = 0;
    for (p = 0; p < c->n_ports; p++) n += rt->fifo[p].len;
    if (n > 0) {
        c->res_port = malloc((size_t)n * sizeof(int64_t));
        c->res_src = malloc((size_t)n * sizeof(int64_t));
        c->res_assoc = malloc((size_t)n * sizeof(int64_t));
        c->res_t = malloc((size_t)n * sizeof(double));
        if (!c->res_port || !c->res_src || !c->res_assoc || !c->res_t) {
            rt->failed = 1;
            return;
        }
        for (p = 0; p < c->n_ports; p++) {
            core_fifo *q = &rt->fifo[p];
            for (k = 0; k < q->len; k++) {
                core_frame *f = &q->q[(q->head + k) % q->cap];
                c->res_port[c->n_res] = p;
                c->res_src[c->n_res] = f->src;
                c->res_assoc[c->n_res] = f->assoc;
                c->res_t[c->n_res] = f->t;
                c->n_res++;
            }
        }
    }
    if (rt->n_heap > 0) {
        size_t m = (size_t)rt->n_heap;
        c->pend_kind = malloc(m);
        c->pend_idx = malloc(m * sizeof(int64_t));
        c->pend_port = malloc(m * sizeof(int64_t));
        c->pend_seq = malloc(m * sizeof(int64_t));
        c->pend_t = malloc(m * sizeof(double));
        c->pend_a = malloc(m * sizeof(double));
        c->pend_b = malloc(m * sizeof(double));
        c->pend_c = malloc(m * sizeof(double));
        c->pend_d = malloc(m * sizeof(double));
        c->pend_e = malloc(m * sizeof(double));
        if (!c->pend_kind || !c->pend_idx || !c->pend_port || !c->pend_seq
            || !c->pend_t || !c->pend_a || !c->pend_b || !c->pend_c
            || !c->pend_d || !c->pend_e) {
            rt->failed = 1;
            return;
        }
        for (k = 0; k < rt->n_heap; k++) {
            core_ev *ev = &rt->heap[k];
            c->pend_kind[k] = (int8_t)ev->kind;
            c->pend_idx[k] = ev->idx;
            c->pend_port[k] = ev->port;
            c->pend_seq[k] = ev->seq;
            c->pend_t[k] = ev->t;
            c->pend_a[k] = ev->a;
            c->pend_b[k] = ev->b;
            c->pend_c[k] = ev->c;
            c->pend_d[k] = ev->d;
            c->pend_e[k] = ev->e;
        }
        c->n_pend = rt->n_heap;
    }
}

/* The network's run on the reference engine, Simulator.run included;
   returns 0, or -1 when an allocation failed. */
int64_t k_event_core(ev_core *c)
{
    core_rt rt;
    int64_t i, k;
    double until = c->duration;
    memset(&rt, 0, sizeof rt);
    rt.c = c;
    c->n_rec = c->cap_rec = c->n_sig = c->cap_sig = 0;
    c->n_log = c->cap_log = c->n_dig = c->cap_dig = c->n_res = 0;
    c->rec_t = c->rec_q = c->rec_r = c->sig_t = c->sig_v = NULL;
    c->sig_port = NULL;
    c->log_kind = NULL; c->log_port = c->log_flow = NULL;
    c->log_t = c->log_v = NULL;
    c->dig = NULL;
    c->res_port = c->res_src = c->res_assoc = NULL; c->res_t = NULL;
    c->n_pend = 0; c->pend_kind = NULL;
    c->pend_idx = c->pend_port = c->pend_seq = NULL;
    c->pend_t = c->pend_a = c->pend_b = NULL;
    c->pend_c = c->pend_d = c->pend_e = NULL;
    c->processed = c->n_done = 0;
    rt.fifo = calloc((size_t)c->n_ports + 1, sizeof(core_fifo));
    if (rt.fifo == NULL) return -1;

    for (k = 0; k < c->n_timed; k++)
        core_push(&rt, c->ev_t[k], EV_TIMED, k, 0, 0.0, 0.0);
    for (i = 0; i < c->n; i++) {
        if (c->start_all || c->start_time[i] > 0.0) {
            core_push(&rt, c->start_time[i], EV_START, i, 0, 0.0, 0.0);
        } else {
            c->started[i] = 1;
            core_push(&rt, c->now + c->L / c->rate[i], EV_EMIT, i, 0, 0.0,
                      0.0);
        }
    }
    core_record(&rt);
    core_push(&rt, c->now + c->queue_dt, EV_TICK, 0, 0, 0.0, 0.0);

    while (rt.n_heap > 0 && !rt.failed) {
        core_ev e;
        if (rt.heap[0].t > until) {
            c->now = until;
            break;
        }
        e = core_pop(&rt);
        c->now = e.t;
        switch (e.kind) {
        case EV_EMIT:
            core_emit(&rt, e.idx);
            break;
        case EV_START:
            if (!c->started[e.idx]) {
                c->started[e.idx] = 1;
                core_push(&rt, c->now + c->L / c->rate[e.idx], EV_EMIT,
                          e.idx, 0, 0.0, 0.0);
            }
            break;
        case EV_ARRIVE:
            core_arrive(&rt, e.port, e.idx, e.a, (int64_t)e.b);
            break;
        case EV_DELIVER:
            core_deliver(&rt, e.idx);
            break;
        case EV_DONE:
            core_done(&rt, e.port, &e);
            break;
        case EV_SERVE:
            core_serve(&rt, e.port);
            break;
        case EV_BCN: {  /* RateRegulator.apply: a = wire FB, b = raw sigma */
            uint8_t hold = 2;  /* 1: associate with the sender, 0: release */
            c->rate[e.idx] = bcn_rate_step(c->mode[e.idx], c->gi[e.idx],
                c->gd[e.idx], c->ru[e.idx], c->max_dt[e.idx],
                c->min_rate[e.idx], c->line_rate[e.idx], c->rate[e.idx],
                &c->last_update[e.idx], c->now, e.a, e.b, &hold);
            c->updates[e.idx]++;
            if (hold != 2) c->assoc[e.idx] = hold ? e.port : -1;
            break;
        }
        case EV_PAUSE:  /* TrafficSource.receive_control */
            if (c->now + e.a > c->paused_until[e.idx])
                c->paused_until[e.idx] = c->now + e.a;
            break;
        case EV_HOLD:  /* CoreSwitch.receive_pause */
            if (c->now + e.a > c->service_paused_until[e.idx])
                c->service_paused_until[e.idx] = c->now + e.a;
            break;
        case EV_REARM:
            c->armed[e.port] = 1;
            break;
        case EV_TICK: {
            double next_time;
            core_record(&rt);
            next_time = c->now + c->queue_dt;
            if (next_time <= until)
                core_push(&rt, next_time, EV_TICK, 0, 0, 0.0, 0.0);
            break;
        }
        case EV_TIMED:
            core_timed(&rt, e.idx);
            break;
        }
        c->processed++;
        if (c->digest_on) core_digest(&rt);
    }
    if (rt.n_heap == 0 && until > c->now) c->now = until;
    if (!rt.failed) core_record(&rt);
    if (!rt.failed) core_leftovers(&rt);
    for (k = 0; k < c->n_ports; k++) free(rt.fifo[k].q);
    free(rt.fifo);
    free(rt.heap);
    return rt.failed ? -1 : 0;
}

void k_event_core_free(ev_core *c)
{
    free(c->rec_t); free(c->rec_q); free(c->rec_r);
    free(c->sig_port); free(c->sig_t); free(c->sig_v);
    free(c->log_kind); free(c->log_port); free(c->log_t);
    free(c->log_flow); free(c->log_v);
    free(c->dig);
    free(c->res_port); free(c->res_src); free(c->res_assoc); free(c->res_t);
    free(c->pend_kind); free(c->pend_idx); free(c->pend_port);
    free(c->pend_seq); free(c->pend_t); free(c->pend_a); free(c->pend_b);
    free(c->pend_c); free(c->pend_d); free(c->pend_e);
    c->rec_t = c->rec_q = c->rec_r = c->sig_t = c->sig_v = NULL;
    c->sig_port = NULL;
    c->log_kind = NULL; c->log_port = c->log_flow = NULL;
    c->log_t = c->log_v = NULL;
    c->dig = NULL;
    c->res_port = c->res_src = c->res_assoc = NULL; c->res_t = NULL;
    c->pend_kind = NULL; c->pend_idx = c->pend_port = c->pend_seq = NULL;
    c->pend_t = c->pend_a = c->pend_b = NULL;
    c->pend_c = c->pend_d = c->pend_e = NULL;
}
"""

#: The core's state struct is declared once, in CDEF, and compiled from
#: the same text.
_CORE_STRUCT = CDEF[CDEF.index("typedef struct ev_core"):
                    CDEF.index("} ev_core;") + len("} ev_core;")]

SOURCE = ("#include <stdlib.h>\n#include <string.h>\n" + _COMMON + _FLUID
          + _DELAYED + _CORE_STRUCT + _CORE)


def _build_root() -> Path:
    env = os.environ.get("REPRO_KERNEL_BUILD_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent / "_build"


#: ``-ffp-contract=off``: no fused multiply-add may change a rounding
#: against the python and numpy oracles, on any architecture.
COMPILE_ARGS = ("-O2", "-fno-math-errno", "-ffp-contract=off")


def _extra_args() -> list[str]:
    """``REPRO_KERNEL_CFLAGS``: flags added to the compile and link
    lines, e.g. ``-fsanitize=address,undefined`` for a sanitised build."""
    return shlex.split(os.environ.get("REPRO_KERNEL_CFLAGS", ""))


def _content_hash() -> str:
    args = list(COMPILE_ARGS) + _extra_args()
    payload = (CDEF + SOURCE + " ".join(args)).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def load_cffi_kernels():
    """Compile (once, content-addressed) and load the C kernels.

    Returns the loaded extension module's ``lib`` / ``ffi`` pair, or
    raises (``ImportError``, compiler errors, …) — callers treat any
    exception as "backend unavailable" and fall through to numpy.
    """
    global build_seconds
    import cffi

    tag = _content_hash()
    modname = f"_repro_kernels_{tag}"
    root = _build_root()
    ext = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    target = root / f"{modname}{ext}"

    started = time.perf_counter()  # repro-lint: disable=wall-clock -- one-off C build timing
    if not target.exists():
        root.mkdir(parents=True, exist_ok=True)
        scratch = root / f".tmp-{os.getpid()}"
        scratch.mkdir(parents=True, exist_ok=True)
        try:
            ffi = cffi.FFI()
            ffi.cdef(CDEF)
            extra = _extra_args()
            ffi.set_source(modname, SOURCE,
                           extra_compile_args=list(COMPILE_ARGS) + extra,
                           extra_link_args=extra)
            built = Path(ffi.compile(tmpdir=str(scratch), verbose=False))
            os.replace(built, target)  # atomic: concurrent builders race safely
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    spec = importlib.util.spec_from_file_location(modname, target)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load kernel extension {target}")
    module = importlib.util.module_from_spec(spec)
    # register so repeated loads (and cffi internals) reuse the module
    sys.modules.setdefault(modname, module)
    spec.loader.exec_module(module)
    build_seconds += time.perf_counter() - started  # repro-lint: disable=wall-clock -- one-off C build timing
    return module.lib, module.ffi
