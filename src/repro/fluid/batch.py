"""Vectorized ensemble integration of the switched BCN fluid model.

The paper's analysis is ensemble-shaped: phase portraits are bundles of
orbits from many initial conditions, the Case-1 limit-cycle search scans
a return map over a grid of entry ordinates, and validation sweeps a
parameter grid.  :func:`repro.fluid.integrate.simulate_fluid` integrates
one trajectory at a time through per-segment ``solve_ivp`` restarts —
accurate, but the per-call overhead dominates when hundreds of orbits
share the same parameters.

This module advances **M trajectories at once** as ``(M,)`` NumPy state
vectors with a fixed-step RK4 core:

* both region laws are evaluated batched and blended by a per-row region
  mask on ``s = x + k y`` (the feedback is ``sigma = -s``);
* switching-line crossings, buffer crossings and extrema of ``x`` are
  refined per-row on the step's cubic Hermite dense output (every event
  functional is linear in ``(x, y)``, so its restriction to one step is
  an explicit cubic in the step fraction), making events event-accurate
  rather than grid-accurate at no extra derivative evaluations;
* ``"physical"`` mode pins rows at the full/empty buffer using the exact
  closed-form pinned dynamics (the same laws
  :func:`repro.fluid.model.pinned_full_field` /
  :func:`repro.fluid.model.pinned_empty_field` encode);
* per-row event recording and end-state bookkeeping are compatible with
  :class:`repro.fluid.integrate.FluidTrajectory` (see
  :meth:`BatchFluidResult.trajectory`).

:func:`simulate_fluid_batch` is the one batch entry point.  It sizes the
sample grid, then steps the rows with the C kernel of
:mod:`repro.kernels.fluid` when the kernel tier is compiled and with
this module's numpy loop otherwise; the numpy loop is the C kernel's
oracle (``fluid_method="numpy"`` pins it).  :func:`batch_return_map`
is a thin reading of the same integration.

Accuracy contract (differentially tested against ``simulate_fluid`` in
``tests/property/test_prop_batch_fluid.py``): with the default
``dt_scale = 0.02`` (≈300 RK4 steps per oscillation period) batch states
track the ``solve_ivp`` reference to better than ``1e-3`` of the natural
scales ``(q0, C)`` over several oscillation rounds, and switch counts
and buffer-hit flags are identical away from grazing geometries.  The
batched return map matches the scalar one to ``≲1e-4`` relative.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from ..core.parameters import BCNParams, NormalizedParams
from .integrate import (_CONVERGENCE_RTOL, FluidEvent, FluidTrajectory,
                        record_fluid_obs)
from .model import as_normalized

__all__ = [
    "BatchFluidResult",
    "simulate_fluid_batch",
    "batch_return_map",
    "batched_derivative_fn",
    "switched_derivatives",
    "default_time_step",
    "default_horizon",
]

Mode = Literal["linearized", "nonlinear", "physical"]

#: Safeguarded-Newton iterations for event refinement on the dense output.
_REFINE_ITERS = 16
#: Hard cap on grid steps, guarding against absurd ``t_max / dt`` ratios.
_MAX_STEPS = 2_000_000

_REASONS = ("running", "converged", "time_limit", "max_switches")

#: ``simulate_fluid_batch``'s stepping-loop selector.
_FLUID_METHODS = ("auto", "numpy")


# ---------------------------------------------------------------------------
# batched vector fields
# ---------------------------------------------------------------------------

def batched_derivative_fn(
    params: NormalizedParams | BCNParams, mode: Mode = "nonlinear"
) -> Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Return ``f(x, y, dec_mask) -> (dx/dt, dy/dt)`` for row vectors.

    Rows where ``dec_mask`` is True follow the rate-decrease law
    (``-b (y + C) s``, or its linearisation ``-b C s`` when
    ``mode="linearized"``); the rest follow the increase law ``-a s``.
    Both laws share ``dx/dt = y``, so the blend is a single
    ``np.where`` on the ``dy`` coefficient.
    """
    p = as_normalized(params)
    a, b, c, k = p.a, p.b, p.capacity, p.k
    linear_dec = mode == "linearized"

    def derivs(x: np.ndarray, y: np.ndarray, dec: np.ndarray):
        s = x + k * y
        if linear_dec:
            coef = np.where(dec, b * c, a)
        else:
            coef = np.where(dec, b * (y + c), a)
        return y, -coef * s

    return derivs


def switched_derivatives(
    params: NormalizedParams | BCNParams,
    states: np.ndarray,
    *,
    mode: Mode = "nonlinear",
    on_line: str = "decrease",
) -> np.ndarray:
    """Batched evaluation of the switched field at ``(..., 2)`` states.

    ``on_line`` resolves points exactly on the switching line:
    ``"decrease"`` assigns them to the decrease region (the
    :func:`repro.fluid.model.full_field` convention) and ``"flow"``
    resolves by the crossing direction ``sign(y)`` (the integrator's
    convention).  Returns derivatives with the same ``(..., 2)`` shape.
    """
    p = as_normalized(params)
    states = np.asarray(states, dtype=float)
    x, y = states[..., 0], states[..., 1]
    s = x + p.k * y
    if on_line == "decrease":
        dec = s >= 0.0
    elif on_line == "flow":
        dec = (s > 0.0) | ((s == 0.0) & (y > 0.0))
    else:
        raise ValueError(f"unknown on_line rule {on_line!r}")
    derivs = batched_derivative_fn(p, "linearized" if mode == "linearized" else "nonlinear")
    dx, dy = derivs(x, y, dec)
    return np.stack([np.broadcast_to(dx, s.shape), dy], axis=-1)


# ---------------------------------------------------------------------------
# step-size / horizon heuristics
# ---------------------------------------------------------------------------

def _fastest_rate(p: NormalizedParams) -> float:
    """Upper bound on ``|lambda|`` and the angular frequency per region.

    For a focus the eigenvalue modulus is exactly ``sqrt(n)``; for a
    node it is bounded by ``k n`` (sum of roots).  The max over both
    regions bounds how fast any solution component evolves.
    """
    rates = []
    for n in (p.n_increase, p.n_decrease):
        rates.append(max(math.sqrt(n), p.k * n))
    return max(rates)


def default_time_step(
    params: NormalizedParams | BCNParams, *, dt_scale: float = 0.02
) -> float:
    """Fixed RK4 step: ``dt_scale`` of the fastest natural timescale.

    The default 0.02 gives ≈300 steps per oscillation period, i.e. a
    local truncation error of order ``(omega dt)^5 ≈ 2e-9`` per step.
    """
    p = as_normalized(params)
    return dt_scale / _fastest_rate(p)


def _slowest_decay(p: NormalizedParams) -> float:
    """Smallest ``|Re lambda|`` over both regions (slowest settling)."""
    decays = []
    for n in (p.n_increase, p.n_decrease):
        kn = p.k * n
        disc = kn * kn - 4.0 * n
        if disc < 0.0:
            decays.append(kn / 2.0)
        else:
            decays.append((kn - math.sqrt(disc)) / 2.0)
    return min(decays)


def default_horizon(
    params: NormalizedParams | BCNParams,
    *,
    convergence_rtol: float = _CONVERGENCE_RTOL,
    max_switches: int | None = None,
) -> float:
    """Heuristic ``t_max`` long enough to settle into the convergence ball.

    ``log(1/rtol) / slowest_decay`` seconds; when ``max_switches`` is
    given the horizon is additionally capped at the time for that many
    half-turns of the slowest spiral (what a portrait orbit can use).
    """
    p = as_normalized(params)
    horizon = math.log(1.0 / convergence_rtol) / _slowest_decay(p)
    if max_switches is not None:
        betas = []
        for n in (p.n_increase, p.n_decrease):
            disc = 4.0 * n - (p.k * n) ** 2
            if disc > 0.0:
                betas.append(math.sqrt(disc) / 2.0)
        if betas:
            horizon = min(horizon, (max_switches + 2) * math.pi / min(betas))
    return horizon


# ---------------------------------------------------------------------------
# RK4 + bisection primitives
# ---------------------------------------------------------------------------

def _rk4(derivs, x, y, dec, h):
    """One classical RK4 step of (per-row) size ``h`` with frozen masks."""
    k1x, k1y = derivs(x, y, dec)
    k2x, k2y = derivs(x + 0.5 * h * k1x, y + 0.5 * h * k1y, dec)
    k3x, k3y = derivs(x + 0.5 * h * k2x, y + 0.5 * h * k2y, dec)
    k4x, k4y = derivs(x + h * k3x, y + h * k3y, dec)
    sixth = h / 6.0
    return (
        x + sixth * (k1x + 2.0 * (k2x + k3x) + k4x),
        y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y),
    )


def _refine_event(derivs, x0, y0, dec, h, x1, y1, alpha, beta, gamma=0.0):
    """Refine the zero of ``alpha x + beta y + gamma`` along one step.

    ``(x0, y0)`` and ``(x1, y1)`` are the step endpoints (the latter
    already computed by the caller's RK4 step of size ``h``).  The
    functional must change sign across the step.  The step's cubic
    Hermite dense output makes the functional an explicit cubic in the
    step fraction ``theta``, whose root is located by Newton iterations
    safeguarded by a shrinking bisection bracket — no RK4 sub-step
    re-evaluations.  Returns ``(theta, x, y)`` with the dense-output
    state at the crossing (interpolation error ``O(h^4)``, matching the
    RK4 order).  All arguments are row vectors of the refined subset.
    """
    f0x, f0y = derivs(x0, y0, dec)
    f1x, f1y = derivs(x1, y1, dec)
    u0 = alpha * x0 + beta * y0 + gamma
    u1 = alpha * x1 + beta * y1 + gamma
    d0 = h * (alpha * f0x + beta * f0y)
    d1 = h * (alpha * f1x + beta * f1y)
    # power-basis coefficients of the Hermite cubic g(theta)
    c0 = u0
    c1 = d0
    c2 = 3.0 * (u1 - u0) - 2.0 * d0 - d1
    c3 = 2.0 * (u0 - u1) + d0 + d1
    lo = np.zeros_like(u0)
    hi = np.ones_like(u0)
    g_lo = u0
    b2 = 2.0 * c2
    b3 = 3.0 * c3
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.clip(u0 / (u0 - u1), 0.0, 1.0)
        theta = np.where(np.isfinite(theta), theta, 0.5)
        for _ in range(_REFINE_ITERS):
            g = ((c3 * theta + c2) * theta + c1) * theta + c0
            same = g_lo * g > 0.0
            lo = np.where(same, theta, lo)
            g_lo = np.where(same, g, g_lo)
            hi = np.where(same, hi, theta)
            newton = theta - g / ((b3 * theta + b2) * theta + c1)
            inside = (newton > lo) & (newton < hi)
            theta = np.where(inside, newton, 0.5 * (lo + hi))
    # dense-output state at the crossing
    t2 = theta * theta
    om = 1.0 - theta
    h00 = (1.0 + 2.0 * theta) * om * om
    h10 = theta * om * om
    h01 = t2 * (3.0 - 2.0 * theta)
    h11 = t2 * (theta - 1.0)
    xt = h00 * x0 + h10 * (h * f0x) + h01 * x1 + h11 * (h * f1x)
    yt = h00 * y0 + h10 * (h * f0y) + h01 * y1 + h11 * (h * f1y)
    return theta, xt, yt


# ---------------------------------------------------------------------------
# result container
# ---------------------------------------------------------------------------

@dataclass
class BatchFluidResult:
    """Ensemble integration result: M trajectories on a shared time grid.

    Attributes
    ----------
    t:
        Shared sample grid, shape ``(n_samples,)``.
    x, y:
        Sampled states, shape ``(n_samples, M)``; rows that froze
        (converged / hit ``max_switches``) hold their final state for
        the remaining samples.
    events:
        Per-row chronological :class:`FluidEvent` lists.
    converged, end_reason, switch_counts:
        Per-row verdicts mirroring :class:`FluidTrajectory` semantics.
    t_end, x_end, y_end:
        Exact per-row end time/state (event-accurate when a row froze at
        a switching crossing).
    kernel_seconds:
        Wall time spent inside the stepping kernel — the number the
        runner instrumentation reports as per-point kernel time.
    """

    params: NormalizedParams
    mode: Mode
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    events: list[list[FluidEvent]]
    converged: np.ndarray
    end_reason: list[str]
    switch_counts: np.ndarray
    t_end: np.ndarray
    x_end: np.ndarray
    y_end: np.ndarray
    kernel_seconds: float = 0.0

    @property
    def n_rows(self) -> int:
        return self.x.shape[1]

    def hit_buffer_full(self) -> np.ndarray:
        return np.array(
            [any(e.kind == "buffer_full" for e in evs) for evs in self.events]
        )

    def hit_buffer_empty(self) -> np.ndarray:
        return np.array(
            [any(e.kind == "buffer_empty" for e in evs) for evs in self.events]
        )

    def extrema(self, row: int) -> list[tuple[float, float]]:
        """Event-accurate ``(t, x)`` extrema of one row."""
        return [(e.time, e.x) for e in self.events[row] if e.kind == "extremum"]

    def trajectory(self, row: int) -> FluidTrajectory:
        """Materialise one row as a :class:`FluidTrajectory`."""
        mask = self.t < self.t_end[row]
        t = np.append(self.t[mask], self.t_end[row])
        x = np.append(self.x[mask, row], self.x_end[row])
        y = np.append(self.y[mask, row], self.y_end[row])
        return FluidTrajectory(
            params=self.params,
            mode=self.mode,
            t=t,
            x=x,
            y=y,
            events=sorted(self.events[row], key=lambda e: e.time),
            converged=bool(self.converged[row]),
            end_reason=self.end_reason[row],
        )

    def trajectories(self) -> list[FluidTrajectory]:
        return [self.trajectory(i) for i in range(self.n_rows)]


# ---------------------------------------------------------------------------
# the ensemble integrator
# ---------------------------------------------------------------------------

class _BatchState:
    """Mutable per-row integration state shared by the stepping kernel."""

    def __init__(self, p: NormalizedParams, x0, y0, mode, max_switches,
                 convergence_rtol):
        self.x = x0.copy()
        self.y = y0.copy()
        m = self.x.size
        self.p = p
        self.mode = mode
        self.physical = mode == "physical"
        self.max_switches = max_switches
        self.convergence_rtol = convergence_rtol
        self.x_full = p.buffer_size - p.q0
        self.x_empty = -p.q0
        s = self.x + p.k * self.y
        self.dec = (s > 0.0) | ((s == 0.0) & (self.y > 0.0))
        self.alive = np.ones(m, dtype=bool)
        self.reason = np.zeros(m, dtype=np.int8)  # index into _REASONS
        self.switches = np.zeros(m, dtype=np.int64)
        self.pinned = np.zeros(m, dtype=np.int8)  # 0 none, 1 full, 2 empty
        self.pin_t = np.zeros(m)
        self.pin_y = np.zeros(m)
        self.unpin_t = np.full(m, np.inf)
        self.t_end = np.zeros(m)
        self.x_end = self.x.copy()
        self.y_end = self.y.copy()
        self.events: list[list[FluidEvent]] = [[] for _ in range(m)]

    def is_converged(self, x, y):
        p = self.p
        return (np.abs(x) / p.q0 <= self.convergence_rtol) & (
            np.abs(y) / p.capacity <= self.convergence_rtol
        )

    def freeze(self, rows, reason_idx, t, x, y):
        self.alive[rows] = False
        self.reason[rows] = reason_idx
        self.t_end[rows] = t
        self.x_end[rows] = x
        self.y_end[rows] = y
        self.x[rows] = x
        self.y[rows] = y

    def record(self, rows, times, kind, xs, ys):
        for r, t, xv, yv in zip(
            np.atleast_1d(rows), np.atleast_1d(times),
            np.atleast_1d(xs), np.atleast_1d(ys)
        ):
            self.events[int(r)].append(
                FluidEvent(float(t), kind, float(xv), float(yv))
            )

    # -- pinned-phase closed forms -----------------------------------------

    def pin_full(self, rows, t_pin, y_pin, t_max):
        p = self.p
        self.record(rows, t_pin, "buffer_full", np.full_like(y_pin, self.x_full), y_pin)
        self.pinned[rows] = 1
        self.pin_t[rows] = t_pin
        self.pin_y[rows] = y_pin
        duration = np.log((y_pin + p.capacity) / p.capacity) / (p.b * self.x_full)
        self.unpin_t[rows] = np.minimum(t_pin + duration, t_max)
        self.x[rows] = self.x_full
        self.y[rows] = y_pin

    def pin_empty(self, rows, t_pin, y_pin, t_max):
        p = self.p
        self.record(rows, t_pin, "buffer_empty", np.full_like(y_pin, self.x_empty), y_pin)
        self.pinned[rows] = 2
        self.pin_t[rows] = t_pin
        self.pin_y[rows] = y_pin
        duration = -y_pin / (p.a * p.q0)
        self.unpin_t[rows] = np.minimum(t_pin + duration, t_max)
        self.x[rows] = self.x_empty
        self.y[rows] = y_pin

    def pinned_state_at(self, rows, t):
        """Closed-form pinned state of ``rows`` at absolute time ``t``."""
        p = self.p
        kind = self.pinned[rows]
        dt = t - self.pin_t[rows]
        y_full = (self.pin_y[rows] + p.capacity) * np.exp(
            -p.b * self.x_full * dt
        ) - p.capacity
        y_empty = self.pin_y[rows] + p.a * p.q0 * dt
        x = np.where(kind == 1, self.x_full, self.x_empty)
        y = np.where(kind == 1, y_full, y_empty)
        return x, y


def _advance(st: _BatchState, derivs, rows, t0, h, t_max):
    """Advance ``rows`` (alive, unpinned) by per-row step ``h`` from ``t0``.

    Handles at most one terminal event (switching crossing or, in
    physical mode, a buffer crossing) per call and recurses on the
    remainder of the step, mirroring the reference integrator's
    restart-at-event semantics.
    """
    if rows.size == 0:
        return
    p = st.p
    t0 = np.broadcast_to(np.asarray(t0, dtype=float), rows.shape)
    h = np.broadcast_to(np.asarray(h, dtype=float), rows.shape)
    x0, y0 = st.x[rows], st.y[rows]
    dec = st.dec[rows]
    rsign = np.where(dec, 1.0, -1.0)
    x1, y1 = _rk4(derivs, x0, y0, dec, h)

    # -- locate the earliest terminal event per row ------------------------
    s1 = x1 + p.k * y1
    line_tol = 1e-12 * (np.abs(x1) + p.k * np.abs(y1) + p.q0)
    theta = np.ones(rows.size)
    xe, ye = x1.copy(), y1.copy()
    term = np.zeros(rows.size, dtype=np.int8)  # 0 none, 1 switch, 2 full, 3 empty

    candidates: list[tuple[int, np.ndarray, float, float, float]] = [
        (1, s1 * rsign < -line_tol, 1.0, p.k, 0.0)
    ]
    if st.physical:
        candidates.append(
            (2, (x0 < st.x_full) & (x1 >= st.x_full), 1.0, 0.0, -st.x_full)
        )
        candidates.append(
            (3, (x0 > st.x_empty) & (x1 <= st.x_empty), 1.0, 0.0, -st.x_empty)
        )
    for code, hit, ga, gb, gc in candidates:
        idx = np.nonzero(hit)[0]
        if idx.size == 0:
            continue
        th, xt, yt = _refine_event(
            derivs, x0[idx], y0[idx], dec[idx], h[idx], x1[idx], y1[idx],
            ga, gb, gc,
        )
        earlier = th < theta[idx]
        sel = idx[earlier]
        theta[sel] = th[earlier]
        xe[sel] = xt[earlier]
        ye[sel] = yt[earlier]
        term[sel] = code

    t_ev = t0 + theta * h

    # -- non-terminal events on the kept part of the step ------------------
    ext = np.nonzero(y0 * ye < 0.0)[0]
    if ext.size:
        th, xt, yt = _refine_event(
            derivs, x0[ext], y0[ext], dec[ext], (h * theta)[ext],
            xe[ext], ye[ext], 0.0, 1.0,
        )
        st.record(rows[ext], t0[ext] + th * (h * theta)[ext], "extremum", xt, yt)
    if not st.physical:
        for kind, hit in (
            ("buffer_full", (x0 < st.x_full) & (xe >= st.x_full)),
            ("buffer_empty", (x0 > st.x_empty) & (xe <= st.x_empty)),
        ):
            idx = np.nonzero(hit)[0]
            if idx.size == 0:
                continue
            lvl = st.x_full if kind == "buffer_full" else st.x_empty
            th, xt, yt = _refine_event(
                derivs, x0[idx], y0[idx], dec[idx], (h * theta)[idx],
                xe[idx], ye[idx], 1.0, 0.0, -lvl,
            )
            st.record(rows[idx], t0[idx] + th * (h * theta)[idx], kind, xt, yt)

    # -- commit non-terminal rows ------------------------------------------
    plain = term == 0
    st.x[rows[plain]] = xe[plain]
    st.y[rows[plain]] = ye[plain]

    # -- switching crossings -----------------------------------------------
    sw = np.nonzero(term == 1)[0]
    if sw.size:
        st.record(rows[sw], t_ev[sw], "switch", xe[sw], ye[sw])
        st.switches[rows[sw]] += 1
        over = st.switches[rows[sw]] > st.max_switches
        conv = st.is_converged(xe[sw], ye[sw]) & ~over
        stop = over | conv
        if np.any(stop):
            idx = sw[stop]
            st.freeze(rows[idx], np.where(over[stop], 3, 1).astype(np.int8),
                      t_ev[idx], xe[idx], ye[idx])
        go = sw[~stop]
        if go.size:
            st.dec[rows[go]] = ye[go] > 0.0
            st.x[rows[go]] = xe[go]
            st.y[rows[go]] = ye[go]
            _advance(st, derivs, rows[go], t_ev[go], h[go] * (1.0 - theta[go]),
                     t_max)

    # -- buffer pinning (physical mode) ------------------------------------
    for code, pin in ((2, st.pin_full), (3, st.pin_empty)):
        hit = np.nonzero(term == code)[0]
        if hit.size == 0:
            continue
        pin(rows[hit], t_ev[hit], ye[hit], t_max)
        # unpin inside the current step where the pinned phase is short
        t_step_end = t0[hit] + h[hit]
        early = st.unpin_t[rows[hit]] <= t_step_end
        if np.any(early):
            idx = rows[hit[early]]
            t_up = st.unpin_t[idx]
            x_pin = st.x_full if code == 2 else st.x_empty
            st.x[idx] = x_pin
            st.y[idx] = 0.0
            st.pinned[idx] = 0
            st.unpin_t[idx] = np.inf
            st.dec[idx] = x_pin > 0.0
            _advance(st, derivs, idx, t_up, t_step_end[early] - t_up, t_max)


def _time_grid(p: NormalizedParams, t_max: float, dt: float | None,
               dt_scale: float) -> np.ndarray:
    """The shared sample grid: ``t_max`` split into whole steps of at
    most ``dt`` (default: :func:`default_time_step`)."""
    if dt is None:
        dt = default_time_step(p, dt_scale=dt_scale)
    n_steps = max(1, math.ceil(t_max / dt))
    if n_steps > _MAX_STEPS:
        raise ValueError(
            f"t_max/dt = {n_steps} exceeds {_MAX_STEPS} steps; "
            "pass a larger dt or a shorter horizon"
        )
    return np.linspace(0.0, t_max, n_steps + 1)


def simulate_fluid_batch(
    params: NormalizedParams | BCNParams,
    x0,
    y0=0.0,
    *,
    t_max: float = 10.0,
    mode: Mode = "nonlinear",
    max_switches: int = 500,
    dt: float | None = None,
    dt_scale: float = 0.02,
    convergence_rtol: float = _CONVERGENCE_RTOL,
    obs=None,
    fluid_method: str = "auto",
) -> BatchFluidResult:
    """Integrate M trajectories of the switched BCN fluid model at once.

    Parameters mirror :func:`repro.fluid.integrate.simulate_fluid`;
    ``x0`` and ``y0`` are broadcast to the ensemble shape ``(M,)``.
    ``dt`` fixes the RK4 step directly; otherwise it is derived from the
    fastest natural rate via :func:`default_time_step` with ``dt_scale``.
    ``obs`` (an :class:`repro.obs.Observability` handle) reports a
    ``fluid.batch.kernel`` span and per-row events with the row index
    attached, under ``engine="fluid.batch"`` from the numpy loop and
    ``engine="fluid.compiled"`` from the C kernel.

    ``fluid_method`` picks the stepping loop: ``"auto"`` (the default)
    runs the C kernel of :mod:`repro.kernels.fluid` when the kernel
    tier is compiled and this module's numpy loop otherwise;
    ``"numpy"`` pins the numpy loop, the oracle the C kernel matches
    byte for byte in ``nonlinear``/``linearized`` mode (``physical``
    mode: ``y`` within 1e-13 relative, see :mod:`repro.kernels.fluid`).

    Per-row semantics match the reference integrator: convergence is
    checked at the start and after each switching crossing (not
    mid-flight), ``max_switches`` freezes a row at its
    ``max_switches + 1``-th crossing, and in ``"physical"`` mode rows
    pin at the buffer limits under the exact closed-form pinned laws.
    """
    if fluid_method not in _FLUID_METHODS:
        raise ValueError(
            f"unknown fluid_method {fluid_method!r}; "
            f"accepted: {', '.join(map(repr, _FLUID_METHODS))}"
        )
    p = as_normalized(params)
    t_grid = _time_grid(p, t_max, dt, dt_scale)
    x, y = np.broadcast_arrays(np.atleast_1d(np.asarray(x0, dtype=float)),
                               np.atleast_1d(np.asarray(y0, dtype=float)))
    if fluid_method == "auto":
        from ..kernels import get_backend

        be = get_backend()
        if be.compiled:
            # Read off the module at call time, so a wrapper installed
            # on the name (perfbench's ledger) sees every call.
            from ..kernels import fluid as compiled_fluid

            result = compiled_fluid.simulate_fluid_batch_compiled(
                p, x, y, t_grid, mode=mode, max_switches=max_switches,
                convergence_rtol=convergence_rtol, obs=obs, backend=be)
            if result is not None:
                return result
            # None: the C kernel's event buffers overflowed; the numpy
            # loop below allocates its events as it goes.
    return _simulate_numpy(p, x, y, t_grid, mode, max_switches,
                           convergence_rtol, obs)


def _simulate_numpy(p, x0, y0, t_grid, mode, max_switches, convergence_rtol,
                    obs) -> BatchFluidResult:
    """The numpy stepping loop of :func:`simulate_fluid_batch`."""
    t_max = float(t_grid[-1])
    n_steps = t_grid.size - 1
    st = _BatchState(p, x0, y0, mode, max_switches, convergence_rtol)
    m = st.x.size
    derivs = batched_derivative_fn(p, mode)

    xs = np.empty((n_steps + 1, m))
    ys = np.empty((n_steps + 1, m))
    started = time.perf_counter()  # repro-lint: disable=wall-clock -- kernel span timing

    # Rows already inside the convergence ball never start integrating.
    conv0 = np.nonzero(st.is_converged(st.x, st.y))[0]
    if conv0.size:
        st.freeze(conv0, 1, 0.0, st.x[conv0], st.y[conv0])
    # Physical warm-up: rows starting pinned at the empty buffer.
    if st.physical:
        pin0 = np.nonzero(st.alive & (st.x <= st.x_empty) & (st.y < 0.0))[0]
        if pin0.size:
            st.pin_empty(pin0, np.zeros(pin0.size), st.y[pin0], t_max)

    xs[0] = st.x
    ys[0] = st.y
    last = n_steps
    for i in range(n_steps):
        t0, t1 = t_grid[i], t_grid[i + 1]
        active = np.nonzero(st.alive & (st.pinned == 0))[0]
        _advance(st, derivs, active, t0, t1 - t0, t_max)
        if st.physical:
            unpin = np.nonzero(st.alive & (st.pinned != 0)
                               & (st.unpin_t <= t1) & (st.unpin_t < t_max))[0]
            if unpin.size:
                x_pin = np.where(st.pinned[unpin] == 1, st.x_full, st.x_empty)
                t_up = st.unpin_t[unpin]
                st.x[unpin] = x_pin
                st.y[unpin] = 0.0
                st.pinned[unpin] = 0
                st.unpin_t[unpin] = np.inf
                st.dec[unpin] = x_pin > 0.0
                _advance(st, derivs, unpin, t_up, t1 - t_up, t_max)
            still = np.nonzero(st.alive & (st.pinned != 0))[0]
            if still.size:
                px, py = st.pinned_state_at(still, t1)
                st.x[still] = px
                st.y[still] = py
        xs[i + 1] = st.x
        ys[i + 1] = st.y
        if not st.alive.any():
            last = i + 1
            break

    # Finalise rows that ran to the horizon.
    open_rows = np.nonzero(st.alive)[0]
    if open_rows.size:
        conv = st.is_converged(st.x[open_rows], st.y[open_rows])
        # pinned rows at the horizon are time-limited, never converged
        conv &= st.pinned[open_rows] == 0
        st.freeze(open_rows, np.where(conv, 1, 2).astype(np.int8), t_max,
                  st.x[open_rows], st.y[open_rows])
    kernel_seconds = time.perf_counter() - started  # repro-lint: disable=wall-clock -- kernel span timing

    for evs in st.events:
        evs.sort(key=lambda e: e.time)
    if obs is not None and obs.enabled:
        obs.add_span("fluid.batch.kernel", kernel_seconds)
        t_used = t_grid[: last + 1]
        for row in range(m):
            # Frozen rows repeat their end state on the tail of the grid;
            # only genuine samples feed the histograms.
            live = t_used <= st.t_end[row]
            record_fluid_obs(obs, "fluid.batch", p, st.events[row],
                             bool(st.reason[row] == 1), float(st.t_end[row]),
                             xs[: last + 1][live, row], row=row)
    return BatchFluidResult(
        params=p,
        mode=mode,
        t=t_grid[: last + 1],
        x=xs[: last + 1],
        y=ys[: last + 1],
        events=st.events,
        converged=st.reason == 1,
        end_reason=[_REASONS[r] for r in st.reason],
        switch_counts=st.switches,
        t_end=st.t_end,
        x_end=st.x_end,
        y_end=st.y_end,
        kernel_seconds=kernel_seconds,
    )


# ---------------------------------------------------------------------------
# batched Poincaré return map
# ---------------------------------------------------------------------------

def batch_return_map(
    params: NormalizedParams | BCNParams,
    ys,
    *,
    mode: str = "nonlinear",
    t_max: float | None = None,
    dt: float | None = None,
    dt_scale: float = 0.02,
) -> np.ndarray:
    """Batched Poincaré return map: all entry ordinates in one integration.

    Starts every row at ``(-k y, y)`` on the upper switching half-line
    and runs :func:`simulate_fluid_batch` with ``max_switches=1``, so
    each row stops at its second crossing of the line (one decrease
    pass, one increase pass).  Returns the ordinates ``P(y)`` of those
    crossings as an array aligned with ``ys``; a row that has not
    crossed twice by ``t_max`` raises :class:`RuntimeError`.  The
    convergence stop is off (``convergence_rtol=0.0``): no row can
    reach the origin, so every row ends on ``max_switches``.

    Semantically equivalent to mapping
    :func:`repro.core.limit_cycle.return_map` over ``ys`` (differential
    tolerance ``≲1e-4`` relative at the default step), but one
    vectorized integration instead of ``2 len(ys)`` ``solve_ivp`` calls.
    """
    from ..core.eigen import Region, region_eigenstructure
    from ..core.phase_plane import PaperCase, classify_case

    p = as_normalized(params)
    if classify_case(p) is not PaperCase.CASE1:
        raise ValueError("the return map requires Case 1 (both regions spiral)")
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if np.any(ys <= 0.0):
        raise ValueError("return map is defined on the upper half-line y > 0")
    if mode != "linearized" and np.any(ys >= p.capacity):
        raise ValueError("entry ordinates must satisfy y < C (positive rate)")
    if t_max is None:
        betas = [
            region_eigenstructure(p, r).beta
            for r in (Region.DECREASE, Region.INCREASE)
        ]
        t_max = 20.0 * math.pi / min(betas)

    result = simulate_fluid_batch(
        p, -p.k * ys, ys, t_max=t_max,
        mode="linearized" if mode == "linearized" else "nonlinear",
        max_switches=1, dt=dt, dt_scale=dt_scale, convergence_rtol=0.0,
    )
    short = [r for r, why in enumerate(result.end_reason)
             if why != "max_switches"]
    if short:
        raise RuntimeError(
            f"{len(short)} return-map rows did not re-cross the "
            f"switching line twice within t_max={t_max:.3g}"
        )
    return np.array([[e.y for e in evs if e.kind == "switch"][1]
                     for evs in result.events])
