"""Delayed-feedback BCN fluid model (DDE integration).

The paper argues propagation delay is negligible in DCE (microseconds
against tens of microseconds of queueing) and drops it from the model.
This module keeps it, so the assumption can be *tested*: the rate law
at time ``t`` acts on the congestion measure the switch computed one
feedback delay ``tau`` earlier,

.. math::

    \\dot x(t) = y(t), \\qquad
    \\dot y(t) = \\begin{cases}
        -a\\,s(t-\\tau) & s(t-\\tau) < 0 \\\\
        -b\\,(y(t) + C)\\,s(t-\\tau) & s(t-\\tau) > 0
    \\end{cases}

with ``s = x + k y``.  Integration is by the method of steps: fixed-step
RK4 whose delayed argument is linearly interpolated from the stored
history (requires ``tau >= step``).

Alongside the integrator, :func:`critical_delay` locates the empirical
stability boundary by bisection on the amplitude trend — the quantity
to compare against the per-subsystem Nyquist margins of
:mod:`repro.baselines.linear_analysis` (the switched system's true
boundary need not coincide with either loop's margin).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from ..core.parameters import BCNParams, NormalizedParams
from .model import as_normalized

__all__ = ["DelayedTrajectory", "simulate_delayed", "critical_delay"]


@dataclass
class DelayedTrajectory:
    """Result of a delayed-feedback integration."""

    params: NormalizedParams
    tau: float
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def amplitude_trend(self) -> float | None:
        """Geometric ratio of successive |x| peaks (None if < 3 peaks)."""
        from ..analysis.metrics import find_peaks

        peaks = [v for _, v in find_peaks(self.t, np.abs(self.x),
                                          min_prominence_frac=0.05)
                 if v > 0]
        if len(peaks) < 3:
            return None
        ratios = [b / a for a, b in zip(peaks, peaks[1:]) if a > 0]
        return float(np.exp(np.mean(np.log(ratios)))) if ratios else None

    def diverged(self) -> bool:
        """Amplitude left the basin (exceeded 100x its initial value)."""
        scale = max(abs(self.x[0]), self.params.q0)
        return bool(np.max(np.abs(self.x)) > 100.0 * scale)

    def classify(self) -> str:
        """``"stable"``, ``"unstable"`` or ``"marginal"``."""
        if self.diverged():
            return "unstable"
        trend = self.amplitude_trend()
        if trend is None:
            return "stable"
        if trend < 0.995:
            return "stable"
        if trend > 1.005:
            return "unstable"
        return "marginal"


def simulate_delayed(
    params: NormalizedParams | BCNParams,
    *,
    tau: float,
    t_max: float,
    x0: float | None = None,
    y0: float = 0.0,
    step: float | None = None,
) -> DelayedTrajectory:
    """Integrate the delayed switched model with RK4 + history lookup.

    Parameters
    ----------
    tau:
        Feedback delay in seconds (must be at least one step).
    step:
        Integration step; defaults to ``min(tau/8, T_fast/200)`` where
        ``T_fast`` is the fastest natural period.
    """
    p = as_normalized(params)
    if tau <= 0:
        raise ValueError("tau must be positive; use simulate_fluid for tau=0")
    if x0 is None:
        x0 = -p.q0
    fastest = math.sqrt(max(p.n_increase, p.n_decrease))
    if step is None:
        step = min(tau / 8.0, (2.0 * math.pi / fastest) / 200.0)
    if step > tau:
        raise ValueError("step must not exceed the delay")

    n_steps = int(math.ceil(t_max / step))
    # The loop runs on plain double buffers (``array("d")``): the same
    # IEEE doubles as numpy arrays, read back as Python floats instead
    # of boxed numpy scalars, and as compact as the arrays they become
    # once at the end.
    x0, y0 = float(x0), float(y0)
    t = array("d", [0.0])
    x = array("d", [x0])
    y = array("d", [y0])
    limit = 1e6 * max(abs(x0), p.q0)

    a, b, c, k = p.a, p.b, p.capacity, p.k
    s_initial = x0 + k * y0

    def delayed_s(time: float, upto: int) -> float:
        """Interpolated s(time - tau); constant initial history."""
        target = time - tau
        if target <= 0.0:
            return s_initial
        idx = min(int(target / step), upto - 1)
        frac = (target - t[idx]) / step
        xd = x[idx] + frac * (x[idx + 1] - x[idx])
        yd = y[idx] + frac * (y[idx + 1] - y[idx])
        return xd + k * yd

    def rhs(time: float, xv: float, yv: float, upto: int) -> tuple[float, float]:
        s_delayed = delayed_s(time, upto)
        if s_delayed < 0.0:
            return yv, -a * s_delayed
        return yv, -b * (yv + c) * s_delayed

    for i in range(n_steps):
        ti, xi, yi = t[i], x[i], y[i]
        upto = i if i > 0 else 1
        k1 = rhs(ti, xi, yi, upto)
        k2 = rhs(ti + step / 2, xi + step / 2 * k1[0], yi + step / 2 * k1[1], upto)
        k3 = rhs(ti + step / 2, xi + step / 2 * k2[0], yi + step / 2 * k2[1], upto)
        k4 = rhs(ti + step, xi + step * k3[0], yi + step * k3[1], upto)
        x_next = xi + step / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        x.append(x_next)
        y.append(yi + step / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]))
        t.append(ti + step)
        if abs(x_next) > limit:
            # unambiguous divergence: stop early
            break

    return DelayedTrajectory(params=p, tau=tau, t=np.array(t), x=np.array(x),
                             y=np.array(y))


def critical_delay(
    params: NormalizedParams | BCNParams,
    *,
    tau_lo: float,
    tau_hi: float,
    t_max: float,
    iterations: int = 12,
) -> float:
    """Bisect for the delay at which the oscillation stops decaying.

    ``tau_lo`` must classify stable and ``tau_hi`` unstable; returns the
    midpoint of the final bracket.
    """
    p = as_normalized(params)

    def is_stable(tau: float) -> bool:
        traj = simulate_delayed(p, tau=tau, t_max=t_max)
        return traj.classify() == "stable"

    if not is_stable(tau_lo):
        raise ValueError("tau_lo is not stable; widen the bracket downwards")
    if is_stable(tau_hi):
        raise ValueError("tau_hi is not unstable; widen the bracket upwards")
    lo, hi = tau_lo, tau_hi
    for _ in range(iterations):
        mid = math.sqrt(lo * hi)
        if is_stable(mid):
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)
