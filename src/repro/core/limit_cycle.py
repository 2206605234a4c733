"""Limit-cycle analysis of the BCN system via a Poincaré return map.

Section IV.C (Case 1) observes that the BCN queue can enter a **limit
cycle**: a closed phase trajectory along which queue and rate oscillate
with constant amplitude forever (Fig. 7) — a phenomenon linear analysis
cannot reveal.

We analyse it with the half-line Poincaré section

    ``Sigma+ = { (-k y, y) : y > 0 }``

(the upper half of the switching line, where trajectories enter the
rate-decrease region).  The **return map** ``P`` sends an entry ordinate
``y`` to the ordinate at the next entry, after one decrease-region pass
and one increase-region pass.  Structure:

* In the *linearised* system ``P`` is exactly linear,
  ``P(y) = rho * y`` with the closed-form contraction
  ``rho = exp(alpha_i pi / beta_i) * exp(alpha_d pi / beta_d) < 1``
  (each spiral half-turn contracts), so the linearised Case-1 system
  always converges and has **no** limit cycle — consistent with
  Proposition 1 and with the paper's point that the cycle is a purely
  nonlinear phenomenon.
* In the *full nonlinear* system the decrease strength carries the
  factor ``(y + C)``, making the per-round contraction amplitude
  dependent; a fixed point ``P(y*) = y*`` is an isolated periodic orbit.
  (The paper's limit-cycle condition ``x_i^k(0) = x_i^{k+1}(0)`` is this
  fixed-point equation stated on the other half-line.)
* In the *physical* system the buffer saturations can also sustain
  boundary oscillations; the same machinery applies with
  ``mode="physical"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from ..fluid.integrate import solver_limits
from ..fluid.model import as_normalized, decrease_field, increase_field, linearized_decrease_field
from .eigen import Region, region_eigenstructure
from .parameters import BCNParams, NormalizedParams
from .phase_plane import PaperCase, classify_case

__all__ = [
    "linearized_contraction",
    "return_map",
    "contraction_ratio",
    "LimitCycle",
    "find_limit_cycle",
    "amplitude_scan",
]


def linearized_contraction(params: NormalizedParams | BCNParams) -> float:
    """Closed-form per-round contraction of the linearised Case-1 map.

    ``rho = exp(pi (alpha_i/beta_i + alpha_d/beta_d)) < 1``; the
    switching ordinate shrinks by exactly this factor per oscillation
    round, so the linearised system spirals in geometrically.
    """
    p = as_normalized(params)
    if classify_case(p) is not PaperCase.CASE1:
        raise ValueError("the spiral return map requires Case 1 parameters")
    ei = region_eigenstructure(p, Region.INCREASE)
    ed = region_eigenstructure(p, Region.DECREASE)
    return math.exp(math.pi * (ei.alpha / ei.beta + ed.alpha / ed.beta))


def _cross_region(
    field,
    p: NormalizedParams,
    x: float,
    y: float,
    *,
    t_max: float,
    rtol: float = 1e-10,
    max_step: float | None = None,
) -> tuple[float, float, float, np.ndarray]:
    """Integrate one region pass until the switching line is re-crossed.

    Returns ``(t_cross, x_cross, y_cross, samples)`` where samples are
    rows ``(t, x, y)``.  Raises RuntimeError if no crossing occurs within
    ``t_max`` (possible for node-type regions, which is out of scope for
    the Case-1 return map).
    """

    def crossing(t: float, s: np.ndarray) -> float:
        return s[0] + p.k * s[1]

    crossing.terminal = True

    # Nudge the start off the line along the flow so the event does not
    # fire at t = 0.
    dx, dy = field(0.0, np.array([x, y]))
    eps = 1e-12 * max(p.q0, 1.0)
    scale = math.hypot(dx, dy)
    if scale > 0:
        x += eps * dx / scale
        y += eps * dy / scale

    if max_step is None:
        max_step = solver_limits(p)[1]
    sol = solve_ivp(
        field,
        (0.0, t_max),
        [x, y],
        events=[crossing],
        rtol=rtol,
        atol=min(p.q0, p.capacity) * 1e-13,
        max_step=max_step,
    )
    if sol.status != 1 or len(sol.t_events[0]) == 0:
        raise RuntimeError("region pass did not re-cross the switching line")
    t_c = float(sol.t_events[0][-1])
    x_c, y_c = (float(v) for v in sol.y_events[0][-1])
    samples = np.column_stack([sol.t, sol.y[0], sol.y[1]])
    return t_c, x_c, y_c, samples


def return_map(
    params: NormalizedParams | BCNParams,
    y: float,
    *,
    mode: str = "nonlinear",
    t_max: float | None = None,
    with_orbit: bool = False,
) -> float | tuple[float, float, np.ndarray]:
    """One application of the Poincaré return map ``P`` at ordinate ``y``.

    Starts at ``(-k y, y)`` on the upper switching half-line, passes
    through the decrease region and then the increase region, and
    returns the ordinate at re-entry.

    Parameters
    ----------
    y:
        Entry ordinate, ``0 < y < C`` (the aggregate rate stays positive).
    mode:
        ``"nonlinear"`` (full decrease law) or ``"linearized"``.
    with_orbit:
        When True, also return the round-trip period and the sampled
        orbit as rows ``(t, x, y)``.
    """
    p = as_normalized(params)
    if classify_case(p) is not PaperCase.CASE1:
        raise ValueError("the return map requires Case 1 (both regions spiral)")
    if not 0.0 < y:
        raise ValueError("return map is defined on the upper half-line y > 0")
    if y >= p.capacity and mode != "linearized":
        raise ValueError("entry ordinate must satisfy y < C (positive rate)")
    dec = linearized_decrease_field(p) if mode == "linearized" else decrease_field(p)
    inc = increase_field(p)
    if t_max is None:
        ed = region_eigenstructure(p, Region.DECREASE)
        ei = region_eigenstructure(p, Region.INCREASE)
        # Several half-turn periods of the slower spiral.
        slowest_beta = min(
            (e.beta for e in (ed, ei) if e.is_focus), default=None
        )
        if slowest_beta is None:
            raise ValueError("return map requires Case 1 (both regions spiral)")
        t_max = 20.0 * math.pi / slowest_beta

    # One eigenvalue-bound computation per map application, not per pass.
    max_step = solver_limits(p)[1]
    x0 = -p.k * y
    t1, x1, y1, orbit_d = _cross_region(dec, p, x0, y, t_max=t_max,
                                        max_step=max_step)
    t2, x2, y2, orbit_i = _cross_region(inc, p, x1, y1, t_max=t_max,
                                        max_step=max_step)
    if with_orbit:
        orbit_i = orbit_i.copy()
        orbit_i[:, 0] += t1
        return y2, t1 + t2, np.vstack([orbit_d, orbit_i])
    return y2


def contraction_ratio(
    params: NormalizedParams | BCNParams, y: float, *, mode: str = "nonlinear"
) -> float:
    """Per-round amplitude ratio ``P(y)/y`` at entry ordinate ``y``."""
    return return_map(params, y, mode=mode) / y


@dataclass(frozen=True)
class LimitCycle:
    """An isolated periodic orbit of the switched BCN system.

    Attributes
    ----------
    entry_ordinate:
        Fixed point ``y*`` of the return map on the upper half-line.
    period:
        Round-trip time of the closed orbit (seconds).
    orbit:
        Sampled orbit, rows ``(t, x, y)`` over one period.
    stable:
        Orbital stability: ``|P'(y*)| < 1`` (attracting cycle).
    derivative:
        Finite-difference estimate of ``P'(y*)``.
    queue_amplitude:
        Peak-to-trough excursion of ``q(t)`` along the cycle.
    """

    entry_ordinate: float
    period: float
    orbit: np.ndarray
    stable: bool
    derivative: float

    @property
    def queue_amplitude(self) -> float:
        return float(self.orbit[:, 1].max() - self.orbit[:, 1].min())

    @property
    def rate_amplitude(self) -> float:
        return float(self.orbit[:, 2].max() - self.orbit[:, 2].min())


def _first_bracket(ys, values) -> tuple[float, float] | None:
    """The first scan interval where ``P(y) - y`` changes sign, ``(y, y)``
    at an exact zero, or None."""
    for (ya, va), (yb, vb) in zip(zip(ys, values), zip(ys[1:], values[1:])):
        if va == 0.0:
            return float(ya), float(ya)
        if va * vb < 0.0:
            return float(ya), float(yb)
    return None


def find_limit_cycle(
    params: NormalizedParams | BCNParams,
    *,
    y_lo: float | None = None,
    y_hi: float | None = None,
    mode: str = "nonlinear",
    xtol_rel: float = 1e-10,
) -> LimitCycle | None:
    """Search the upper half-line for a fixed point of the return map.

    Scans ``[y_lo, y_hi]`` (defaults: ``[1e-4 C, 0.95 C]``) for a sign
    change of ``P(y) - y`` and refines it with Brent's method.  Returns
    None when every scanned amplitude contracts (no cycle), which is the
    generic Case-1 outcome for paper-recommended parameters.

    The scan runs all 25 ordinates as one vectorized integration
    (:func:`repro.fluid.batch.batch_return_map`) and re-checks a
    bracket it finds on the ``solve_ivp`` map :func:`return_map`.  When
    the batch integration fails or its bracket does not hold there, the
    scan is repeated with :func:`return_map` itself.  Brent's method
    always refines on :func:`return_map`.
    """
    from ..fluid.batch import batch_return_map

    p = as_normalized(params)
    if y_lo is None:
        y_lo = 1e-4 * p.capacity
    if y_hi is None:
        y_hi = 0.95 * p.capacity

    def residual(y: float) -> float:
        return return_map(p, y, mode=mode) - y

    ys = np.geomspace(y_lo, y_hi, 25)
    try:
        values = batch_return_map(p, ys, mode=mode) - ys
    except RuntimeError:
        values = None  # a row failed to re-cross within the horizon
    bracket = None if values is None else _first_bracket(ys, values)
    if bracket is not None and bracket[0] != bracket[1]:
        va, vb = residual(bracket[0]), residual(bracket[1])
        if va == 0.0:
            bracket = (bracket[0], bracket[0])
        elif va * vb >= 0.0:
            values = None  # a sign flip inside the batch tolerance band
    if values is None:
        bracket = _first_bracket(ys, [residual(float(y)) for y in ys])
    if bracket is None:
        return None
    if bracket[0] == bracket[1]:
        y_star = bracket[0]
    else:
        y_star = float(
            brentq(residual, bracket[0], bracket[1], xtol=xtol_rel * p.capacity)
        )
    _, period, orbit = return_map(p, y_star, mode=mode, with_orbit=True)
    h = max(1e-6 * y_star, 1e-9 * p.capacity)
    deriv = (return_map(p, y_star + h, mode=mode) - return_map(p, y_star - h, mode=mode)) / (2 * h)
    return LimitCycle(
        entry_ordinate=y_star,
        period=period,
        orbit=orbit,
        stable=abs(deriv) < 1.0,
        derivative=deriv,
    )


def amplitude_scan(
    params: NormalizedParams | BCNParams,
    ordinates: np.ndarray,
    *,
    mode: str = "nonlinear",
) -> np.ndarray:
    """Evaluate ``P(y)/y`` over a grid of entry ordinates.

    Returns rows ``(y, ratio)``; ratios above 1 mark amplitude growth.
    Useful for mapping where cycles can live before running the root
    finder, and for the Fig. 7 benchmark's convergence diagnostics.
    The whole grid runs as one vectorized integration
    (:func:`repro.fluid.batch.batch_return_map`).
    """
    from ..fluid.batch import batch_return_map

    p = as_normalized(params)
    ordinates = np.asarray(ordinates, dtype=float)
    ratios = batch_return_map(p, ordinates, mode=mode) / ordinates
    return np.column_stack([ordinates, ratios])
