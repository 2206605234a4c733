"""Lyapunov/energy analysis of the BCN phase plane.

A complement to the paper's trajectory-by-trajectory treatment: both
regions of the switched system admit explicit energy functions whose
decay certifies convergence, and whose *conservation* in limiting cases
explains the closed orbits of Fig. 7.

* **Increase region** (linear, ``y' = -a(x + ky)``): the mechanical
  energy ``V_i(x, y) = (a x^2 + y^2) / 2`` satisfies
  ``dV_i/dt = -a k y^2 <= 0`` — all dissipation is carried by the
  ``k``-term, i.e. by the queue-derivative weight ``w``.
* **Decrease region** (nonlinear, ``y' = -b(y + C)(x + ky)``): the
  first integral of the undamped (``k = 0``) flow is
  ``V_d(x, y) = b x^2/2 + y - C ln(1 + y/C)``, positive definite for
  ``y > -C``, and along the damped flow ``dV_d/dt = -b k y^2 <= 0`` —
  the exact mirror of the increase region.  *All* of the BCN loop's
  dissipation, in both regions, is the ``-(gain) k y^2`` term carried
  by the queue-derivative weight: a one-line Lyapunov proof that the
  system converges for ``k > 0`` and is marginal at ``k = 0``.
* At ``k = 0`` both energies are exactly conserved within their regions
  — but they are *different* functions, and a crossing hands an orbit
  from one level set to the other.  :func:`crossing_energy_ratio`
  quantifies the handoff; in the linearised model it is 1 (closed
  orbits), while the nonlinear ``V_d`` asymmetry makes each decrease
  pass slightly lossy — the extra dissipation documented in the Fig. 7
  experiment.
"""

from __future__ import annotations

import math

import numpy as np

from ..fluid.model import as_normalized
from .parameters import BCNParams, NormalizedParams

__all__ = [
    "increase_energy",
    "increase_energy_rate",
    "decrease_energy",
    "decrease_energy_rate",
    "energy_along",
    "crossing_energy_ratio",
]


def increase_energy(params: NormalizedParams | BCNParams,
                    x: float, y: float) -> float:
    """``V_i = (a x^2 + y^2)/2`` — positive definite on the plane."""
    p = as_normalized(params)
    return 0.5 * (p.a * x * x + y * y)


def increase_energy_rate(params: NormalizedParams | BCNParams,
                         x: float, y: float) -> float:
    """Exact ``dV_i/dt = -a k y^2`` along the increase flow."""
    p = as_normalized(params)
    return -p.a * p.k * y * y


def decrease_energy(params: NormalizedParams | BCNParams,
                    x: float, y: float) -> float:
    """``V_d = b x^2/2 + y - C ln(1 + y/C)``, defined for ``y > -C``.

    The first integral of the undamped decrease flow; its level sets
    are the closed decrease-region arcs of the ``k -> 0`` orbits.
    """
    p = as_normalized(params)
    c = p.capacity
    if y <= -c:
        raise ValueError("decrease energy requires y > -C (positive rate)")
    return 0.5 * p.b * x * x + y - c * math.log1p(y / c)


def decrease_energy_rate(params: NormalizedParams | BCNParams,
                         x: float, y: float) -> float:
    """Exact ``dV_d/dt = -b k y^2`` along the damped decrease flow.

    From the chain rule, ``dV_d/dt = b x y + (y/(y+C)) ydot`` with
    ``ydot = -b (y+C)(x+ky)``, which collapses to ``-b k y^2``.
    """
    p = as_normalized(params)
    if y <= -p.capacity:
        raise ValueError("decrease energy requires y > -C")
    return -p.b * p.k * y * y


def energy_along(
    params: NormalizedParams | BCNParams,
    xs: np.ndarray,
    ys: np.ndarray,
    *,
    region: str,
) -> np.ndarray:
    """Evaluate the region energy along a sampled trajectory."""
    p = as_normalized(params)
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    if region == "increase":
        return 0.5 * (p.a * xs * xs + ys * ys)
    if region == "decrease":
        c = p.capacity
        if np.any(ys <= -c):
            raise ValueError("decrease energy requires y > -C")
        return 0.5 * p.b * xs * xs + ys - c * np.log1p(ys / c)
    raise ValueError(f"unknown region {region!r}")


def crossing_energy_ratio(
    params: NormalizedParams | BCNParams, y_enter: float
) -> float:
    """Exit/enter ordinate ratio of one undamped decrease pass.

    For ``k = 0`` the decrease region conserves ``V_d``, so a pass
    entering the region at ``(0, +y_enter)`` exits at ``(0, -y_exit)``
    with ``V_d(0, y_enter) = V_d(0, y_exit)``.  Because ``V_d`` is
    asymmetric in ``y`` (``y - C ln(1+y/C)`` grows faster for ``y > 0``),
    ``y_exit < y_enter`` strictly: the nonlinear decrease pass loses
    amplitude even without damping.  Returns ``y_exit / y_enter``.
    """
    p = as_normalized(params)
    c = p.capacity
    if not 0 < y_enter < c:
        raise ValueError("need 0 < y_enter < C")
    target = y_enter - c * math.log1p(y_enter / c)

    # solve h(y) = -y - C ln(1 - y/C) = target for y in (0, C)
    def h(y: float) -> float:
        return -y - c * math.log1p(-y / c) - target

    lo, hi = 1e-12 * c, c * (1.0 - 1e-12)
    from scipy.optimize import brentq

    y_exit = float(brentq(h, lo, hi))
    return y_exit / y_enter
