"""Fairness dynamics of the BCN rate laws (Chiu-Jain phase plane).

The paper adopts AIMD "since it has been proven to be stable, convergent
and fair under common network environments [11]" (Chiu & Jain 1989).
This module verifies that claim for the *BCN variant* of AIMD by lifting
the fluid model to two heterogeneous flows sharing the bottleneck:

.. math::

    \\dot q = r_1 + r_2 - C, \\qquad
    \\dot r_i = \\begin{cases}
        G_i R_u \\sigma & \\sigma > 0 \\\\
        G_d \\sigma r_i & \\sigma < 0
    \\end{cases}

with the shared measure ``sigma = (q0 - q) - w dq`` — both flows see the
*same* sigma, so increase episodes add equal amounts (moving parallel to
the fairness line) while decrease episodes scale each rate (moving
towards the origin along the current ray).  The classic Chiu-Jain
geometry then pulls every trajectory towards the fairness line
``r1 = r2``: each decrease-increase round multiplies the rate *gap*'s
share of the total.

:func:`simulate_two_flows` integrates the three-state system;
:func:`fairness_trajectory` projects it onto the Chiu-Jain plane
(``r1`` vs ``r2``) and reports the convergence of Jain's index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from ..core.parameters import BCNParams

__all__ = ["TwoFlowTrajectory", "simulate_two_flows", "fairness_trajectory"]


@dataclass
class TwoFlowTrajectory:
    """Sampled (q, r1, r2) trajectory of the two-flow fluid model."""

    params: BCNParams
    t: np.ndarray
    q: np.ndarray
    r1: np.ndarray
    r2: np.ndarray

    def jain_series(self) -> np.ndarray:
        """Jain's fairness index along the trajectory."""
        return np.array([_jain_pair(a, b)
                         for a, b in zip(self.r1.tolist(), self.r2.tolist())])

    def final_jain(self) -> float:
        return _jain_pair(float(self.r1[-1]), float(self.r2[-1]))

    def gap_series(self) -> np.ndarray:
        """Normalised rate gap ``|r1 - r2| / (r1 + r2)``."""
        total = self.r1 + self.r2
        return np.abs(self.r1 - self.r2) / np.where(total > 0, total, 1.0)

    def utilization_series(self) -> np.ndarray:
        return (self.r1 + self.r2) / self.params.capacity


def _jain_pair(a: float, b: float) -> float:
    """:func:`~.metrics.jain_index` of two rates, in the same float
    operations on python floats: no numpy call per sample."""
    denom = 2 * (a * a + b * b)
    return (a + b) ** 2 / denom if denom != 0.0 else 1.0


def simulate_two_flows(
    params: BCNParams,
    *,
    r1_0: float,
    r2_0: float,
    q_0: float = 0.0,
    t_max: float,
    rtol: float = 1e-8,
    max_step: float | None = None,
) -> TwoFlowTrajectory:
    """Integrate the two-flow BCN fluid model from asymmetric rates.

    The queue is clamped at ``[0, B]`` through the same pinned dynamics
    as the single-flow physical model (empty queue feeds back
    ``sigma = q0``; full queue feeds back ``sigma = q0 - B``).
    """
    c, q0, w, pm = (params.capacity, params.q0, params.w, params.pm)
    gi_ru, gd = params.gi * params.ru, params.gd
    k_eff = w / (pm * c)
    buffer_size = params.buffer_size

    def rhs(t, state):
        q, r1, r2 = state
        dq = r1 + r2 - c
        if q <= 0.0 and dq < 0.0:
            dq_eff = 0.0
        elif q >= buffer_size and dq > 0.0:
            dq_eff = 0.0
        else:
            dq_eff = dq
        sigma = (q0 - min(max(q, 0.0), buffer_size)) - k_eff * dq_eff
        if sigma > 0:
            dr1 = gi_ru * sigma
            dr2 = gi_ru * sigma
        else:
            dr1 = gd * sigma * r1
            dr2 = gd * sigma * r2
        # rate floor at 0
        if r1 <= 0.0 and dr1 < 0.0:
            dr1 = 0.0
        if r2 <= 0.0 and dr2 < 0.0:
            dr2 = 0.0
        return [dq_eff, dr1, dr2]

    if max_step is None:
        a = params.ru * params.gi * 2
        max_step = 0.02 / np.sqrt(a / max(q0, 1.0)) if a > 0 else np.inf
        max_step = max(max_step, t_max / 20000.0)

    ts = np.linspace(0.0, t_max, 4000)
    sol = solve_ivp(rhs, (0.0, t_max), [q_0, r1_0, r2_0], t_eval=ts,
                    rtol=rtol, atol=1e-6 * c, max_step=max_step)
    q = np.clip(sol.y[0], 0.0, buffer_size)
    return TwoFlowTrajectory(params=params, t=sol.t, q=q,
                             r1=np.maximum(sol.y[1], 0.0),
                             r2=np.maximum(sol.y[2], 0.0))


def fairness_trajectory(
    params: BCNParams,
    *,
    imbalance: float = 4.0,
    t_max: float,
) -> TwoFlowTrajectory:
    """Canonical Chiu-Jain run: total = C, split ``imbalance : 1``."""
    if imbalance <= 0:
        raise ValueError("imbalance must be positive")
    total = params.capacity
    r1 = total * imbalance / (imbalance + 1.0)
    r2 = total / (imbalance + 1.0)
    return simulate_two_flows(params, r1_0=r1, r2_0=r2, t_max=t_max)
