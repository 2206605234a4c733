"""Strong stability of the BCN system (Definition 1, Props. 2-4, Theorem 1).

The paper's **strong stability** (Definition 1) strengthens Lyapunov
stability to respect the physical buffer: there must exist ``t0`` such
that ``0 < q(t) < B`` for all ``t > t0``.  A trajectory that converges
to the equilibrium but transiently overflows the buffer (dropping
packets) or empties the queue (wasting the link) is *not* strongly
stable, even though classical linear analysis calls it stable
(Proposition 1).

This module implements:

* the paper-form first-round excursion bounds ``max1``/``min1`` (Case 1,
  eqs. 36-37) and ``max2`` (Case 2, eq. 38);
* Propositions 2-4, the per-case strong-stability conditions;
* **Theorem 1**, the closed-form sufficient criterion
  ``(1 + sqrt(Ru Gi N / (Gd C))) q0 < B``;
* :func:`strong_stability_report`, which combines the analytic criterion
  with an exact composed-trajectory verdict, and
* :func:`required_buffer` / :func:`max_queue_bound`, the buffer-sizing
  guidance of the Section IV Remarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..fluid.model import as_normalized
from .parameters import BCNParams, NormalizedParams
from .phase_plane import PaperCase, PhasePlaneAnalyzer, classify_case

__all__ = [
    "case1_excursion_bounds",
    "case2_peak_bound",
    "proposition2_holds",
    "proposition3_holds",
    "proposition4_applies",
    "theorem1_criterion",
    "required_buffer",
    "max_queue_bound",
    "StabilityReport",
    "strong_stability_report",
    "is_strongly_stable",
]


# ---------------------------------------------------------------------------
# Paper-form excursion bounds
# ---------------------------------------------------------------------------

def case1_excursion_bounds(params: NormalizedParams | BCNParams) -> tuple[float, float]:
    """First-round queue excursions ``(max1, min1)`` of Case 1 (eqs. 36-37).

    Follows the paper's chain of closed forms exactly: the first increase
    spiral from ``(-q0, 0)`` up to the switching line (amplitude ``A_i^1``,
    phase ``phi_i^1``, transit time ``T_i^1``), the crossing point
    ``x_d^1(0)``, the first decrease spiral's peak (eq. 36), the
    half-turn decrease transit ``T_d^1 = pi / beta_d``, the re-entry point
    ``x_i^2(0)`` and the second increase spiral's trough (eq. 37).

    Returns
    -------
    (max1, min1):
        Peak and trough of the normalised queue offset ``x = q - q0``
        over the first oscillation round.  Proposition 2 requires
        ``max1 < B - q0`` and ``min1 > -q0``.

    Raises
    ------
    ValueError
        If the parameters are not in Case 1 (both regions spiral).
    """
    p = as_normalized(params)
    if classify_case(p) is not PaperCase.CASE1:
        raise ValueError("case1_excursion_bounds requires Case 1 parameters")
    a, b, c, k, q0 = p.a, p.b, p.capacity, p.k, p.q0

    # Increase-region spiral constants.
    root_i = math.sqrt(4.0 * a - a * a * k * k)  # 2 * beta_i
    alpha_i, beta_i = -a * k / 2.0, root_i / 2.0
    amp_i1 = 2.0 * q0 * math.sqrt(a) / root_i
    phi_i1 = -math.atan(a * k / root_i)
    t_i1 = (2.0 / root_i) * (math.atan((2.0 - a * k * k) / (k * root_i)) - phi_i1)
    x_d1 = -k * amp_i1 * (root_i / 2.0) * math.exp(-a * k * t_i1 / 2.0)

    # Decrease-region spiral constants.
    root_d = math.sqrt(4.0 * b * c - (k * b * c) ** 2)  # 2 * beta_d
    alpha_d, beta_d = -b * k * c / 2.0, root_d / 2.0
    phi_d1 = math.atan((2.0 - b * k * k * c) / (k * root_d))
    ratio_d = alpha_d / beta_d
    max1 = (abs(x_d1) / (k * math.sqrt(b * c))) * math.exp(
        ratio_d * (math.pi + math.atan(ratio_d) - phi_d1)
    )

    # Half-turn through the decrease region, then the second increase round.
    t_d1 = 2.0 * math.pi / root_d
    amp_d1 = 2.0 * abs(-x_d1 / k) / root_d
    x_i2 = -amp_d1 * (k * root_d / 2.0) * math.exp(-b * k * c * t_d1 / 2.0)
    phi_i2 = math.atan((2.0 - a * k * k) / (k * root_i))
    ratio_i = alpha_i / beta_i
    min1 = -(abs(x_i2) / (k * math.sqrt(a))) * math.exp(
        ratio_i * (math.pi + math.atan(ratio_i) - phi_i2)
    )
    return max1, min1


def case2_peak_bound(params: NormalizedParams | BCNParams) -> float:
    """Case 2 queue peak ``max2`` (eq. 38).

    In Case 2 the increase region is a node: the trajectory from
    ``(-q0, 0)`` follows a parabola-like curve to the switching line,
    crossing it at ordinate ``y_d^1(0) = q0 [ (k + 1/lambda_1)^{lambda_1}
    / (k + 1/lambda_2)^{lambda_2} ]^{1/(lambda_2 - lambda_1)}`` (from
    eq. 26), then spirals once through the decrease region; eq. (38)
    gives the resulting peak.
    """
    p = as_normalized(params)
    if classify_case(p) is not PaperCase.CASE2:
        raise ValueError("case2_peak_bound requires Case 2 parameters")
    a, b, c, k, q0 = p.a, p.b, p.capacity, p.k, p.q0

    disc = a * a * k * k - 4.0 * a
    lam1 = (-k * a - math.sqrt(disc)) / 2.0
    lam2 = (-k * a + math.sqrt(disc)) / 2.0
    # k + 1/lambda_i in (0, k) since lambda_i < -1/k; safe for log-powers.
    log_ratio = (
        lam1 * math.log(k + 1.0 / lam1) - lam2 * math.log(k + 1.0 / lam2)
    ) / (lam2 - lam1)
    y_d1 = q0 * math.exp(log_ratio)

    root_d = math.sqrt(4.0 * b * c - (k * b * c) ** 2)
    alpha_d, beta_d = -b * k * c / 2.0, root_d / 2.0
    phi_d1 = math.atan((2.0 - b * k * k * c) / (k * root_d))
    ratio_d = alpha_d / beta_d
    # max2 = y_d1 / sqrt(bC) * exp(...): eq. (38) written with the crossing
    # ordinate; |x_d1| = k * y_d1 and |x_d1|/(k sqrt(bC)) = y_d1/sqrt(bC).
    return (y_d1 / math.sqrt(b * c)) * math.exp(
        ratio_d * (math.pi + math.atan(ratio_d) - phi_d1)
    )


# ---------------------------------------------------------------------------
# Propositions and Theorem 1
# ---------------------------------------------------------------------------

def proposition2_holds(params: NormalizedParams | BCNParams) -> bool:
    """Proposition 2: Case-1 strong stability via the eq. 36/37 bounds."""
    p = as_normalized(params)
    max1, min1 = case1_excursion_bounds(p)
    return max1 < p.buffer_size - p.q0 and min1 > -p.q0


def proposition3_holds(params: NormalizedParams | BCNParams) -> bool:
    """Proposition 3: Case-2 strong stability via the eq. 38 bound.

    (The paper's statement of Proposition 3 repeats Case 1's inequality
    signs by typographical error; the proof and Fig. 8 make clear it
    covers Case 2, ``a > 4 pm^2 C^2 / w^2`` and ``b < 4 pm^2 C / w^2``.)
    """
    p = as_normalized(params)
    return case2_peak_bound(p) < p.buffer_size - p.q0


def proposition4_applies(params: NormalizedParams | BCNParams) -> bool:
    """Proposition 4: Cases 3-5 (``b C >= 4/k^2`` or ``a = 4/k^2``).

    In these cases the decrease region is a node (or the switching line
    itself is invariant), the trajectory never overshoots ``q0`` after
    its first crossing, and the system is strongly stable for any buffer
    ``B > q0``.
    """
    p = as_normalized(params)
    thr = p.focus_threshold
    return p.n_decrease >= thr or p.n_increase == thr


def theorem1_criterion(params: NormalizedParams | BCNParams) -> bool:
    """Theorem 1: sufficient condition for strong stability.

    ``(1 + sqrt(a / (b C))) q0 < B`` — in physical parameters,
    ``(1 + sqrt(Ru Gi N / (Gd C))) q0 < B``.
    """
    p = as_normalized(params)
    return required_buffer(p) < p.buffer_size


def required_buffer(params: NormalizedParams | BCNParams) -> float:
    """Buffer size Theorem 1 deems sufficient: ``(1 + sqrt(a/(bC))) q0``.

    For the paper's worked example (N=50, C=10 Gbit/s, q0=2.5 Mbit,
    Gi=4, Gd=1/128, Ru=8 Mbit/s) this evaluates to about 13.8 Mbit,
    nearly three times the 5 Mbit bandwidth-delay product.
    """
    p = as_normalized(params)
    return (1.0 + math.sqrt(p.a / (p.b * p.capacity))) * p.q0


def max_queue_bound(params: NormalizedParams | BCNParams) -> float:
    """Theorem 1's bound on the peak queue: ``q0 (1 + sqrt(a/(bC)))``.

    The proof shows every case's transient peak obeys
    ``max q(t) - q0 < sqrt(a/(bC)) q0``, so the peak queue is below this
    value; it scales with ``sqrt(N/C)`` and is independent of ``w`` and
    ``pm`` (which only shape transients such as limit cycles).
    """
    return required_buffer(params)


# ---------------------------------------------------------------------------
# Combined report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    """Analytic + trajectory-level strong-stability assessment.

    Attributes
    ----------
    case:
        The paper's case classification.
    strongly_stable:
        Verdict from the exact composed trajectory (Definition 1): the
        queue neither overflows nor re-empties after the start.
    theorem1_satisfied:
        Whether Theorem 1's sufficient criterion holds.
    theorem1_buffer:
        Buffer size Theorem 1 requires, ``(1 + sqrt(a/(bC))) q0``.
    proposition:
        Which proposition governs this case (2, 3 or 4).
    proposition_holds:
        Whether the governing proposition's bound condition is met.
    queue_peak, queue_trough:
        Exact peak / trough of ``q(t)`` along the composed trajectory.
    bound_peak:
        The paper-form analytic peak bound for this case (eq. 36 or 38;
        ``q0`` offset included), or None for Cases 3-5.
    limit_cycle_suspected:
        True when the composed trajectory neither converged nor diverged
        within the switching budget (Case 1 only).
    """

    case: PaperCase
    strongly_stable: bool
    theorem1_satisfied: bool
    theorem1_buffer: float
    proposition: int
    proposition_holds: bool
    queue_peak: float
    queue_trough: float
    bound_peak: float | None
    limit_cycle_suspected: bool

    @property
    def consistent(self) -> bool:
        """Theorem 1 must never pass on a non-strongly-stable system."""
        return not self.theorem1_satisfied or self.strongly_stable


def strong_stability_report(
    params: NormalizedParams | BCNParams,
    *,
    max_switches: int = 400,
) -> StabilityReport:
    """Assess strong stability analytically and by exact composition."""
    p = as_normalized(params)
    case = classify_case(p)
    analyzer = PhasePlaneAnalyzer(p)
    traj = analyzer.compose(max_switches=max_switches)

    overflow = traj.overflows()
    underflow = traj.underflows_after_start()
    converging = traj.converged
    limit_cycle = False
    if not converging and traj.end_reason == "max_switches":
        # The switching budget ran out before the convergence ball was
        # reached.  The amplitude trend settles it: a geometric ratio
        # below 1 means the oscillation contracts (eventual convergence,
        # just slow — common for the paper's gentle gains); a ratio of 1
        # is a limit cycle; above 1, divergence.
        trend = traj.amplitude_trend()
        if trend is not None and trend < 1.0 - 1e-9:
            converging = True
        else:
            limit_cycle = trend is not None and abs(trend - 1.0) <= 1e-9
    strongly_stable = converging and not overflow and not underflow

    if case is PaperCase.CASE1:
        proposition = 2
        max1, _min1 = case1_excursion_bounds(p)
        bound_peak: float | None = p.q0 + max1
        prop_holds = proposition2_holds(p)
    elif case is PaperCase.CASE2:
        proposition = 3
        bound_peak = p.q0 + case2_peak_bound(p)
        prop_holds = proposition3_holds(p)
    else:
        proposition = 4
        bound_peak = None
        prop_holds = proposition4_applies(p)

    return StabilityReport(
        case=case,
        strongly_stable=strongly_stable,
        theorem1_satisfied=theorem1_criterion(p),
        theorem1_buffer=required_buffer(p),
        proposition=proposition,
        proposition_holds=prop_holds,
        queue_peak=traj.queue_peak(),
        queue_trough=traj.queue_trough_after_start(),
        bound_peak=bound_peak,
        limit_cycle_suspected=limit_cycle,
    )


def is_strongly_stable(
    params: NormalizedParams | BCNParams, *, max_switches: int = 400
) -> bool:
    """Exact Definition-1 verdict from the composed trajectory."""
    return strong_stability_report(params, max_switches=max_switches).strongly_stable
