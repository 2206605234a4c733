"""Transient-performance analysis of the BCN loop.

The paper's conclusion names this as future work: "investigate the
transient behaviors of BCN system and evaluate the impact of parameters
on the transient performance."  The phase-plane machinery makes it
closed-form for the linearised Case-1 system:

* the oscillation **round period** is the sum of the half-turn times of
  the two spirals, ``T_round = pi/beta_i + pi/beta_d``;
* the per-round amplitude **contraction** is
  ``rho = exp(pi (alpha_i/beta_i + alpha_d/beta_d))``;
* the **settling time** to an amplitude fraction ``eps`` is therefore
  ``T_round * ln(eps)/ln(rho)`` (plus the first partial round);
* the **overshoot** is the Case-1/2 peak bound of eqs. (36)/(38);
* the **warm-up time** is ``T0 = (C - N mu)/(a q0)``.

These formulas quantify the paper's parameter remarks: ``w`` and ``pm``
(through ``k``) do not move the stability criterion but set the damping,
hence the convergence speed; ``q0`` trades warm-up time against buffer
need; ``Gi``/``Gd`` trade buffer need against settling time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .eigen import Region, region_eigenstructure
from ..fluid.model import as_normalized
from .parameters import BCNParams, NormalizedParams
from .phase_plane import PaperCase, PhasePlaneAnalyzer, classify_case
from .stability import case1_excursion_bounds, case2_peak_bound

__all__ = [
    "round_period",
    "settling_rounds",
    "settling_time",
    "overshoot_ratio",
    "TransientReport",
    "transient_report",
]


def round_period(params: NormalizedParams | BCNParams) -> float:
    """One full oscillation round ``pi/beta_i + pi/beta_d`` (Case 1)."""
    p = as_normalized(params)
    if classify_case(p) is not PaperCase.CASE1:
        raise ValueError("round_period requires Case 1 (both regions spiral)")
    beta_i = region_eigenstructure(p, Region.INCREASE).beta
    beta_d = region_eigenstructure(p, Region.DECREASE).beta
    return math.pi / beta_i + math.pi / beta_d


def settling_rounds(
    params: NormalizedParams | BCNParams, *, fraction: float = 0.01
) -> float:
    """Rounds until the oscillation amplitude falls to ``fraction``.

    ``n = ln(fraction) / ln(rho)`` with the per-round contraction
    ``rho``; fractional rounds are meaningful (the decay is geometric).
    """
    if not 0 < fraction < 1:
        raise ValueError("fraction must lie in (0, 1)")
    from .limit_cycle import linearized_contraction

    rho = linearized_contraction(params)
    return math.log(fraction) / math.log(rho)


def settling_time(
    params: NormalizedParams | BCNParams, *, fraction: float = 0.01
) -> float:
    """Time until the amplitude falls to ``fraction`` of its first peak."""
    return settling_rounds(params, fraction=fraction) * round_period(params)


def overshoot_ratio(params: NormalizedParams | BCNParams) -> float:
    """Transient queue overshoot past ``q0``, as a multiple of ``q0``.

    0 for the node-decrease cases (no overshoot); the eq. 36 / eq. 38
    peak otherwise.
    """
    p = as_normalized(params)
    case = classify_case(p)
    if case is PaperCase.CASE1:
        max1, _ = case1_excursion_bounds(p)
        return max1 / p.q0
    if case is PaperCase.CASE2:
        return case2_peak_bound(p) / p.q0
    return 0.0


@dataclass(frozen=True)
class TransientReport:
    """Closed-form transient profile of one configuration.

    Attributes
    ----------
    case:
        Paper case of the configuration.
    overshoot_ratio:
        Peak queue excursion past ``q0`` as a multiple of ``q0``.
    contraction:
        Per-round amplitude contraction (None outside Case 1).
    round_period:
        Oscillation round time in seconds (None outside Case 1).
    settling_time_1pct:
        Time for the oscillation amplitude to fall to 1% (None outside
        Case 1 — the node cases settle in a single pass).
    crossings:
        Switching-line crossings of the canonical trajectory (exact).
    warmup_time:
        ``T0`` for the given initial rate, when physical parameters were
        supplied (None for normalised input).
    """

    case: PaperCase
    overshoot_ratio: float
    contraction: float | None
    round_period: float | None
    settling_time_1pct: float | None
    crossings: int
    warmup_time: float | None

    def summary(self) -> str:
        parts = [f"case={self.case.value}",
                 f"overshoot={self.overshoot_ratio:.3f}*q0",
                 f"crossings={self.crossings}"]
        if self.contraction is not None:
            parts.append(f"rho={self.contraction:.4f}")
        if self.settling_time_1pct is not None:
            parts.append(f"settle(1%)={self.settling_time_1pct:.3g}s")
        if self.warmup_time is not None:
            parts.append(f"T0={self.warmup_time:.3g}s")
        return ", ".join(parts)


def transient_report(
    params: NormalizedParams | BCNParams, *, max_switches: int = 200
) -> TransientReport:
    """Build the closed-form transient profile of a configuration."""
    p = as_normalized(params)
    case = classify_case(p)
    warmup = params.warmup_duration() if isinstance(params, BCNParams) else None
    traj = PhasePlaneAnalyzer(p).compose(max_switches=max_switches)
    if case is PaperCase.CASE1:
        from .limit_cycle import linearized_contraction

        return TransientReport(
            case=case,
            overshoot_ratio=overshoot_ratio(p),
            contraction=linearized_contraction(p),
            round_period=round_period(p),
            settling_time_1pct=settling_time(p),
            crossings=traj.n_switches,
            warmup_time=warmup,
        )
    return TransientReport(
        case=case,
        overshoot_ratio=overshoot_ratio(p),
        contraction=None,
        round_period=None,
        settling_time_1pct=None,
        crossings=traj.n_switches,
        warmup_time=warmup,
    )
