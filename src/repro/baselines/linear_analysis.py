"""The linear stability analysis of Lu et al. [4] — the paper's foil.

Reference [4] ("Congestion Control in Networks with No Congestion
Drops", Allerton 2006, by the BCN inventors) analyses each rate law in
isolation with classical linear control theory: split the switched
system into the increase and decrease subsystems, linearise, and apply
the Routh-Hurwitz / Nyquist criteria separately.  The paper under
reproduction shows what this misses — transient switching behaviour,
buffer constraints, limit cycles — so this module implements the linear
analysis faithfully, to be *contrasted* with the strong-stability
verdicts:

* :func:`routh_hurwitz_stable` — Proposition 1: with positive physical
  parameters both subsystems are always (Lyapunov-)stable; the combined
  criterion is vacuous and, notably, independent of the buffer ``B``.
* :func:`nyquist_delay_margin` — the delay-aware refinement: with a
  feedback delay ``tau`` the characteristic equation becomes
  ``lambda^2 + (k n lambda + n) e^{-lambda tau} = 0``; the Nyquist
  condition bounds the tolerable delay by ``tau < atan(k w*) / w*``
  where ``w*`` is the gain-crossover frequency,
  ``w*^2 = n sqrt(1 + (k w*)^2)``.
* :func:`linear_verdict` — the full [4]-style verdict for a parameter
  set, for side-by-side comparison with
  :func:`repro.core.stability.strong_stability_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from ..core.parameters import BCNParams, NormalizedParams
from ..fluid.model import as_normalized

__all__ = [
    "routh_hurwitz_stable",
    "gain_crossover",
    "nyquist_delay_margin",
    "LinearVerdict",
    "linear_verdict",
]


def routh_hurwitz_stable(params: NormalizedParams | BCNParams) -> bool:
    """Proposition 1: both linearised subsystems are Routh-Hurwitz stable.

    The characteristic polynomial ``lambda^2 + m lambda + n`` is stable
    iff ``m > 0`` and ``n > 0``; with physically meaningful (positive)
    parameters this always holds — which is exactly why the analysis of
    [4] cannot distinguish a well-dimensioned BCN system from one that
    drops packets in every transient.
    """
    p = as_normalized(params)
    for n in (p.n_increase, p.n_decrease):
        m = p.k * n
        if not (m > 0 and n > 0):
            return False
    return True


def gain_crossover(n: float, k: float) -> float:
    """Gain-crossover frequency ``w*`` of the delayed loop.

    Solves ``w^2 = n * sqrt(1 + (k w)^2)`` (where the open-loop gain
    ``|n (1 + j k w) / (j w)^2|`` equals one).  Unique positive root.
    """
    if n <= 0 or k <= 0:
        raise ValueError("n and k must be positive")

    def f(w: float) -> float:
        return w * w - n * math.sqrt(1.0 + (k * w) ** 2)

    # Bracket: f(0+) < 0; for large w, f ~ w^2 - n k w > 0.
    hi = max(2.0 * n * k, 2.0 * math.sqrt(n), 1.0)
    while f(hi) <= 0:
        hi *= 2.0
    return float(brentq(f, 1e-12 * hi, hi))


def nyquist_delay_margin(n: float, k: float) -> float:
    """Maximum feedback delay the linearised loop tolerates.

    The loop transfer function with delay ``tau`` is
    ``G(s) = n (1 + k s) e^{-s tau} / s^2``; at the crossover ``w*`` the
    phase is ``-pi + atan(k w*) - w* tau``, so the phase margin is
    positive iff ``tau < atan(k w*) / w*``.
    """
    w_star = gain_crossover(n, k)
    return math.atan(k * w_star) / w_star


@dataclass(frozen=True)
class LinearVerdict:
    """The [4]-style assessment of a BCN parameter set."""

    increase_stable: bool
    decrease_stable: bool
    increase_delay_margin: float
    decrease_delay_margin: float

    @property
    def stable(self) -> bool:
        """The combined (delay-free) linear verdict."""
        return self.increase_stable and self.decrease_stable

    def stable_with_delay(self, tau: float) -> bool:
        """Whether both loops tolerate feedback delay ``tau``."""
        return (
            self.stable
            and tau < self.increase_delay_margin
            and tau < self.decrease_delay_margin
        )


def linear_verdict(params: NormalizedParams | BCNParams) -> LinearVerdict:
    """Assess a parameter set exactly as the linear analysis of [4] would.

    Note what is absent: the buffer size ``B`` plays no role, so two
    systems differing only in ``B`` — one of which drops packets on
    every transient — receive identical verdicts.  Contrast with
    :func:`repro.core.stability.theorem1_criterion`.
    """
    p = as_normalized(params)
    n_i, n_d = p.n_increase, p.n_decrease
    return LinearVerdict(
        increase_stable=routh_hurwitz_stable(p),
        decrease_stable=routh_hurwitz_stable(p),
        increase_delay_margin=nyquist_delay_margin(n_i, p.k),
        decrease_delay_margin=nyquist_delay_margin(n_d, p.k),
    )
