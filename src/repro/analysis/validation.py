"""Fluid-model vs packet-level cross-validation.

The paper's entire analysis lives in the fluid approximation; this
module quantifies how well the packet-level DES substrate agrees with
it, so that conclusions drawn from the phase-plane machinery can be
trusted at packet granularity.  Agreement is assessed on *shape*:
normalised RMS error between resampled queue trajectories, the ratio of
their peaks, and their oscillation structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.parameters import BCNParams
from ..fluid.integrate import simulate_fluid
from ..simulation.network import BCNNetworkSimulator
from .metrics import summarize_oscillation

__all__ = ["AgreementReport", "compare_series", "fluid_vs_packet"]


@dataclass(frozen=True)
class AgreementReport:
    """Shape agreement between two queue trajectories.

    Attributes
    ----------
    nrmse:
        RMS error between the resampled series, normalised by the
        reference's peak-to-trough span.
    peak_ratio:
        ``peak(candidate) / peak(reference)``.
    mean_ratio:
        Ratio of time-averaged queue levels (steady-state agreement).
    reference_class, candidate_class:
        Oscillation classifications from
        :func:`repro.analysis.metrics.summarize_oscillation`.
    reference_period, candidate_period:
        Mean oscillation periods (None when fewer than two peaks).
    """

    nrmse: float
    peak_ratio: float
    mean_ratio: float
    reference_class: str
    candidate_class: str
    reference_period: float | None = None
    candidate_period: float | None = None

    @property
    def period_ratio(self) -> float | None:
        """``candidate_period / reference_period`` when both exist."""
        if not self.reference_period or not self.candidate_period:
            return None
        return self.candidate_period / self.reference_period

    def agrees(self, *, nrmse_tol: float = 0.3, peak_tol: float = 0.5) -> bool:
        """Loose shape-agreement verdict (defaults suit DES noise)."""
        return (
            self.nrmse <= nrmse_tol
            and (1.0 - peak_tol) <= self.peak_ratio <= (1.0 + peak_tol)
        )


def compare_series(
    t_ref: np.ndarray,
    v_ref: np.ndarray,
    t_cand: np.ndarray,
    v_cand: np.ndarray,
    *,
    reference_level: float,
    n_points: int = 500,
) -> AgreementReport:
    """Resample both series to a common grid and measure agreement."""
    t_ref = np.asarray(t_ref, float)
    v_ref = np.asarray(v_ref, float)
    t_cand = np.asarray(t_cand, float)
    v_cand = np.asarray(v_cand, float)
    if t_ref.size < 2 or t_cand.size < 2:
        raise ValueError("need at least two samples per series")
    t0 = max(t_ref[0], t_cand[0])
    t1 = min(t_ref[-1], t_cand[-1])
    if t1 <= t0:
        raise ValueError("series do not overlap in time")
    tt = np.linspace(t0, t1, n_points)
    r = np.interp(tt, t_ref, v_ref)
    c = np.interp(tt, t_cand, v_cand)
    span = float(r.max() - r.min()) or 1.0
    nrmse = float(np.sqrt(np.mean((r - c) ** 2))) / span
    peak_ref = float(r.max()) or 1.0
    mean_ref = float(r.mean()) or 1.0
    ref_summary = summarize_oscillation(tt, r, reference_level)
    cand_summary = summarize_oscillation(tt, c, reference_level)
    return AgreementReport(
        nrmse=nrmse,
        peak_ratio=float(c.max()) / peak_ref,
        mean_ratio=float(c.mean()) / mean_ref,
        reference_class=ref_summary.classification,
        candidate_class=cand_summary.classification,
        reference_period=ref_summary.period,
        candidate_period=cand_summary.period,
    )


def fluid_vs_packet(
    params: BCNParams,
    *,
    duration: float,
    frame_bits: int = 1500 * 8,
    initial_rate: float | None = None,
    regulator_mode: str = "fluid-exact",
    packet_engine: str = "reference",
) -> tuple[AgreementReport, dict]:
    """Run both substrates from matched initial conditions and compare.

    The DES uses the fluid-matched regulator semantics and unconditional
    positive feedback (the paper's idealisation); the fluid side is the
    event-accurate ``solve_ivp`` integrator
    (:func:`repro.fluid.integrate.simulate_fluid`) in ``"physical"``
    mode (buffer saturations included), so both sides see the same
    constraints.  ``packet_engine`` selects the packet side:
    ``"reference"`` (event-driven oracle), ``"batched"`` or
    ``"compiled"`` (frame-train batching, see
    :class:`~repro.simulation.network.BCNNetworkSimulator`).

    Returns the agreement report plus a dict of the raw series for
    plotting (keys ``fluid_t``, ``fluid_q``, ``packet_t``, ``packet_q``).
    """
    if initial_rate is None:
        initial_rate = 1.5 * params.capacity / params.n_flows
    net = BCNNetworkSimulator(
        params,
        frame_bits=frame_bits,
        initial_rate=initial_rate,
        regulator_mode=regulator_mode,
        fb_bits=None,
        require_association=False,
        positive_only_below_q0=False,
        random_sampling=True,
        enable_pause=False,
        engine=packet_engine,
    )
    packet = net.run(duration)

    y0 = params.n_flows * initial_rate - params.capacity
    fluid = simulate_fluid(
        params.normalized(),
        x0=-params.q0,
        y0=y0,
        t_max=duration,
        mode="physical",
        max_switches=10_000,
    )
    report = compare_series(
        fluid.t,
        fluid.queue(),
        packet.t,
        packet.queue,
        reference_level=params.q0,
    )
    series = {
        "fluid_t": fluid.t,
        "fluid_q": fluid.queue(),
        "packet_t": packet.t,
        "packet_q": packet.queue,
    }
    return report, series
