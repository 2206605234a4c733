"""Time-series metrics for queue/rate trajectories.

Quantifies the transient and steady behaviours the paper reasons about
qualitatively: overshoot past the reference, settling time into a band,
oscillation amplitude/period, geometric amplitude trend (the empirical
analogue of the return-map contraction) and Jain fairness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "overshoot",
    "undershoot",
    "settling_time",
    "find_peaks",
    "oscillation_period",
    "amplitude_decay_ratio",
    "jain_index",
    "OscillationSummary",
    "summarize_oscillation",
]


def overshoot(values: np.ndarray, reference: float) -> float:
    """Peak excursion above ``reference`` (0 if never exceeded)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    return max(0.0, float(values.max()) - reference)


def undershoot(values: np.ndarray, reference: float) -> float:
    """Deepest excursion below ``reference`` (0 if never below)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    return max(0.0, reference - float(values.min()))


def settling_time(
    t: np.ndarray, values: np.ndarray, reference: float, *, band: float
) -> float | None:
    """First time after which the signal stays within ``reference ± band``.

    Returns None if the signal never settles within the record.
    """
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    if t.shape != values.shape or t.size == 0:
        raise ValueError("t and values must be equal-length, non-empty")
    if band <= 0:
        raise ValueError("band must be positive")
    outside = np.abs(values - reference) > band
    if not outside.any():
        return float(t[0])
    last_out = int(np.max(np.nonzero(outside)))
    if last_out == t.size - 1:
        return None
    return float(t[last_out + 1])


def find_peaks(
    t: np.ndarray,
    values: np.ndarray,
    *,
    min_prominence_frac: float = 0.0,
) -> list[tuple[float, float]]:
    """Local maxima of a sampled signal as ``(t, value)`` pairs.

    ``min_prominence_frac`` filters out ripples: a peak must rise at
    least that fraction of the signal's span above its surroundings
    (scipy prominence).  0 keeps every strict local maximum.  The
    indices are those of ``scipy.signal.find_peaks``; ``values`` must
    be finite.
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ValueError(f"find_peaks: values[{bad[0]}] = {v[bad[0]]} is "
                         "not finite")
    if v.size < 3:
        return []
    span = float(v.max() - v.min())
    prominence = min_prominence_frac * span if span > 0 else None
    idx = _peak_indices(v, prominence or None)
    return [(float(t[i]), float(v[i])) for i in idx]


def _peak_indices(v: np.ndarray, min_prominence: float | None) -> list[int]:
    """``scipy.signal.find_peaks(v, prominence=min_prominence)[0]``.

    A peak is a sample, or a flat run of equal samples reported at its
    middle index ``(left + right) // 2``, with a strictly lower sample
    on each side.  Its prominence is its height above the higher of
    its two bases; a base is the lowest sample between the peak and
    the first strictly higher sample on that side (or the end).
    """
    change = np.flatnonzero(v[1:] != v[:-1]) + 1
    first = np.concatenate(([0], change))
    last = np.concatenate((change - 1, [v.size - 1]))
    runs = v[first]  # one value per run of equal samples
    # tops: runs above both neighbours, the two end runs included (an
    # end run is a peak's higher side but never a peak itself)
    tops = np.flatnonzero(np.concatenate(([True], runs[1:] > runs[:-1]))
                          & np.concatenate((runs[:-1] > runs[1:], [True])))
    inner = ((tops > 0) & (tops < runs.size - 1)).tolist()
    middle = ((first[tops] + last[tops]) // 2).tolist()
    if min_prominence is None:
        return [i for i, keep in zip(middle, inner) if keep]
    # The first strictly higher sample beside a peak lies on the slope of
    # the nearest strictly higher top, so each base is the lowest run
    # between the peak and that top: the tops' valleys suffice.
    heights = runs[tops].tolist()
    valleys = np.minimum.reduceat(runs, tops)[:-1].tolist()
    left = _bases(heights, valleys, float(runs[0]))
    right = _bases(heights[::-1], valleys[::-1], float(runs[-1]))[::-1]
    return [i for i, keep, h, lo, hi in zip(middle, inner, heights, left,
                                            right)
            if keep and h - max(lo, hi) >= min_prominence]


def _bases(heights: list[float], valleys: list[float],
           end: float) -> list[float]:
    """Lowest run between each top and the nearest strictly higher top
    before it (or the start, whose value is ``end``); ``valleys[i]`` is
    the lowest run between tops ``i`` and ``i + 1``.  One monotonic
    stack pass: each entry is a top's height and the lowest run from it
    up to the next entry."""
    stack_h, stack_low = [math.inf], [end]
    bases = []
    for i, h in enumerate(heights):
        if i:
            stack_low[-1] = min(stack_low[-1], valleys[i - 1])
        low = math.inf
        while stack_h[-1] <= h:
            stack_h.pop()
            low = min(low, stack_low.pop())
        stack_low[-1] = min(stack_low[-1], low)
        bases.append(stack_low[-1])
        stack_h.append(h)
        stack_low.append(math.inf)
    return bases


def oscillation_period(
    t: np.ndarray,
    values: np.ndarray,
    *,
    min_prominence_frac: float = 0.05,
) -> float | None:
    """Mean spacing between prominent local maxima (None if < 2 peaks).

    Prominence filtering (default 5% of the signal span) ignores
    sampling ripples, which matters for DES queue traces.
    """
    peaks = find_peaks(t, values, min_prominence_frac=min_prominence_frac)
    if len(peaks) < 2:
        return None
    times = np.array([p[0] for p in peaks])
    return float(np.mean(np.diff(times)))


def amplitude_decay_ratio(
    t: np.ndarray, values: np.ndarray, reference: float
) -> float | None:
    """Geometric ratio of successive peak excursions above ``reference``.

    The empirical analogue of the phase-plane return-map contraction:
    below 1 the oscillation decays, ~1 indicates a limit cycle, above 1
    divergence.  None with fewer than two peaks above the reference.
    """
    peaks = [
        v - reference
        for _, v in find_peaks(t, values, min_prominence_frac=0.05)
        if v > reference
    ]
    if len(peaks) < 2:
        return None
    ratios = [b / a for a, b in zip(peaks, peaks[1:]) if a > 0]
    if not ratios:
        return None
    return float(np.exp(np.mean(np.log(ratios))))


def jain_index(rates: np.ndarray) -> float:
    """Jain's fairness index ``(sum r)^2 / (n sum r^2)`` in ``(0, 1]``."""
    r = np.asarray(rates, dtype=float)
    if r.size == 0:
        raise ValueError("need at least one rate")
    denom = r.size * float(np.sum(r * r))
    if denom == 0.0:
        return 1.0
    return float(np.sum(r)) ** 2 / denom


@dataclass(frozen=True)
class OscillationSummary:
    """Compact description of a (possibly) oscillatory trajectory."""

    peak: float
    trough: float
    n_peaks: int
    period: float | None
    decay_ratio: float | None

    @property
    def classification(self) -> str:
        """``"converging"``, ``"limit_cycle"``, ``"diverging"`` or ``"monotone"``."""
        if self.decay_ratio is None:
            return "monotone"
        if self.decay_ratio > 1.02:
            return "diverging"
        if self.decay_ratio >= 0.98:
            return "limit_cycle"
        return "converging"


def summarize_oscillation(
    t: np.ndarray, values: np.ndarray, reference: float
) -> OscillationSummary:
    """Summarise the oscillatory structure of a trajectory."""
    v = np.asarray(values, dtype=float)
    peaks = find_peaks(t, v, min_prominence_frac=0.05)
    return OscillationSummary(
        peak=float(v.max()) if v.size else math.nan,
        trough=float(v.min()) if v.size else math.nan,
        n_peaks=len(peaks),
        period=oscillation_period(t, v),
        decay_ratio=amplitude_decay_ratio(t, v, reference),
    )
