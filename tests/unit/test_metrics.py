"""Unit tests for the analysis metrics (repro.analysis.metrics)."""

import numpy as np
import pytest

from repro.analysis.metrics import (
    amplitude_decay_ratio,
    find_peaks,
    jain_index,
    oscillation_period,
    overshoot,
    settling_time,
    summarize_oscillation,
    undershoot,
)


def damped_wave(decay=0.2, freq=2.0, n=2000, t_end=20.0, offset=1.0):
    t = np.linspace(0.0, t_end, n)
    return t, offset + np.exp(-decay * t) * np.cos(2 * np.pi * freq / t_end * t * t_end / t_end) * np.cos(freq * t)


class TestExcursions:
    def test_overshoot(self):
        assert overshoot(np.array([0.0, 1.5, 0.8]), 1.0) == pytest.approx(0.5)
        assert overshoot(np.array([0.0, 0.9]), 1.0) == 0.0
        assert overshoot(np.array([]), 1.0) == 0.0

    def test_undershoot(self):
        assert undershoot(np.array([2.0, 0.3, 1.0]), 1.0) == pytest.approx(0.7)
        assert undershoot(np.array([1.5, 2.0]), 1.0) == 0.0


class TestSettling:
    def test_settles_after_last_excursion(self):
        t = np.linspace(0.0, 10.0, 101)
        v = np.where(t < 4.0, 3.0, 1.0)
        assert settling_time(t, v, 1.0, band=0.5) == pytest.approx(4.0)

    def test_never_settles(self):
        t = np.linspace(0.0, 10.0, 101)
        v = np.full_like(t, 5.0)
        assert settling_time(t, v, 1.0, band=0.5) is None

    def test_always_inside(self):
        t = np.linspace(0.0, 10.0, 101)
        v = np.full_like(t, 1.1)
        assert settling_time(t, v, 1.0, band=0.5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            settling_time(np.array([0.0]), np.array([1.0, 2.0]), 0.0, band=1.0)
        with pytest.raises(ValueError):
            settling_time(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 0.0,
                          band=0.0)


class TestPeaks:
    def test_finds_sine_peaks(self):
        t = np.linspace(0.0, 4.0 * np.pi, 2000)
        peaks = find_peaks(t, np.sin(t))
        assert len(peaks) == 2
        assert peaks[0][0] == pytest.approx(np.pi / 2, abs=0.02)

    def test_prominence_filters_ripple(self):
        t = np.linspace(0.0, 4.0 * np.pi, 4000)
        v = np.sin(t) + 0.01 * np.sin(100.0 * t)
        noisy = find_peaks(t, v)
        clean = find_peaks(t, v, min_prominence_frac=0.05)
        assert len(noisy) > len(clean)
        assert len(clean) == 2

    def test_period(self):
        t = np.linspace(0.0, 20.0, 5000)
        v = np.sin(2 * np.pi * t / 3.0)
        assert oscillation_period(t, v) == pytest.approx(3.0, rel=0.02)

    def test_period_none_for_monotone(self):
        t = np.linspace(0.0, 5.0, 100)
        assert oscillation_period(t, t) is None

    def test_too_short_signal(self):
        assert find_peaks(np.array([0.0]), np.array([1.0])) == []

    def test_plateau_reported_at_its_middle(self):
        v = np.array([0.0, 2.0, 2.0, 2.0, 2.0, 1.0, 3.0, 3.0, 0.0])
        t = np.arange(v.size, dtype=float)
        assert find_peaks(t, v) == [(2.0, 2.0), (6.0, 3.0)]

    def test_plateau_at_the_end_is_not_a_peak(self):
        v = np.array([0.0, 1.0, 0.0, 2.0, 2.0])
        t = np.arange(v.size, dtype=float)
        assert find_peaks(t, v) == [(1.0, 1.0)]

    def test_prominence_measured_against_higher_base(self):
        # the 2.0 peak's bases are 1.5 (left, bounded by the 3.0 peak)
        # and 0.0 (right): prominence 0.5, which a 20% filter keeps
        v = np.array([0.0, 3.0, 1.5, 2.0, 0.0, 1.0, 0.0])
        t = np.arange(v.size, dtype=float)
        assert [p for p, _ in find_peaks(t, v, min_prominence_frac=0.15)] \
            == [1.0, 3.0, 5.0]
        assert [p for p, _ in find_peaks(t, v, min_prominence_frac=0.2)] \
            == [1.0, 5.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        v = np.array([0.0, 1.0, 0.0, bad, 0.0, bad])
        with pytest.raises(ValueError, match=r"values\[3\]"):
            find_peaks(np.arange(6.0), v)
        with pytest.raises(ValueError, match=r"values\[0\]"):
            find_peaks(np.array([0.0]), np.array([bad]))


class TestDecayRatio:
    def test_damped_oscillation_ratio(self):
        t = np.linspace(0.0, 20.0, 8000)
        decay = 0.15
        v = 1.0 + np.exp(-decay * t) * np.cos(2.0 * t)
        ratio = amplitude_decay_ratio(t, v, 1.0)
        period = np.pi  # between successive maxima of cos(2t)
        assert ratio == pytest.approx(np.exp(-decay * period), rel=0.05)

    def test_constant_oscillation_ratio_one(self):
        t = np.linspace(0.0, 20.0, 8000)
        v = 1.0 + np.cos(2.0 * t)
        assert amplitude_decay_ratio(t, v, 1.0) == pytest.approx(1.0, abs=0.02)

    def test_none_without_peaks(self):
        t = np.linspace(0.0, 5.0, 100)
        assert amplitude_decay_ratio(t, np.zeros_like(t), 1.0) is None


class TestJain:
    def test_equal_rates_give_one(self):
        assert jain_index(np.array([5.0, 5.0, 5.0])) == pytest.approx(1.0)

    def test_single_hog(self):
        assert jain_index(np.array([1.0, 0.0, 0.0, 0.0])) == pytest.approx(0.25)

    def test_all_zero_defined(self):
        assert jain_index(np.zeros(3)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_index(np.array([]))


class TestSummary:
    def test_converging_classification(self):
        t = np.linspace(0.0, 30.0, 8000)
        v = 1.0 + np.exp(-0.2 * t) * np.cos(2.0 * t)
        summary = summarize_oscillation(t, v, 1.0)
        assert summary.classification == "converging"
        assert summary.n_peaks >= 3

    def test_limit_cycle_classification(self):
        t = np.linspace(0.0, 30.0, 8000)
        v = 1.0 + np.cos(2.0 * t)
        assert summarize_oscillation(t, v, 1.0).classification == "limit_cycle"

    def test_diverging_classification(self):
        t = np.linspace(0.0, 10.0, 8000)
        v = 1.0 + np.exp(0.3 * t) * np.cos(4.0 * t)
        assert summarize_oscillation(t, v, 1.0).classification == "diverging"

    def test_monotone_classification(self):
        t = np.linspace(0.0, 10.0, 500)
        v = 1.0 - np.exp(-t)
        assert summarize_oscillation(t, v, 1.0).classification == "monotone"
