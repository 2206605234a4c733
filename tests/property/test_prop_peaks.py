"""Differential tests of the in-repo peak finder against scipy.

:func:`repro.analysis.metrics.find_peaks` reimplements
``scipy.signal.find_peaks`` (local maxima with plateaus at their
middle index, and the prominence filter) so that a run never imports
``scipy.signal``.  These tests hold it to scipy's indices on random
series rich in plateaus and ties; scipy is imported only here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import _peak_indices, find_peaks


def scipy_reference(t, v, frac):
    """The scipy-backed ``find_peaks`` the in-repo one replaced."""
    from scipy.signal import find_peaks as scipy_find_peaks

    if v.size < 3:
        return []
    span = float(v.max() - v.min())
    prominence = frac * span if span > 0 else None
    idx, _ = scipy_find_peaks(v, prominence=prominence or None)
    return [(float(t[i]), float(v[i])) for i in idx]


#: small integers: many ties and plateaus
int_series = st.lists(st.integers(min_value=-3, max_value=3), max_size=60)
#: runs of repeated values: long plateaus, at the ends too
run_series = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6),
              st.integers(min_value=1, max_value=5)),
    max_size=25,
).map(lambda runs: [v for v, n in runs for _ in range(n)])
#: finite floats, some rounded onto a coarse grid to force ties
float_series = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), max_size=80)
rounded_series = float_series.map(lambda xs: [round(x, -2) for x in xs])
series = st.one_of(int_series, run_series, float_series, rounded_series)
fractions = st.one_of(st.just(0.0), st.just(1.0),
                      st.floats(min_value=0.0, max_value=1.0))


@given(values=series, frac=fractions)
@settings(max_examples=400, deadline=None)
def test_find_peaks_matches_scipy(values, frac):
    v = np.asarray(values, dtype=float)
    t = np.arange(v.size) * 0.5
    assert find_peaks(t, v, min_prominence_frac=frac) == \
        scipy_reference(t, v, frac)


@given(values=series.filter(lambda xs: len(xs) >= 3),
       threshold=st.one_of(st.none(), st.just(0.0),
                           st.floats(min_value=0.0, max_value=10.0)))
@settings(max_examples=400, deadline=None)
def test_peak_indices_match_scipy_at_any_threshold(values, threshold):
    """Prominence ``None`` (no filter) and ``0`` (keep every peak) too."""
    from scipy.signal import find_peaks as scipy_find_peaks

    v = np.asarray(values, dtype=float)
    want = scipy_find_peaks(v, prominence=threshold)[0].tolist()
    assert _peak_indices(v, threshold) == want
