"""The speed sampler times a region, samples inside it and cleans up."""

import signal
import time

from perfbench.common import CALIBRATION_BURST, SpeedSampler
from perfbench.workloads import PassResult


def test_region_samples_and_rescales():
    sampler = SpeedSampler()
    out = PassResult()
    with sampler.region(out):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
    inside = sampler.samples[CALIBRATION_BURST:-CALIBRATION_BURST]
    assert len(inside) >= 3
    assert out.loop_s == sum(inside)
    assert 0.2 < out.wall_s < 0.3 <= out.wall_s + out.loop_s
    assert out.ref_s > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
