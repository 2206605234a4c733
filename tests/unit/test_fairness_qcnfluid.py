"""Unit tests for the fairness dynamics and the QCN fluid model."""

import numpy as np
import pytest

from repro.analysis.fairness import (
    TwoFlowTrajectory,
    fairness_trajectory,
    simulate_two_flows,
)
from repro.analysis.metrics import jain_index
from repro.baselines.qcn_fluid import (
    QCNFluidParams,
    compare_bcn_qcn_fluid,
    simulate_qcn_fluid,
)
from repro.core.parameters import BCNParams, paper_example_params


def gentle_params():
    return BCNParams(capacity=1e9, n_flows=2, q0=2e6, buffer_size=16e6,
                     pm=0.1, gd=1e-5, ru=2000.0)


class TestTwoFlowFairness:
    def test_converges_to_fairness(self):
        traj = fairness_trajectory(gentle_params(), imbalance=4.0, t_max=3.0)
        assert traj.final_jain() > 0.999
        assert traj.gap_series()[-1] < 0.01

    def test_jain_series_is_jain_index_bit_for_bit(self):
        traj = fairness_trajectory(gentle_params(), imbalance=4.0, t_max=3.0)
        # a zero pair takes jain_index's zero-denominator branch
        traj = TwoFlowTrajectory(traj.params,
                                 np.append(traj.t, traj.t[-1] + 1.0),
                                 np.append(traj.q, 0.0),
                                 np.append(traj.r1, 0.0),
                                 np.append(traj.r2, 0.0))
        want = np.array([jain_index(np.array([a, b]))
                         for a, b in zip(traj.r1, traj.r2)])
        got = traj.jain_series()
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert traj.final_jain() == want[-1] == 1.0

    def test_symmetric_start_stays_symmetric(self):
        p = gentle_params()
        traj = simulate_two_flows(p, r1_0=5e8, r2_0=5e8, t_max=1.0)
        assert np.allclose(traj.r1, traj.r2, rtol=1e-6)

    def test_total_rate_tracks_capacity(self):
        traj = fairness_trajectory(gentle_params(), imbalance=3.0, t_max=3.0)
        util = traj.utilization_series()
        assert util[traj.t > 1.0].mean() == pytest.approx(1.0, abs=0.1)

    def test_queue_respects_buffer(self):
        p = gentle_params()
        traj = simulate_two_flows(p, r1_0=0.9e9, r2_0=0.9e9, t_max=2.0)
        assert traj.q.max() <= p.buffer_size + 1e-6
        assert traj.q.min() >= -1e-6

    def test_rates_stay_nonnegative(self):
        traj = fairness_trajectory(gentle_params(), imbalance=10.0, t_max=3.0)
        assert traj.r1.min() >= 0.0
        assert traj.r2.min() >= 0.0

    def test_imbalance_validation(self):
        with pytest.raises(ValueError):
            fairness_trajectory(gentle_params(), imbalance=0.0, t_max=1.0)

    def test_gap_is_monotone_in_envelope(self):
        """The round-to-round gap envelope shrinks (fairness progress)."""
        traj = fairness_trajectory(gentle_params(), imbalance=4.0, t_max=3.0)
        gap = traj.gap_series()
        thirds = np.array_split(gap, 3)
        assert thirds[0].max() > thirds[1].max() > thirds[2].max()


class TestQCNFluid:
    def params(self, **overrides):
        config = dict(capacity=10e9, n_flows=50, q0=2.5e6,
                      buffer_size=20e6)
        config.update(overrides)
        return QCNFluidParams(**config)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.params(q0=30e6)
        with pytest.raises(ValueError):
            self.params(capacity=0.0)

    def test_sigma_unit_default(self):
        assert self.params().effective_sigma_unit == pytest.approx(
            2.5e6 / 16.0)

    def test_overload_start_settles_near_q0(self):
        traj = simulate_qcn_fluid(self.params(), initial_rate=1.5 * 10e9 / 50,
                                  t_max=0.3)
        assert traj.converged_near(2.5e6, rtol=0.5)
        assert traj.q.max() <= 20e6 + 1e-6

    def test_negative_only_feedback_sawtooth(self):
        """QCN hunts: the settled queue oscillates (CNMs cut, AI refills)."""
        traj = simulate_qcn_fluid(self.params(), initial_rate=1.5 * 10e9 / 50,
                                  t_max=0.3)
        tail = traj.q[traj.t > 0.2]
        assert tail.std() > 0.05 * tail.mean()

    def test_rate_floor_respected(self):
        traj = simulate_qcn_fluid(self.params(), initial_rate=3e8, t_max=0.1)
        assert traj.r.min() >= 0.0

    def test_compare_helper_shapes(self):
        out = compare_bcn_qcn_fluid(paper_example_params(), duration=0.15)
        assert out["bcn_t"].shape == out["bcn_q"].shape
        assert out["qcn_t"].shape == out["qcn_q"].shape
        assert out["bcn_peak"] > 0
        assert out["qcn_peak"] > 0
        # BCN's positive feedback reins the transient in sooner here
        assert out["bcn_peak"] <= out["qcn_peak"] + 1e-6
