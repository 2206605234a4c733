"""Unit tests for the baseline schemes (repro.baselines)."""

import math

import pytest

from repro.baselines.aimd import AIMDParams, run_aimd_dumbbell
from repro.baselines.bcn import run_bcn_dumbbell
from repro.baselines.common import PacedSource, QueuedPort
from repro.baselines.e2cm import E2CMParams, run_e2cm_dumbbell
from repro.baselines.fera import FERAParams, run_fera_dumbbell
from repro.baselines.linear_analysis import (
    gain_crossover,
    linear_verdict,
    nyquist_delay_margin,
    routh_hurwitz_stable,
)
from repro.baselines.qcn import CNMessage, QCNParams, QCNRegulator, run_qcn_dumbbell
from repro.core.parameters import BCNParams, paper_example_params
from repro.simulation.engine import Simulator
from repro.simulation.frames import EthernetFrame


CAP, NFLOWS, Q0, BUF = 1e8, 4, 1e5, 1e6


class TestCommonHarness:
    def test_queued_port_serves_fifo(self):
        sim = Simulator()
        out = []
        port = QueuedPort(sim, capacity=8000.0, buffer_bits=1e6,
                          forward=lambda f: out.append((sim.now, f.src)))
        for i in range(2):
            port.receive(EthernetFrame(src=i, dst="sink", size_bits=8000,
                                       flow_id=i))
        sim.run()
        assert out == [(1.0, 0), (2.0, 1)]

    @pytest.mark.parametrize("capacity", [math.nan, math.inf, 0.0])
    def test_queued_port_rejects_a_capacity_that_is_not_finite_positive(
            self, capacity):
        with pytest.raises(ValueError, match="finite and positive"):
            QueuedPort(Simulator(), capacity=capacity, buffer_bits=1e6)

    def test_paced_source_clamps(self):
        sim = Simulator()
        source = PacedSource(sim, address=0, rate=100.0, send=lambda f: None,
                             min_rate=10.0, max_rate=1000.0)
        source.set_rate(5.0)
        assert source.rate == 10.0
        source.set_rate(5000.0)
        assert source.rate == 1000.0

    def test_paced_source_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            PacedSource(Simulator(), address=0, rate=0.0, send=lambda f: None)


class TestQCN:
    def params(self, **overrides):
        config = dict(capacity=CAP, n_flows=NFLOWS, q0=Q0, buffer_bits=BUF,
                      sample_interval_bits=80e3, bc_limit_bits=80e3)
        config.update(overrides)
        return QCNParams(**config)

    def test_regulator_decrease_and_target(self):
        sim = Simulator()
        source = PacedSource(sim, address=0, rate=1e7, send=lambda f: None)
        reg = QCNRegulator(self.params(), source)
        reg.on_cnm(CNMessage(da=0, fb_quantized=32, sent_at=0.0))
        assert source.rate == pytest.approx(1e7 * (1 - 32 / 128))
        assert reg.target_rate == 1e7

    def test_fast_recovery_averages_towards_target(self):
        sim = Simulator()
        source = PacedSource(sim, address=0, rate=1e7, send=lambda f: None)
        reg = QCNRegulator(self.params(), source)
        reg.on_cnm(CNMessage(da=0, fb_quantized=64, sent_at=0.0))
        halved = source.rate
        reg.on_bits_sent(80e3)  # one byte-counter cycle
        assert source.rate == pytest.approx((halved + 1e7) / 2)

    def test_active_increase_after_fast_recovery(self):
        sim = Simulator()
        source = PacedSource(sim, address=0, rate=1e7, send=lambda f: None,
                             max_rate=1e9)
        p = self.params(fast_recovery_cycles=2, r_ai=1e6)
        reg = QCNRegulator(p, source)
        reg.on_cnm(CNMessage(da=0, fb_quantized=64, sent_at=0.0))
        for _ in range(3):
            reg.on_bits_sent(80e3)
        assert reg.target_rate == pytest.approx(1e7 + 1e6)

    def test_dumbbell_run(self):
        res = run_qcn_dumbbell(self.params(), 0.1, frame_bits=8000)
        assert res.scheme == "qcn"
        assert res.utilization() > 0.3
        assert res.control_messages > 0

    def test_fb_max(self):
        assert self.params(fb_bits=6).fb_max == 32


class TestFERA:
    def params(self, **overrides):
        config = dict(capacity=CAP, n_flows=NFLOWS, buffer_bits=BUF, q0=Q0,
                      measurement_interval=2e-3)
        config.update(overrides)
        return FERAParams(**config)

    def test_converges_to_fair_share(self):
        res = run_fera_dumbbell(self.params(), 0.2, frame_bits=8000)
        fair = 0.95 * CAP / NFLOWS
        for rate in res.per_source_rate:
            assert rate == pytest.approx(fair, rel=0.25)
        assert res.jain_fairness() > 0.99

    def test_keeps_queue_small(self):
        res = run_fera_dumbbell(self.params(), 0.2, frame_bits=8000)
        assert res.queue_mean(settle=0.1) < Q0 * 3

    def test_no_drops(self):
        res = run_fera_dumbbell(self.params(), 0.2, frame_bits=8000)
        assert res.dropped_frames == 0


class TestE2CM:
    def params(self, **overrides):
        config = dict(capacity=CAP, n_flows=NFLOWS, q0=Q0, buffer_bits=BUF,
                      pm=0.1)
        config.update(overrides)
        return E2CMParams(**config)

    def test_blend_validation(self):
        with pytest.raises(ValueError):
            self.params(blend=1.5)

    def test_dumbbell_run(self):
        res = run_e2cm_dumbbell(self.params(), 0.1, frame_bits=8000)
        assert res.scheme == "e2cm"
        assert res.utilization() > 0.5

    def test_pure_explicit_blend_matches_fera_style(self):
        res = run_e2cm_dumbbell(self.params(blend=1.0), 0.2, frame_bits=8000)
        assert res.jain_fairness() > 0.9


class TestAIMD:
    def params(self):
        return AIMDParams(capacity=CAP, n_flows=NFLOWS, q0=Q0,
                          buffer_bits=BUF, control_interval=2e-3,
                          additive_step=1e6)

    def test_dumbbell_run(self):
        res = run_aimd_dumbbell(self.params(), 0.2, frame_bits=8000)
        assert res.scheme == "aimd"
        assert res.utilization() > 0.4
        assert res.jain_fairness() > 0.8  # AIMD converges to fairness

    def test_sawtooth_queue(self):
        res = run_aimd_dumbbell(self.params(), 0.3, frame_bits=8000)
        # The binary scheme oscillates; the recorder undersamples the
        # brief excursions above q0, so count half-level crossings.
        half = Q0 / 2
        crossings = ((res.queue[:-1] < half) & (res.queue[1:] >= half)).sum()
        assert crossings >= 2


class TestBCNAdapter:
    def test_common_shape(self):
        params = BCNParams(capacity=CAP, n_flows=NFLOWS, q0=Q0,
                           buffer_size=BUF, pm=0.1, ru=1e5)
        res = run_bcn_dumbbell(params, 0.1, frame_bits=8000)
        assert res.scheme == "bcn"
        assert res.control_messages >= 0
        assert res.t.shape == res.queue.shape


class TestLinearAnalysis:
    def test_routh_hurwitz_always_true_for_physical(self):
        assert routh_hurwitz_stable(paper_example_params())

    def test_gain_crossover_solves_equation(self):
        for n, k in [(1.6e9, 2e-8), (2.0, 1.0), (100.0, 0.05)]:
            w = gain_crossover(n, k)
            assert w**2 == pytest.approx(n * math.sqrt(1 + (k * w) ** 2),
                                         rel=1e-9)

    def test_delay_margin_formula(self):
        n, k = 2.0, 1.0
        w = gain_crossover(n, k)
        assert nyquist_delay_margin(n, k) == pytest.approx(
            math.atan(k * w) / w)

    def test_margin_shrinks_with_stiffer_loop(self):
        assert nyquist_delay_margin(1e6, 1e-4) < nyquist_delay_margin(1e2, 1e-4)

    def test_verdict_is_buffer_blind(self):
        p = paper_example_params()
        small = p.with_(buffer_size=5e6, q_sc=None)
        assert linear_verdict(p).stable == linear_verdict(small).stable

    def test_stable_with_delay(self):
        verdict = linear_verdict(paper_example_params())
        assert verdict.stable_with_delay(1e-12)
        assert not verdict.stable_with_delay(1.0)

    def test_crossover_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            gain_crossover(0.0, 1.0)
