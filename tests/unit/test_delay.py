"""Unit tests for the delayed-feedback DDE integrator (repro.fluid.delay)."""

import math

import numpy as np
import pytest

from repro.baselines.linear_analysis import nyquist_delay_margin
from repro.core.parameters import NormalizedParams
from repro.experiments import d1_delay
from repro.experiments.presets import CASE2
from repro.fluid import delay
from repro.fluid.delay import critical_delay, simulate_delayed
from repro.fluid.integrate import simulate_fluid
from repro.kernels import _backend, get_backend

requires_compiled = pytest.mark.skipif(
    not get_backend().compiled,
    reason="no compiled backend (cffi + C compiler) available",
)


@pytest.fixture(params=["numpy", pytest.param("cffi", marks=requires_compiled)])
def tier(request, monkeypatch):
    """Run the test on the python loop (numpy tier) and on ``k_delayed``."""
    backend = (_backend.KernelBackend() if request.param == "numpy"
               else _backend._CffiKernels())
    monkeypatch.setattr(_backend, "_BACKEND", backend)
    return request.param


def norm(**overrides):
    config = dict(a=2.0, b=0.02, k=1.0, capacity=100.0, q0=10.0,
                  buffer_size=1e9)
    config.update(overrides)
    return NormalizedParams(**config)


class TestIntegrator:
    def test_tiny_delay_matches_undelayed(self):
        p = norm()
        delayed = simulate_delayed(p, tau=1e-4, t_max=10.0)
        undelayed = simulate_fluid(p, t_max=10.0, mode="nonlinear",
                                   max_switches=200)
        x_interp = np.interp(delayed.t, undelayed.t, undelayed.x)
        span = undelayed.x.max() - undelayed.x.min()
        assert np.max(np.abs(delayed.x - x_interp)) < 0.02 * span

    def test_initial_condition(self):
        p = norm()
        traj = simulate_delayed(p, tau=0.1, t_max=1.0, x0=-5.0, y0=2.0)
        assert traj.x[0] == -5.0
        assert traj.y[0] == 2.0

    def test_small_delay_stable_classification(self):
        traj = simulate_delayed(norm(), tau=0.05, t_max=60.0)
        assert traj.classify() == "stable"

    def test_large_delay_unstable_classification(self):
        traj = simulate_delayed(norm(), tau=1.2, t_max=60.0)
        assert traj.classify() == "unstable"

    def test_unstable_amplitude_grows_but_stays_bounded(self):
        # Beyond the margin the oscillation grows, yet the (y+C)
        # nonlinearity prevents true divergence: the trajectory remains
        # finite (it saturates into a cycle; see TestDelayInducedCycle).
        traj = simulate_delayed(norm(), tau=1.2, t_max=80.0)
        assert np.isfinite(traj.x).all()
        # saturation happens within a few rounds, so compare the very
        # first excursion against the late amplitude
        early = np.abs(traj.x[traj.t < 2.0]).max()
        late = np.abs(traj.x[traj.t > 60.0]).max()
        assert late > 2.0 * early

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_delayed(norm(), tau=0.0, t_max=1.0)
        with pytest.raises(ValueError):
            simulate_delayed(norm(), tau=0.01, t_max=1.0, step=0.02)


class TestCriticalDelay:
    def test_matches_nyquist_margin(self):
        p = norm()
        margin = nyquist_delay_margin(p.n_increase, p.k)
        tau_c = critical_delay(p, tau_lo=0.1 * margin, tau_hi=2.5 * margin,
                               t_max=60.0, iterations=7)
        assert tau_c == pytest.approx(margin, rel=0.15)

    def test_bracket_validation(self):
        p = norm()
        with pytest.raises(ValueError):
            critical_delay(p, tau_lo=1.2, tau_hi=2.0, t_max=40.0)
        with pytest.raises(ValueError):
            critical_delay(p, tau_lo=0.01, tau_hi=0.02, t_max=40.0)


class TestDelayInducedCycle:
    def test_growth_saturates(self):
        """Past the margin the (y+C) nonlinearity caps the amplitude:
        an attracting limit cycle, not divergence to infinity."""
        p = norm()
        traj = simulate_delayed(p, tau=0.8, t_max=250.0)
        late = np.abs(traj.x[traj.t > 150.0])
        assert late.max() < 50.0 * p.q0  # bounded
        assert late.max() > 2.0 * p.q0   # but large: a real oscillation


class TestSeamValidation:
    """Bad arguments fail loudly, naming the argument, on both tiers."""

    @pytest.mark.parametrize("kwargs, name", [
        ({"tau": 0.0}, "tau"),
        ({"tau": -0.1}, "tau"),
        ({"tau": math.nan}, "tau"),
        ({"tau": math.inf}, "tau"),
        ({"t_max": -1.0}, "t_max"),
        ({"t_max": 0.0}, "t_max"),
        ({"t_max": math.inf}, "t_max"),
        ({"x0": math.nan}, "x0"),
        ({"x0": math.inf}, "x0"),
        ({"y0": -math.inf}, "y0"),
        ({"step": -0.01}, "step"),
        ({"step": 0.0}, "step"),
        ({"step": math.nan}, "step"),
        ({"step": 0.2}, "step"),  # exceeds the delay
    ])
    def test_simulate_delayed_rejects(self, tier, kwargs, name):
        args = {"tau": 0.1, "t_max": 1.0, **kwargs}
        with pytest.raises(ValueError, match=name):
            simulate_delayed(norm(), **args)

    @pytest.mark.parametrize("kwargs, name", [
        ({"iterations": -3}, "iterations"),
        ({"tau_lo": 0.0}, "tau_lo"),
        ({"tau_lo": math.nan}, "tau_lo"),
        ({"tau_hi": math.inf}, "tau_hi"),
        ({"tau_lo": 2.0, "tau_hi": 1.0}, "tau_lo"),
        ({"tau_lo": 1.0, "tau_hi": 1.0}, "tau_lo"),
    ])
    def test_critical_delay_rejects(self, tier, monkeypatch, kwargs, name):
        calls = []
        monkeypatch.setattr(delay, "simulate_delayed",
                            lambda *a, **k: calls.append(k))
        args = {"tau_lo": 0.1, "tau_hi": 2.0, "t_max": 40.0, **kwargs}
        with pytest.raises(ValueError, match=name):
            critical_delay(norm(), **args)
        assert calls == []  # rejected before any integration

    def test_critical_delay_rejects_bad_t_max(self, tier):
        with pytest.raises(ValueError, match="t_max"):
            critical_delay(norm(), tau_lo=0.1, tau_hi=2.0, t_max=-1.0)


def _arrays(traj):
    return tuple(a.tobytes() for a in (traj.t, traj.x, traj.y))


@requires_compiled
class TestCompiledKernel:
    """``k_delayed`` against its oracle, ``_simulate_delayed_python``."""

    def _tiers(self, monkeypatch, params, **kwargs):
        monkeypatch.setattr(_backend, "_BACKEND", _backend._CffiKernels())
        fast = simulate_delayed(params, **kwargs)
        monkeypatch.setattr(_backend, "_BACKEND", _backend.KernelBackend())
        return fast, simulate_delayed(params, **kwargs)

    def test_d1_calls_are_byte_equal(self, monkeypatch):
        monkeypatch.setattr(_backend, "_BACKEND", _backend._CffiKernels())
        seen = []
        compiled = delay._simulate_delayed_compiled

        def spy(backend, *args):
            out = compiled(backend, *args)
            seen.append((args, out))
            return out

        monkeypatch.setattr(delay, "_simulate_delayed_compiled", spy)
        d1_delay.run(render_plots=False)
        assert len(seen) == 17  # 5 sweep points, 11 bisection runs, 1 cycle
        for args, out in seen:
            oracle = delay._simulate_delayed_python(*args)
            assert [a.tobytes() for a in out] == \
                [a.tobytes() for a in oracle]

    def test_early_stop_on_divergence(self, monkeypatch):
        fast, oracle = self._tiers(monkeypatch, CASE2, tau=20.0, t_max=200.0,
                                   step=0.1)
        assert fast.t.size == oracle.t.size == 278  # of 2,001
        assert _arrays(fast) == _arrays(oracle)
        assert fast.classify() == oracle.classify() == "unstable"

    def test_delay_of_one_step(self, monkeypatch):
        fast, oracle = self._tiers(monkeypatch, norm(), tau=0.01, t_max=5.0,
                                   step=0.01)
        assert fast.t.size == 501
        assert _arrays(fast) == _arrays(oracle)

    def test_unallocatable_trajectory_raises_memory_error(self, monkeypatch):
        monkeypatch.setattr(_backend, "_BACKEND", _backend._CffiKernels())
        with pytest.raises(MemoryError, match="cannot allocate"):
            simulate_delayed(norm(), tau=1.0, t_max=1e300, step=1.0)
