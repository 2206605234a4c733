"""Unit tests for the batch fluid kernel and its limit-cycle fast path.

The heavy differential coverage (batch vs ``solve_ivp`` on random
parameters) lives in ``tests/property/test_prop_batch_fluid.py``; this
module pins the deterministic contracts: step/horizon heuristics, edge
cases of the ensemble state machine, input validation, the kernel-tier
dispatch of :func:`simulate_fluid_batch` (the C kernel by default on
the compiled tier, byte for byte the numpy loop on the experiments'
own calls), and — the point of the fast path — that
:func:`repro.core.limit_cycle.find_limit_cycle` locates the *same*
cycle through the batched bracket scan as through the sequential
reference scan.
"""

import gc
import math
import weakref

import numpy as np
import pytest

import repro.core.limit_cycle as lc
import repro.fluid.batch as batch_mod
import repro.kernels.fluid as kernel_fluid
from repro.core.limit_cycle import amplitude_scan, find_limit_cycle
from repro.core.parameters import NormalizedParams
from repro.experiments.presets import CASE1, CASE1_SLOW, scale_free
from repro.experiments.v2_fluid_vs_packet import validation_params
from repro.fluid.batch import (
    batch_return_map,
    default_horizon,
    default_time_step,
    simulate_fluid_batch,
    switched_derivatives,
)
from repro.kernels import KernelBackend, _backend, get_backend
from tests.unit.test_kernels import _assert_same_result

requires_compiled = pytest.mark.skipif(
    not get_backend().compiled,
    reason="no compiled backend (cffi + C compiler) available",
)


def norm(**overrides) -> NormalizedParams:
    base = dict(a=2.0, b=0.02, k=0.1, capacity=100.0, q0=10.0,
                buffer_size=200.0)
    base.update(overrides)
    return NormalizedParams(**base)


class TestHeuristics:
    def test_default_time_step_resolves_fastest_spiral(self):
        p = norm()
        dt = default_time_step(p)
        omega = math.sqrt(max(p.n_increase, p.n_decrease))
        # ~300 steps per period of the fastest focus
        assert 2.0 * math.pi / (omega * dt) > 250.0

    def test_default_time_step_scale_knob(self):
        p = norm()
        assert default_time_step(p, dt_scale=0.04) == pytest.approx(
            2.0 * default_time_step(p, dt_scale=0.02)
        )

    def test_default_horizon_reaches_convergence_ball(self):
        p = norm()
        t_max = default_horizon(p)
        res = simulate_fluid_batch(p, np.array([-0.8 * p.q0]), 0.0,
                                   t_max=t_max, max_switches=500)
        assert bool(res.converged[0])

    def test_default_horizon_capped_by_max_switches(self):
        p = norm()
        assert default_horizon(p, max_switches=4) < default_horizon(p)


class TestEnsembleEdgeCases:
    def test_start_inside_convergence_ball_freezes_at_t0(self):
        p = norm()
        res = simulate_fluid_batch(p, np.array([0.0]), np.array([0.0]),
                                   t_max=5.0)
        assert bool(res.converged[0])
        assert res.end_reason[0] == "converged"
        assert res.t_end[0] == 0.0
        assert int(res.switch_counts[0]) == 0

    def test_physical_pinned_start_registers_empty_buffer(self):
        p = norm()
        res = simulate_fluid_batch(
            p, np.array([-p.q0]), np.array([-0.2 * p.capacity]),
            t_max=5.0, mode="physical",
        )
        assert bool(res.hit_buffer_empty()[0])
        # the pinned row rejoins the interior flow and keeps integrating
        assert res.t_end[0] > 0.0

    def test_scalar_starts_broadcast_to_ensemble(self):
        p = norm()
        res = simulate_fluid_batch(p, -p.q0, np.array([0.0, 1.0, 2.0]),
                                   t_max=1.0)
        assert res.n_rows == 3
        np.testing.assert_allclose(res.x[0], -p.q0)

    def test_step_budget_guard(self):
        with pytest.raises(ValueError, match="steps"):
            simulate_fluid_batch(norm(), np.array([-1.0]), t_max=1e9)


class TestSwitchedDerivatives:
    def test_field_matches_region_laws_off_the_line(self):
        p = norm()
        states = np.array([[5.0, 2.0],    # s > 0: decrease law
                           [-5.0, 2.0]])  # s < 0: increase law
        d = switched_derivatives(p, states)
        s = states[:, 0] + p.k * states[:, 1]
        np.testing.assert_allclose(d[:, 0], states[:, 1])
        assert d[0, 1] == pytest.approx(
            -p.b * (states[0, 1] + p.capacity) * s[0])
        assert d[1, 1] == pytest.approx(-p.a * s[1])

    def test_on_line_acceleration_vanishes(self):
        # exactly on s = 0 the acceleration is -coef * s = 0
        p = norm()
        state = np.array([-p.k * -5.0, -5.0])
        d = switched_derivatives(p, state)
        assert d[0] == -5.0
        assert d[1] == 0.0


class TestBatchReturnMapValidation:
    def test_rejects_nonpositive_ordinates(self):
        with pytest.raises(ValueError, match="y > 0"):
            batch_return_map(norm(), np.array([10.0, -1.0]))

    def test_rejects_ordinates_at_capacity(self):
        p = norm()
        with pytest.raises(ValueError, match="y < C"):
            batch_return_map(p, np.array([p.capacity]))

    def test_requires_case1(self):
        p = norm(a=0.5, b=0.005, k=3.0)  # node-type regions
        with pytest.raises(ValueError, match="Case 1"):
            batch_return_map(p, np.array([10.0]))


class TestFindLimitCycleScanParity:
    def test_no_cycle_exists(self):
        # Proposition 1: the nonlinear Case-1 map contracts everywhere,
        # so the generic outcome is None, and the reference map agrees
        # that P(y) - y keeps one sign over the scanned ordinates.
        assert find_limit_cycle(CASE1_SLOW) is None
        ys = np.geomspace(1e-4, 0.95, 7) * CASE1_SLOW.capacity
        assert all(lc.return_map(CASE1_SLOW, float(y)) < y for y in ys)

    def test_amplitude_scan_matches_return_map(self):
        p = CASE1_SLOW
        ys = np.geomspace(0.01, 0.8, 9) * p.capacity
        fast = amplitude_scan(p, ys)
        slow = [lc.contraction_ratio(p, float(y)) for y in ys]
        np.testing.assert_array_equal(fast[:, 0], ys)
        np.testing.assert_allclose(fast[:, 1], slow, rtol=0, atol=1e-3)

    @staticmethod
    def _patch_synthetic_cycle(monkeypatch, batch_values=None,
                               batch_error=None):
        """Install P(y) = 0.5 y + 0.2 C in both scan backends.

        The real dynamics have no interior cycle (Proposition 1), so the
        found-cycle path is exercised against a synthetic contraction
        map with the isolated fixed point ``y* = 0.4 C``.
        """
        c = CASE1_SLOW.capacity

        def fake_map(params, y, *, mode="nonlinear", t_max=None,
                     with_orbit=False):
            out = 0.5 * y + 0.2 * c
            if with_orbit:
                orbit = np.array([[0.0, -y, y], [1.0, y, -y]])
                return out, 1.0, orbit
            return out

        def fake_batch(params, ys, *, mode="nonlinear", **kwargs):
            ys = np.asarray(ys, dtype=float)
            if batch_error is not None:
                raise batch_error
            if batch_values is not None:
                return batch_values(ys)
            return 0.5 * ys + 0.2 * c

        monkeypatch.setattr(lc, "return_map", fake_map)
        monkeypatch.setattr(batch_mod, "batch_return_map", fake_batch)
        return 0.4 * c

    def test_batched_scan_finds_same_cycle_amplitude(self, monkeypatch):
        y_star = self._patch_synthetic_cycle(monkeypatch)
        cycle = find_limit_cycle(CASE1_SLOW)
        assert cycle is not None
        tol = 1e-3 * CASE1_SLOW.capacity
        assert abs(cycle.entry_ordinate - y_star) < tol
        _, _, orbit = lc.return_map(CASE1_SLOW, cycle.entry_ordinate,
                                    with_orbit=True)
        np.testing.assert_array_equal(cycle.orbit, orbit)
        assert cycle.stable and cycle.derivative == pytest.approx(0.5)

    def test_batch_scan_falls_back_on_runtime_error(self, monkeypatch):
        y_star = self._patch_synthetic_cycle(
            monkeypatch, batch_error=RuntimeError("no re-cross"))
        cycle = find_limit_cycle(CASE1_SLOW)
        assert cycle is not None
        assert cycle.entry_ordinate == pytest.approx(y_star, abs=1e-6)

    def test_spurious_batch_bracket_defers_to_reference(self, monkeypatch):
        # Batch values shifted so the sign change lands where the
        # reference residual has none: the re-check must reject the
        # bracket and re-scan sequentially, still finding y*.
        c = CASE1_SLOW.capacity
        y_star = self._patch_synthetic_cycle(
            monkeypatch,
            batch_values=lambda ys: 0.5 * ys + 0.05 * c,  # fixed pt 0.1 C
        )
        cycle = find_limit_cycle(CASE1_SLOW)
        assert cycle is not None
        assert cycle.entry_ordinate == pytest.approx(y_star, abs=1e-6)


# -- kernel-tier dispatch ----------------------------------------------------


@pytest.fixture
def c_kernel_calls(monkeypatch):
    """Count the calls that reach the C kernel's wrapper."""
    calls = []
    original = kernel_fluid.simulate_fluid_batch_compiled

    def spy(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(kernel_fluid, "simulate_fluid_batch_compiled", spy)
    return calls


def _fig3_cycle():
    p = CASE1_SLOW
    p_cycle = scale_free(p.a, p.b, k=1e-6, capacity=p.capacity, q0=p.q0,
                         buffer_size=p.buffer_size)
    return (p_cycle, np.array([-0.8, -0.5]) * p.q0, 0.0,
            dict(t_max=30.0, mode="nonlinear", max_switches=200))


def _fig7_p0():
    p = CASE1_SLOW
    return scale_free(p.a, p.b, k=1e-6, capacity=p.capacity, q0=p.q0,
                      buffer_size=1e6 * p.q0)


def _fig7_family():
    p0 = _fig7_p0()
    return (p0, np.array([-0.8, -0.5, -0.25]) * p0.q0, 0.0,
            dict(t_max=40.0, mode="linearized", max_switches=200))


def _fig7_nonlinear_orbit():
    p0 = _fig7_p0()
    return (p0, np.array([-0.8 * p0.q0]), 0.0,
            dict(t_max=40.0, mode="nonlinear", max_switches=200))


class TestKernelTierDispatch:
    @requires_compiled
    def test_default_runs_the_c_kernel_on_the_compiled_tier(
            self, c_kernel_calls):
        p, x0, y0, kw = _fig3_cycle()
        simulate_fluid_batch(p, x0, y0, **kw)
        assert len(c_kernel_calls) == 1
        simulate_fluid_batch(p, x0, y0, fluid_method="numpy", **kw)
        assert len(c_kernel_calls) == 1  # the numpy pin never reaches C

    def test_default_runs_the_numpy_loop_on_the_numpy_tier(
            self, monkeypatch, c_kernel_calls):
        monkeypatch.setattr(_backend, "_BACKEND", KernelBackend())
        p, x0, y0, kw = _fig3_cycle()
        got = simulate_fluid_batch(p, x0, y0, **kw)
        want = simulate_fluid_batch(p, x0, y0, fluid_method="numpy", **kw)
        assert c_kernel_calls == []
        _assert_same_result(got, want)

    @requires_compiled
    @pytest.mark.parametrize("call", [_fig3_cycle, _fig7_family,
                                      _fig7_nonlinear_orbit],
                             ids=["fig3-cycle", "fig7-family-linearized",
                                  "fig7-orbit-nonlinear"])
    def test_default_equals_the_numpy_pin_on_the_figure_calls(
            self, call, c_kernel_calls):
        p, x0, y0, kw = call()
        got = simulate_fluid_batch(p, x0, y0, **kw)
        want = simulate_fluid_batch(p, x0, y0, fluid_method="numpy", **kw)
        assert len(c_kernel_calls) == 1
        _assert_same_result(got, want)

    @requires_compiled
    def test_default_tracks_the_numpy_pin_on_the_v6_ensemble(
            self, c_kernel_calls):
        params = validation_params()
        y0 = np.array([1.0, 0.9, 1.1]) * 0.5 * params.capacity
        kw = dict(t_max=0.3, mode="physical", max_switches=4000)
        got = simulate_fluid_batch(params.normalized(), -params.q0, y0, **kw)
        want = simulate_fluid_batch(params.normalized(), -params.q0, y0,
                                    fluid_method="numpy", **kw)
        assert len(c_kernel_calls) == 1
        # physical mode's pinned closed forms: libm against numpy's exp
        _assert_same_result(got, want, exact_y=False)
        np.testing.assert_allclose(got.y, want.y, rtol=1e-13, atol=0.0)

    @requires_compiled
    def test_fig7_return_map_is_the_same_on_both_tiers(
            self, monkeypatch, c_kernel_calls):
        p = CASE1_SLOW
        ys = np.geomspace(1e-3 * p.capacity, 0.9 * p.capacity, 10)
        for mode in ("nonlinear", "linearized"):
            got = batch_return_map(p, ys, mode=mode)
            with monkeypatch.context() as numpy_tier:
                numpy_tier.setattr(_backend, "_BACKEND", KernelBackend())
                want = batch_return_map(p, ys, mode=mode)
            assert got.tobytes() == want.tobytes(), mode
        assert len(c_kernel_calls) == 2

    def test_event_overflow_falls_back_to_the_numpy_loop(self, monkeypatch):
        class _Overflowing(KernelBackend):
            compiled = True

            def fluid_rows(self, lo, hi, *args):
                assert (lo, hi) == (0, 2)  # two rows stay on one thread
                args[-1][:] = (1, 1)  # a row ran out of event slots

        p, x0, y0, kw = _fig3_cycle()
        want = simulate_fluid_batch(p, x0, y0, fluid_method="numpy", **kw)
        monkeypatch.setattr(_backend, "_BACKEND", _Overflowing())
        got = simulate_fluid_batch(p, x0, y0, **kw)
        _assert_same_result(got, want)

    def test_compiled_spelling_is_rejected(self):
        with pytest.raises(ValueError, match="accepted: 'auto', 'numpy'"):
            simulate_fluid_batch(norm(), [-1.0], t_max=1.0,
                                 fluid_method="compiled")


class TestReturnMapOnTheBatchIntegrator:
    def test_every_row_ends_on_its_second_crossing(self, monkeypatch):
        seen = []
        original = batch_mod.simulate_fluid_batch

        def spy(*args, **kwargs):
            result = original(*args, **kwargs)
            seen.append((kwargs, result))
            return result

        monkeypatch.setattr(batch_mod, "simulate_fluid_batch", spy)
        p = CASE1_SLOW
        ys = np.geomspace(1e-3 * p.capacity, 0.9 * p.capacity, 10)
        exit_y = batch_return_map(p, ys)
        [(kwargs, result)] = seen
        assert kwargs["max_switches"] == 1
        assert kwargs["convergence_rtol"] == 0.0
        assert result.end_reason == ["max_switches"] * ys.size
        for row, evs in enumerate(result.events):
            switches = [e for e in evs if e.kind == "switch"]
            assert len(switches) == 2
            assert switches[0].y < 0.0 < switches[1].y
            assert exit_y[row] == switches[1].y
            assert result.t_end[row] == switches[1].time

    def test_a_row_short_of_two_crossings_raises(self):
        p = CASE1_SLOW
        with pytest.raises(RuntimeError, match="re-cross"):
            batch_return_map(p, np.array([0.1 * p.capacity]), t_max=1e-3)


# -- the C kernel's rows split across threads -------------------------------


def _uneven_case1(mode):
    """37 CASE1 rows (chunks of 8 rows leave an uneven tail): the first
    eight start at the origin, so a chunk of them stops at step 1, and
    the rest die at steps that grow with their amplitude."""
    p = CASE1
    x0 = -np.linspace(0.05, 0.9, 37) * p.q0
    x0[:8] = 0.0
    return p, x0, 0.0, dict(t_max=40.0, mode=mode)


def _uneven_physical():
    """37 rows of a 15-q0 buffer: every fourth starts pinned at the
    empty buffer, and some later fill it."""
    p = scale_free(2.0, 0.02, k=0.1, buffer_size=15.0)
    x0 = np.resize(np.array([-1.2, 0.0, 0.5, -0.3]), 37) * p.q0
    y0 = np.resize(np.array([-5.0, 0.0, 0.0, 2.0]), 37) \
        * np.linspace(0.5, 1.5, 37)
    return p, x0, y0, dict(t_max=12.0, max_switches=20, mode="physical")


@pytest.fixture
def chunk_calls(monkeypatch):
    """Record ``(lo, hi, [last, overflow])`` of each C kernel chunk."""
    be = get_backend()
    calls = []
    original = be.fluid_rows

    def spy(lo, hi, *args):
        original(lo, hi, *args)
        calls.append((lo, hi, args[-1].tolist()))

    monkeypatch.setattr(be, "fluid_rows", spy)
    return calls


def _force_threads(monkeypatch, n):
    monkeypatch.setattr(kernel_fluid, "_fluid_threads", lambda m: n)


class TestRowSplit:
    @requires_compiled
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("call", [
        lambda: _uneven_case1("nonlinear"),
        lambda: _uneven_case1("linearized"),
        _uneven_physical,
    ], ids=["case1-nonlinear", "case1-linearized", "physical-pinned"])
    def test_every_chunk_count_equals_the_one_range_call(
            self, monkeypatch, chunk_calls, call, n):
        p, x0, y0, kw = call()
        _force_threads(monkeypatch, 1)
        one = simulate_fluid_batch(p, x0, y0, **kw)
        _force_threads(monkeypatch, n)
        chunk_calls.clear()
        got = simulate_fluid_batch(p, x0, y0, **kw)
        ranges = sorted((lo, hi) for lo, hi, _ in chunk_calls)
        assert len(ranges) == n
        assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in
                                                  ranges[:-1]]
        assert ranges[-1][1] == 37 and all(lo % 8 == 0 for lo, _ in ranges)
        if n > 1 and kw["mode"] == "nonlinear":
            # the chunks stop at different steps: the merge fills forward
            assert len({out[0] for _, _, out in chunk_calls}) > 1
        _assert_same_result(got, one)
        want = simulate_fluid_batch(p, x0, y0, fluid_method="numpy", **kw)
        if kw["mode"] == "physical":
            assert any(e.kind == "buffer_empty" and e.time == 0.0
                       for evs in got.events for e in evs)
            # pinned closed forms: libm against numpy's exp
            _assert_same_result(got, want, exact_y=False)
            np.testing.assert_allclose(got.y, want.y, rtol=1e-13, atol=0.0)
        else:
            _assert_same_result(got, want)

    @requires_compiled
    def test_the_default_thread_count_equals_the_one_range_call(
            self, monkeypatch, chunk_calls):
        # 256 rows run on every core of the CPU set, one thread per
        # core, so this runs the split path or the one-thread path
        # depending on where it is pinned
        p = CASE1
        x0 = -np.linspace(0.05, 0.9, 256) * p.q0
        got = simulate_fluid_batch(p, x0, 0.0, t_max=40.0)
        assert len(chunk_calls) == kernel_fluid._fluid_threads(256)
        _force_threads(monkeypatch, 1)
        one = simulate_fluid_batch(p, x0, 0.0, t_max=40.0)
        _assert_same_result(got, one)

    def test_thread_count_follows_the_cpu_set_with_64_rows_a_thread(
            self, monkeypatch):
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        assert [kernel_fluid._fluid_threads(m)
                for m in (0, 44, 127, 128, 1024)] == [1, 1, 1, 2, 8]
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert kernel_fluid._fluid_threads(1024) == 3

    def test_an_overflow_in_one_chunk_falls_back_to_the_numpy_loop(
            self, monkeypatch):
        class _TailOverflows(KernelBackend):
            compiled = True

            def fluid_rows(self, lo, hi, *args):
                args[-1][:] = (1, int(lo > 0))  # only a later chunk

        p, x0, y0, kw = _uneven_case1("nonlinear")
        want = simulate_fluid_batch(p, x0, y0, fluid_method="numpy", **kw)
        monkeypatch.setattr(_backend, "_BACKEND", _TailOverflows())
        _force_threads(monkeypatch, 3)
        got = simulate_fluid_batch(p, x0, y0, **kw)
        _assert_same_result(got, want)

    def test_a_worker_thread_error_reaches_the_caller(self, monkeypatch):
        import threading

        class _WorkerFails(KernelBackend):
            compiled = True

            def __init__(self):
                self.threads = {}

            def fluid_rows(self, lo, hi, *args):
                self.threads[lo] = threading.current_thread()
                if lo > 0:
                    raise FloatingPointError(f"rows {lo}..{hi}")
                args[-1][:] = (1, 0)

        fake = _WorkerFails()
        monkeypatch.setattr(_backend, "_BACKEND", fake)
        _force_threads(monkeypatch, 2)
        p, x0, y0, kw = _uneven_case1("nonlinear")
        with pytest.raises(FloatingPointError, match="rows 16..37"):
            simulate_fluid_batch(p, x0, y0, **kw)
        assert fake.threads[0] is threading.current_thread()
        assert fake.threads[16] is not threading.current_thread()

    @requires_compiled
    def test_the_c_kernel_keeps_no_reference_to_its_sample_buffers(self):
        # the kernel's pointers must not pin xs/ys once the result is
        # dropped: a wide bundle's pair runs to hundreds of MB
        p, x0, y0, kw = _fig3_cycle()
        result = simulate_fluid_batch(p, x0, y0, **kw)
        base = result.x
        while base.base is not None:
            base = base.base
        samples = weakref.ref(base)
        del result, base
        gc.collect()
        assert samples() is None
