"""Bench C — the compiled kernel backend vs the batched numpy engine.

Paired workloads gating the ``engine="compiled"`` packet path and the
C batch fluid kernel against the *batched* engine
(itself already ≥ 5× over the event-driven reference, see
``BENCH_packet.json``), i.e. the gate here is compiled-vs-vectorized,
not compiled-vs-interpreted:

* **compiled_dumbbell_fluid_vs_packet** — the V2 validation
  configuration (fluid-exact regulator, Bernoulli sampling, no PAUSE)
  on a 0.2 s horizon, ``engine="compiled"`` against ``engine="batched"``
  tagged as the reference row.  Exercises the full window pipeline:
  pacing plan/commit, train merge, packet plan/commit and the
  struct-of-array message kernel, all through the bound-closure API.
* **compiled_portrait_bundle** — a 64-trajectory phase-portrait bundle
  (CASE1, nonlinear mode, 40 s horizon) through the batch fluid RK4
  kernel: the default ``simulate_fluid_batch`` call (the C kernel on
  this tier) against ``fluid_method="numpy"``.
* **compiled_ensemble** — a 1024-orbit seeded ensemble (CASE3,
  nonlinear, 40 s horizon: 16,001 grid steps), the shape of the
  benchmark's fluid bundles.  At this width one grid step of samples
  spans 8 KB, so the row says whether the kernel's stores stay
  contiguous (step-major) rather than striding a step per store.

Both compiled rows tag ``extra_info["event_counts"]`` (packet) or the
bundle's switch totals (fluid) so the committed ``BENCH_compiled.json``
records what the workloads did.  The whole module skips on the
pure-numpy fallback tier, where ``engine="compiled"`` runs the same
numpy window loop as the batched engine and a speedup gate would be
meaningless.

Regenerate the committed report with::

    python -m pytest benchmarks/test_compiled_kernels.py \
        --benchmark-json /tmp/compiled_raw.json
    python tools/bench_report.py /tmp/compiled_raw.json \
        -o BENCH_compiled.json --min-speedup 3.0
"""

import numpy as np
import pytest

from repro.experiments.presets import CASE1, CASE3
from repro.experiments.v2_fluid_vs_packet import validation_params
from repro.fluid.batch import simulate_fluid_batch
from repro.kernels import get_backend
from repro.obs import Observability
from repro.simulation.network import BCNNetworkSimulator

pytestmark = pytest.mark.skipif(
    not get_backend().compiled,
    reason="no compiled backend (cffi + C compiler) available",
)

V2_DURATION = 0.2

V2_KWARGS = dict(
    frame_bits=1500,
    regulator_mode="fluid-exact",
    fb_bits=None,
    require_association=False,
    positive_only_below_q0=False,
    random_sampling=True,
    enable_pause=False,
)

FLUID_X0 = np.linspace(-0.9, 0.9, 64) * CASE1.q0
FLUID_KWARGS = dict(t_max=40.0, mode="nonlinear", max_switches=200)

_ENSEMBLE_RNG = np.random.default_rng(2010)
ENSEMBLE_X0 = _ENSEMBLE_RNG.uniform(-0.5, 0.4, 1024) * CASE3.q0
ENSEMBLE_Y0 = _ENSEMBLE_RNG.uniform(-0.1, 0.1, 1024) * CASE3.capacity
ENSEMBLE_KWARGS = dict(t_max=40.0, mode="nonlinear")


def _run_v2(engine, obs=None):
    net = BCNNetworkSimulator(validation_params(), engine=engine, obs=obs,
                              **V2_KWARGS)
    return net.run(V2_DURATION)


def _event_counts(engine):
    obs = Observability()
    _run_v2(engine, obs)
    return obs.event_counts()


# -- packet window pipeline -------------------------------------------------


def test_bench_dumbbell_compiled(benchmark):
    _run_v2("compiled")  # warm the backend outside the timed region
    res = benchmark.pedantic(lambda: _run_v2("compiled"),
                             rounds=5, iterations=1)
    benchmark.extra_info.update(
        workload="compiled_dumbbell_fluid_vs_packet", engine="compiled",
        simulated_seconds=V2_DURATION,
        kernel_backend=get_backend().name,
        event_counts=_event_counts("compiled"))
    assert res.forwarded_frames > 0
    assert 0.9 <= res.utilization() <= 1.0 + 1e-9


def test_bench_dumbbell_batched_baseline(benchmark):
    res = benchmark.pedantic(lambda: _run_v2("batched"),
                             rounds=5, iterations=1)
    benchmark.extra_info.update(
        workload="compiled_dumbbell_fluid_vs_packet", engine="reference",
        simulated_seconds=V2_DURATION)
    assert res.forwarded_frames > 0


# -- batch fluid RK4 kernel -------------------------------------------------


def _fluid_numpy():
    return simulate_fluid_batch(CASE1, FLUID_X0, 0.0,
                                fluid_method="numpy", **FLUID_KWARGS)


def test_bench_portrait_bundle_compiled(benchmark):
    simulate_fluid_batch(CASE1, FLUID_X0, 0.0, **FLUID_KWARGS)
    res = benchmark.pedantic(
        lambda: simulate_fluid_batch(CASE1, FLUID_X0, 0.0, **FLUID_KWARGS),
        rounds=5, iterations=1)
    benchmark.extra_info.update(
        workload="compiled_portrait_bundle", engine="compiled",
        trajectory_seconds=40.0 * FLUID_X0.size,
        kernel_backend=get_backend().name,
        switch_total=int(res.switch_counts.sum()),
        converged=int(res.converged.sum()))
    assert res.x.shape[1] == FLUID_X0.size


def test_bench_portrait_bundle_numpy_baseline(benchmark):
    res = benchmark.pedantic(_fluid_numpy, rounds=3, iterations=1)
    benchmark.extra_info.update(
        workload="compiled_portrait_bundle", engine="reference",
        trajectory_seconds=40.0 * FLUID_X0.size)
    assert res.x.shape[1] == FLUID_X0.size


# -- 1024-orbit ensemble: the width where store stride shows --------------


def _ensemble(**kw):
    return simulate_fluid_batch(CASE3, ENSEMBLE_X0, ENSEMBLE_Y0,
                                **ENSEMBLE_KWARGS, **kw)


def test_bench_ensemble_compiled(benchmark):
    _ensemble()
    res = benchmark.pedantic(_ensemble, rounds=5, iterations=1)
    benchmark.extra_info.update(
        workload="compiled_ensemble", engine="compiled",
        trajectory_seconds=40.0 * ENSEMBLE_X0.size,
        kernel_backend=get_backend().name,
        grid_steps=int(res.t.size - 1),
        switch_total=int(res.switch_counts.sum()),
        converged=int(res.converged.sum()))
    assert res.x.shape == (res.t.size, ENSEMBLE_X0.size)


def test_bench_ensemble_numpy_baseline(benchmark):
    res = benchmark.pedantic(
        lambda: simulate_fluid_batch(CASE3, ENSEMBLE_X0, ENSEMBLE_Y0,
                                     fluid_method="numpy", **ENSEMBLE_KWARGS),
        rounds=3, iterations=1)
    benchmark.extra_info.update(
        workload="compiled_ensemble", engine="reference",
        trajectory_seconds=40.0 * ENSEMBLE_X0.size)
    assert res.x.shape[1] == ENSEMBLE_X0.size
