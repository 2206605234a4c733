"""Bench P — the packet engines on the dumbbell, each on its own clock.

Workloads on :class:`repro.simulation.network.BCNNetworkSimulator`,
each run on several engines:

* **dumbbell_fluid_vs_packet** — the V2 validation configuration
  (fluid-exact regulator, Bernoulli sampling, no PAUSE) on a 0.2 s
  horizon;
* **dumbbell_message_mode** — the Section IV example parameters under
  the draft's literal message semantics (deterministic sampling,
  quantized FB, association-gated positive feedback, PAUSE armed);
* **v2_validation** — experiment v2's dumbbell exactly as it runs
  (:func:`repro.analysis.validation.fluid_vs_packet`'s network, 0.4 s),
  on the C event core against the ``compiled`` window engine on the C
  tier (both skipped without one).

Engine tags: ``reference`` is the python ``Simulator`` loop (the
oracle; pinned to the numpy kernel tier, where the reference engine
never leaves python), ``core`` the same ``engine="reference"`` on the C
event core (compiled tier; skipped without one), ``batched`` and
``compiled`` the window engines.

Every test tags ``benchmark.extra_info`` with ``workload``/``engine``
and the ``simulated_seconds`` horizon; ``tools/bench_report.py``
computes ns per simulated second per row, and with ``--baseline
BENCH_packet.json --max-slowdown X`` fails when any row is more than
``X`` times slower than its committed figure.  Each engine is gated on
its own time: a ratio against ``reference`` stops meaning anything
once ``reference`` can run in C.  The ``batched`` tests rerun their
workload once under an :class:`~repro.obs.Observability` handle
(outside the timed region) and tag ``extra_info["event_counts"]`` so
the committed report also records what each workload *did*.
"""

import contextlib

import pytest

from repro.core.parameters import paper_example_params
from repro.experiments.v2_fluid_vs_packet import validation_params
from repro.kernels import _backend, get_backend
from repro.obs import Observability
from repro.simulation.network import BCNNetworkSimulator

V2_DURATION = 0.2
MSG_DURATION = 0.03
VALIDATION_DURATION = 0.4

V2_KWARGS = dict(
    frame_bits=1500,
    regulator_mode="fluid-exact",
    fb_bits=None,
    require_association=False,
    positive_only_below_q0=False,
    random_sampling=True,
    enable_pause=False,
)

requires_core = pytest.mark.skipif(
    not get_backend().compiled,
    reason="no compiled backend (cffi + C compiler) available",
)


@contextlib.contextmanager
def _python_loop():
    """The numpy tier, where the reference engine runs the python loop."""
    saved = _backend._BACKEND
    _backend._BACKEND = _backend.KernelBackend()
    try:
        yield
    finally:
        _backend._BACKEND = saved


def _run_v2(engine, obs=None):
    net = BCNNetworkSimulator(validation_params(), engine=engine, obs=obs,
                              **V2_KWARGS)
    return net.run(V2_DURATION)


def _run_message(engine, obs=None):
    net = BCNNetworkSimulator(paper_example_params(), engine=engine, obs=obs)
    return net.run(MSG_DURATION)


def _run_validation(engine):
    # fluid_vs_packet's packet side for experiment v2
    params = validation_params()
    net = BCNNetworkSimulator(
        params, initial_rate=1.5 * params.capacity / params.n_flows,
        engine=engine, **V2_KWARGS)
    return net.run(VALIDATION_DURATION)


def _event_counts(run, engine):
    obs = Observability()
    run(engine, obs)
    return obs.event_counts()


def test_bench_dumbbell_fluid_vs_packet_batched(benchmark):
    res = benchmark.pedantic(lambda: _run_v2("batched"),
                             rounds=3, iterations=1)
    benchmark.extra_info.update(
        workload="dumbbell_fluid_vs_packet", engine="batched",
        simulated_seconds=V2_DURATION,
        event_counts=_event_counts(_run_v2, "batched"))
    assert res.forwarded_frames > 0
    assert 0.9 <= res.utilization() <= 1.0 + 1e-9


def test_bench_dumbbell_fluid_vs_packet_reference(benchmark):
    with _python_loop():
        res = benchmark.pedantic(lambda: _run_v2("reference"),
                                 rounds=3, iterations=1)
    benchmark.extra_info.update(
        workload="dumbbell_fluid_vs_packet", engine="reference",
        simulated_seconds=V2_DURATION)
    assert res.forwarded_frames > 0


@requires_core
def test_bench_dumbbell_fluid_vs_packet_core(benchmark):
    res = benchmark.pedantic(lambda: _run_v2("reference"),
                             rounds=5, iterations=1,
                             warmup_rounds=1)
    benchmark.extra_info.update(
        workload="dumbbell_fluid_vs_packet", engine="core",
        simulated_seconds=V2_DURATION)
    assert res.forwarded_frames > 0


def test_bench_dumbbell_message_mode_batched(benchmark):
    res = benchmark.pedantic(lambda: _run_message("batched"),
                             rounds=3, iterations=1)
    benchmark.extra_info.update(
        workload="dumbbell_message_mode", engine="batched",
        simulated_seconds=MSG_DURATION,
        event_counts=_event_counts(_run_message, "batched"))
    assert res.bcn_negative > 0


def test_bench_dumbbell_message_mode_reference(benchmark):
    with _python_loop():
        res = benchmark.pedantic(lambda: _run_message("reference"),
                                 rounds=3, iterations=1)
    benchmark.extra_info.update(
        workload="dumbbell_message_mode", engine="reference",
        simulated_seconds=MSG_DURATION)
    assert res.bcn_negative > 0


@requires_core
def test_bench_dumbbell_message_mode_core(benchmark):
    res = benchmark.pedantic(lambda: _run_message("reference"),
                             rounds=5, iterations=1,
                             warmup_rounds=1)
    benchmark.extra_info.update(
        workload="dumbbell_message_mode", engine="core",
        simulated_seconds=MSG_DURATION)
    assert res.bcn_negative > 0


@requires_core
def test_bench_v2_validation_core(benchmark):
    res = benchmark.pedantic(lambda: _run_validation("reference"),
                             rounds=5, iterations=1,
                             warmup_rounds=1)
    benchmark.extra_info.update(
        workload="v2_validation", engine="core",
        simulated_seconds=VALIDATION_DURATION)
    assert res.forwarded_frames > 0


@requires_core
def test_bench_v2_validation_compiled(benchmark):
    res = benchmark.pedantic(lambda: _run_validation("compiled"),
                             rounds=5, iterations=1,
                             warmup_rounds=1)
    benchmark.extra_info.update(
        workload="v2_validation", engine="compiled",
        simulated_seconds=VALIDATION_DURATION)
    assert res.forwarded_frames > 0
