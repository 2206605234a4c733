"""The repro layers the traced run measures, and the wrappers that measure them.

Each entry below wraps one public function or method of a repro layer
(module names as in ``src/repro``).  ``shard``, ``lint``, ``viz`` and
``cli`` are left out on purpose: no workload runs sharding, so a change
that deletes or speeds it up must first add a workload that does.

Two boundaries are counted rather than timed, because a wrapper on them
would cost more than the work: frames through ``CoreSwitch.receive``
come from the switch's own queue counters after each run (every
``receive`` offers the frame to the queue exactly once), and BCN
feedback is counted per ``RateRegulator.apply`` call plus per message
handed to the compiled message kernel.

Pacing in the fast engines runs inside the kernel backend's bound
closures (``bind_pacing_plan``, ``bind_merge_trains``,
``bind_pacing_commit``); ``TrafficSource.plan_train``/``commit_train``
are never called on a default path, so the closures are what is timed.
"""

from __future__ import annotations

import time

from .ledger import Ledger, patch_function, patch_method

LAYERS = ("experiments", "runner", "scenarios", "simulation", "fluid",
          "core", "baselines", "cache", "serve")

BASELINE_RUNNERS = (
    ("repro.baselines.bcn", "run_bcn_dumbbell"),
    ("repro.baselines.qcn", "run_qcn_dumbbell"),
    ("repro.baselines.e2cm", "run_e2cm_dumbbell"),
    ("repro.baselines.fera", "run_fera_dumbbell"),
    ("repro.baselines.aimd", "run_aimd_dumbbell"),
)


def import_layers() -> None:
    """Load every module that may hold a wrapped name."""
    import repro.baselines  # noqa: F401
    import repro.core.limit_cycle  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.fluid.batch  # noqa: F401
    import repro.fluid.delay  # noqa: F401
    import repro.fluid.integrate  # noqa: F401
    import repro.kernels  # noqa: F401
    import repro.runner  # noqa: F401
    import repro.scenarios  # noqa: F401
    import repro.serve.client  # noqa: F401
    import repro.serve.server  # noqa: F401
    for module, _ in BASELINE_RUNNERS:
        __import__(module)


def _switch_frames(switch) -> int:
    return switch.queue.enqueued_frames + switch.queue.dropped_frames


def install_experiments(ledger: Ledger) -> None:
    from repro.experiments.base import all_experiments, register

    for experiment_id, run in all_experiments().items():
        register(experiment_id)(
            ledger.timed(f"exp.{experiment_id}", "experiments", run))


def install_runner(ledger: Ledger) -> None:
    def sweep_points(args, kwargs, result):
        ledger.add("runner.points", len(result.records))

    patch_function("repro.runner.executor", "run_experiments",
                   lambda f: ledger.timed("runner.experiments", "runner", f))
    patch_function("repro.runner.parallel", "run_sweep_parallel",
                   lambda f: ledger.timed("runner.sweep", "runner", f,
                                          sweep_points))


def install_cache(ledger: Ledger) -> None:
    from repro.runner.cache import ResultCache

    def got(args, kwargs, result):
        default = args[3] if len(args) > 3 else kwargs.get("default")
        if result is not default:
            ledger.add("cache.hits")

    def put(args, kwargs, path):
        ledger.add("cache.put_bytes", path.stat().st_size)

    patch_method(ResultCache, "get",
                 lambda f: ledger.timed("cache.get", "cache", f, got))
    patch_method(ResultCache, "put",
                 lambda f: ledger.timed("cache.put", "cache", f, put))


def install_scenarios(ledger: Ledger) -> None:
    patch_function("repro.scenarios.sweep", "evaluate_scenario_point",
                   lambda f: ledger.timed("scen.point", "scenarios", f))


def install_simulation(ledger: Ledger) -> None:
    from repro.kernels import get_backend
    from repro.kernels.packet import CompiledSwitchKernel
    from repro.simulation.multihop import MultiHopNetwork
    from repro.simulation.network import BCNNetworkSimulator
    from repro.simulation.source import RateRegulator
    from repro.simulation.switch import BatchedSwitchKernel

    def dumbbell_done(args, kwargs, result):
        net = args[0]
        ledger.add("sim.events", net.sim.events_processed)
        if net.engine == "reference":
            ledger.add("sim.core_switch_frames", _switch_frames(net.switch))

    def fabric_done(args, kwargs, result):
        net = args[0]
        ledger.add("sim.events", net.sim.events_processed)
        ledger.add("sim.core_switch_frames",
                   sum(_switch_frames(p) for p in net.ports.values()))

    patch_method(BCNNetworkSimulator, "run",
                 lambda f: ledger.timed("sim.dumbbell", "simulation", f,
                                        dumbbell_done))
    patch_method(MultiHopNetwork, "run",
                 lambda f: ledger.timed("sim.fabric", "simulation", f,
                                        fabric_done))
    for cls in (BatchedSwitchKernel, CompiledSwitchKernel):
        patch_method(cls, "process",
                     lambda f: ledger.timed("sim.window", "simulation", f))
    patch_method(RateRegulator, "apply",
                 lambda f: ledger.counted("sim.bcn_applied", f))

    def binder(make_closure_wrapper):
        def make(bind):
            def bound(*args, **kwargs):
                return make_closure_wrapper(bind(*args, **kwargs))
            return bound
        return make

    def owner(attr: str) -> type:
        # The numba tier inherits the bind_* methods from KernelBackend;
        # the cffi tier overrides them.
        return next(cls for cls in type(get_backend()).__mro__
                    if attr in vars(cls))

    for attr in ("bind_pacing_plan", "bind_merge_trains",
                 "bind_pacing_commit"):
        patch_method(owner(attr), attr, binder(
            lambda c: ledger.timed("sim.pacing", "simulation", c)))
    patch_method(owner("bind_apply_messages"), "bind_apply_messages", binder(
        lambda c: ledger.counted("sim.bcn_applied", c,
                                 lambda a, k, r: a[0].shape[0])))


def install_fluid(ledger: Ledger) -> None:
    def rows(args, kwargs, result):
        ledger.add("fluid.batch_rows", result.converged.size)

    patch_function("repro.fluid.batch", "simulate_fluid_batch",
                   lambda f: ledger.timed("fluid.batch", "fluid", f, rows))
    patch_function("repro.kernels.fluid", "simulate_fluid_batch_compiled",
                   lambda f: ledger.timed("fluid.compiled", "fluid", f))
    patch_function("repro.fluid.integrate", "simulate_fluid",
                   lambda f: ledger.timed("fluid.ivp", "fluid", f))
    patch_function("repro.fluid.delay", "simulate_delayed",
                   lambda f: ledger.timed("fluid.delay", "fluid", f))


def install_core_and_baselines(ledger: Ledger) -> None:
    for attr in ("find_limit_cycle", "amplitude_scan"):
        patch_function("repro.core.limit_cycle", attr,
                       lambda f: ledger.timed("core.limit_cycle", "core", f))
    for module, attr in BASELINE_RUNNERS:
        patch_function(module, attr,
                       lambda f: ledger.timed("baselines", "baselines", f))


def install_serve(ledger: Ledger, execute_walls: dict[str, float]) -> None:
    """Server-side wrappers; ``execute_walls`` maps job key -> seconds."""
    from repro.serve import jobs

    key_of = jobs.job_key  # the unwrapped original: keys are not timed

    for attr in ("encode_line", "decode_line"):
        patch_function("repro.serve.protocol", attr,
                       lambda f: ledger.timed("serve.codec", "serve", f))
    for attr in ("normalize_request", "job_key"):
        patch_function("repro.serve.jobs", attr,
                       lambda f: ledger.timed("serve.normalize", "serve", f))

    def make_execute(f):
        def execute(request, **kwargs):
            t0 = time.perf_counter()
            try:
                return f(request, **kwargs)
            finally:
                execute_walls[key_of(request)] = time.perf_counter() - t0
        return ledger.timed("serve.execute", "serve", execute)

    patch_function("repro.serve.jobs", "execute_job", make_execute)


def install_client(ledger: Ledger) -> None:
    """Every layer a client-side workload (not the server) can reach."""
    install_experiments(ledger)
    install_runner(ledger)
    install_cache(ledger)
    install_scenarios(ledger)
    install_simulation(ledger)
    install_fluid(ledger)
    install_core_and_baselines(ledger)


def install_all(ledger: Ledger, execute_walls: dict[str, float]) -> None:
    install_client(ledger)
    install_serve(ledger, execute_walls)
