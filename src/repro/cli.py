"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``analyze``
    Assess one BCN configuration: case, strong stability, Theorem 1
    buffer requirement, transient profile, and optionally the phase
    trajectory as ASCII art.
``design``
    Solve Theorem 1 for the free quantities: max flows, max Gi, min Gd,
    max q0 for the given buffer.
``simulate``
    Run the packet-level dumbbell and report utilisation, queue
    behaviour, drops and fairness.
``experiments``
    Run the paper-reproduction experiments (same as
    ``python -m repro.experiments``).
``fabric``
    Run a fabric-scale multi-hop workload (fat-tree or DCell,
    permutation traffic) on the serial or sharded engine
    (``--shards``/``--workers``, :mod:`repro.shard`) and report
    throughput, queueing and wall time.
``scenario``
    List the named heavy-traffic scenario presets, or run one (incast,
    churn, outages, time-varying capacity) on either packet engine —
    single run or an N-seed sweep through the parallel runner.
``trace``
    Run one scenario on any of the engines (packet reference / batched /
    compiled, fluid reference / batch / compiled) with observability on
    and export the structured JSONL event trace (region switches, BCN
    messages, PAUSE on/off, drops, buffer pinning, convergence).
``profile``
    Same run, reporting the span profile and metric registry instead.
``lint``
    Run the repo-specific static analysis suite (RNG discipline,
    wall-clock bans, kernel-tier parity, obs vocabulary, engine-seam
    totality) over ``src/repro`` or the given paths.
``serve``
    Run the asyncio job server (:mod:`repro.serve`): accepts
    experiment/scenario/sweep jobs over newline-delimited JSON,
    dedups against the shared result cache, streams progress, and
    drains gracefully on SIGTERM.
``submit``
    Submit one job to a running server; waits for (or watches) it and
    prints the result envelope as JSON.

Examples
--------
::

    python -m repro analyze --capacity 10e9 --flows 50 --q0 2.5e6 \\
        --buffer 20e6 --plot
    python -m repro design --capacity 10e9 --flows 50 --q0 2.5e6 --buffer 16e6
    python -m repro simulate --capacity 1e9 --flows 10 --q0 1e6 \\
        --buffer 8e6 --duration 0.05
"""

from __future__ import annotations

import argparse
import sys

from .core.design import design_report, max_flows, max_gi, max_q0, min_gd
from .core.parameters import BCNParams
from .core.phase_plane import PhasePlaneAnalyzer
from .core.stability import required_buffer, strong_stability_report
from .core.transient import transient_report
from .simulation.network import BCNNetworkSimulator
from .viz.ascii import line_plot, phase_plot
from .viz.series import format_table

__all__ = ["main"]


def _add_param_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--capacity", type=float, required=True,
                        help="bottleneck capacity C in bits/s")
    parser.add_argument("--flows", type=int, required=True,
                        help="number of homogeneous flows N")
    parser.add_argument("--q0", type=float, required=True,
                        help="reference queue length in bits")
    parser.add_argument("--buffer", type=float, required=True,
                        help="buffer size B in bits")
    parser.add_argument("--w", type=float, default=2.0)
    parser.add_argument("--pm", type=float, default=0.01)
    parser.add_argument("--gi", type=float, default=4.0)
    parser.add_argument("--gd", type=float, default=1.0 / 128.0)
    parser.add_argument("--ru", type=float, default=8e6)


def _params_from(args: argparse.Namespace) -> BCNParams:
    return BCNParams(
        capacity=args.capacity,
        n_flows=args.flows,
        q0=args.q0,
        buffer_size=args.buffer,
        w=args.w,
        pm=args.pm,
        gi=args.gi,
        gd=args.gd,
        ru=args.ru,
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    params = _params_from(args)
    report = strong_stability_report(params)
    print(f"case: {report.case.value} (Proposition {report.proposition})")
    print(f"strongly stable: {report.strongly_stable}")
    print(f"Theorem 1 satisfied: {report.theorem1_satisfied}")
    print(f"required buffer: {report.theorem1_buffer:.6g} bits "
          f"(configured {params.buffer_size:.6g})")
    print(f"transient queue peak: {report.queue_peak:.6g} bits")
    print(f"transient: {transient_report(params).summary()}")
    if args.plot:
        trajectory = PhasePlaneAnalyzer(params).compose(max_switches=12)
        samples = trajectory.sample(150)
        print(phase_plot(samples[:, 1], samples[:, 2],
                         switching_k=params.normalized().k,
                         title="phase plane (x = q - q0, y = N r - C)"))
        t, q, _ = trajectory.queue_time_series(150)
        print(line_plot(t, q, reference=params.q0, title="queue q(t)"))
    return 0 if report.strongly_stable else 1


def _cmd_design(args: argparse.Namespace) -> int:
    params = _params_from(args)
    check = design_report(params)
    print(check.render())
    rows = [
        ["required buffer (bits)", required_buffer(params)],
        ["max flows at this buffer", max_flows(params)],
        ["max Gi", max_gi(params)],
        ["min Gd", min_gd(params)],
        ["max q0 (bits)", max_q0(params)],
    ]
    print(format_table(["design quantity", "value"], rows))
    return 0 if check.admitted else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = _params_from(args)
    net = BCNNetworkSimulator(params, regulator_mode=args.mode)
    result = net.run(args.duration)
    settle = args.duration / 2
    rows = [
        ["utilization", result.utilization()],
        ["queue peak (bits)", result.queue_peak()],
        ["queue mean (settled)", result.queue_mean(settle=settle)],
        ["queue std (settled)", result.queue_std(settle=settle)],
        ["drops", result.dropped_frames],
        ["negative BCN", result.bcn_negative],
        ["positive BCN", result.bcn_positive],
        ["PAUSE frames", result.pauses],
        ["Jain fairness", result.jain_fairness()],
    ]
    print(format_table(["metric", "value"], rows))
    if args.plot:
        print(line_plot(result.t, result.queue, reference=params.q0,
                        title="packet-level queue q(t)"))
    return 0


#: CLI engine names -> (family, engine argument used by the code).
OBS_ENGINES = {
    "packet-reference": ("packet", "reference"),
    "packet-batched": ("packet", "batched"),
    "packet-compiled": ("packet", "compiled"),
    "fluid-reference": ("fluid", "reference"),
    "fluid-batch": ("fluid", "batch"),
    "fluid-compiled": ("fluid", "compiled"),
}


def _resolve_packet_engine(engine: str) -> str:
    """Downgrade ``compiled`` to ``batched`` when nothing can compile.

    The compiled engine is numerically identical to the batched engine
    on every backend tier (on the numpy tier both run the same numpy
    window loop), so the fallback only changes speed — but the user
    asked for compiled, so say what they are actually getting and why.
    """
    if engine == "compiled":
        from .kernels import get_backend

        if not get_backend().compiled:
            print(
                "warning: no compiled kernel backend is available "
                "(cffi or a C compiler is missing); "
                "falling back to the batched engine",
                file=sys.stderr,
            )
            return "batched"
    return engine


def _run_observed(args: argparse.Namespace):
    """Run the scenario selected by ``args`` under an obs handle."""
    from .obs import Observability

    params = _params_from(args)
    family, engine = OBS_ENGINES[args.engine]
    obs = Observability()
    if family == "fluid":
        from .fluid.batch import simulate_fluid_batch
        from .fluid.integrate import simulate_fluid

        p = params.normalized()
        if engine == "reference":
            simulate_fluid(p, t_max=args.duration, mode=args.fluid_mode,
                           obs=obs)
        else:
            fluid_method = "auto" if engine == "compiled" else "numpy"
            simulate_fluid_batch(p, -p.q0, 0.0, t_max=args.duration,
                                 mode=args.fluid_mode, obs=obs,
                                 fluid_method=fluid_method)
    else:
        engine = _resolve_packet_engine(engine)
        net = BCNNetworkSimulator(params, regulator_mode=args.mode,
                                  engine=engine, obs=obs)
        net.run(args.duration)
    return obs


def _cmd_trace(args: argparse.Namespace) -> int:
    obs = _run_observed(args)
    path = obs.write_trace(
        args.out,
        meta={"engine": args.engine, "duration": args.duration},
    )
    counts = obs.event_counts()
    print(format_table(
        ["event kind", "count"],
        [[kind, counts[kind]] for kind in sorted(counts)],
    ))
    print(obs.summary())
    print(f"trace written to {path}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    obs = _run_observed(args)
    print(obs.profiler.summary_table())
    print()
    print(obs.metrics.summary_table())
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .scenarios import PRESETS, get_preset, run_scenario
    from .scenarios.sweep import run_scenario_sweep

    args.engine = _resolve_packet_engine(args.engine)

    if args.preset is None or args.list:
        rows = []
        for name in sorted(PRESETS):
            scenario = get_preset(name)
            doc = (PRESETS[name].__doc__ or "").strip().splitlines()[0]
            rows.append([name, len(scenario.events),
                         f"{1e3 * scenario.duration:g} ms", doc])
        print(format_table(["preset", "events", "horizon", "stress"], rows))
        return 0

    if args.seeds is not None:
        from .runner.instrumentation import RunnerStats

        stats = RunnerStats()
        sweep = run_scenario_sweep(
            args.preset,
            seeds=range(args.seeds),
            engine=args.engine,
            workers=args.workers,
            stats=stats,
        )
        rows = [
            [rec["preset"], seed, rec["utilization"], rec["queue_peak"],
             rec["dropped_frames"], rec["pauses"],
             f"{rec['n_finished']}/{rec['n_dynamic_flows']}",
             "-" if rec["fct_mean"] is None else f"{1e3 * rec['fct_mean']:.3f}"]
            for seed, rec in zip(range(args.seeds), sweep.records)
        ]
        print(format_table(
            ["preset", "seed", "utilization", "queue peak", "drops",
             "pauses", "finished", "FCT mean (ms)"], rows))
        print(f"\n{args.seeds} seeds on the {args.engine} engine "
              f"in {stats.elapsed:.2f} s "
              f"({'pooled' if stats.workers > 1 else 'serial'}, "
              f"workers={stats.workers})")
        return 0

    obs = None
    if args.obs:
        from .obs import Observability

        obs = Observability()
    scenario = get_preset(args.preset, args.seed)
    result = run_scenario(scenario, engine=args.engine, obs=obs)
    sim = result.sim
    fcts = [f.fct for f in result.flows if f.fct is not None]
    rows = [
        ["engine", args.engine],
        ["events scheduled", len(scenario.events)],
        ["capacity transitions", scenario.n_capacity_transitions()],
        ["utilization (vs ∫C dt)", result.utilization()],
        ["queue peak (bits)", sim.queue_peak()],
        ["queue mean (bits)", sim.queue_mean()],
        ["drops", sim.dropped_frames],
        ["PAUSE frames", sim.pauses],
        ["BCN messages", sim.bcn_negative + sim.bcn_positive],
        ["dynamic flows finished", f"{len(fcts)}/{len(result.flows)}"],
        ["conservation error (bits)", result.conservation_error()],
    ]
    if fcts:
        import numpy as np

        rows.append(["FCT mean (ms)", 1e3 * float(np.mean(fcts))])
        rows.append(["FCT p99 (ms)", 1e3 * float(np.percentile(fcts, 99))])
    print(format_table(["metric", "value"], rows))
    if obs is not None:
        print()
        print(obs.summary())
    if args.plot:
        print(line_plot(sim.t, sim.queue, reference=scenario.params.q0,
                        title=f"{args.preset} queue q(t) [{args.engine}]"))
    return 0


def _cmd_fabric(args: argparse.Namespace) -> int:
    import time as _time

    from .simulation.multihop import MultiHopNetwork, PortConfig
    from .topology import dcell, fat_tree
    from .topology import hosts as fabric_hosts
    from .workloads.generators import permutation

    engine = _resolve_packet_engine(args.engine)
    if args.topology == "fat-tree":
        graph = fat_tree(args.k, capacity=args.capacity)
    else:
        graph = dcell(args.k, args.level, capacity=args.capacity)
    hs = fabric_hosts(graph)
    flows = permutation(hs, demand=args.demand, rounds=args.rounds)
    frame_bits = 1500 * 8
    config = PortConfig(q0=args.q0_frames * frame_bits,
                        buffer_bits=args.buffer_frames * frame_bits)

    shards: int | str | None = None
    if args.shards is not None:
        shards = "auto" if args.shards == "auto" else int(args.shards)

    obs = None
    if args.obs:
        from .obs import Observability

        obs = Observability()
    net = MultiHopNetwork(
        graph, flows, config,
        propagation_delay=args.delay,
        engine=engine,
        shards=shards,
        workers=args.workers,
        obs=obs,
    )
    mode = "serial"
    if net.sharded:
        mode = (f"{net._plan.n_shards} shards, "
                f"lookahead {1e6 * net._plan.lookahead:g} us")
    wall_start = _time.perf_counter()
    result = net.run(args.duration)
    wall = _time.perf_counter() - wall_start

    delivered = sum(result.per_flow_delivered_bits.values())
    hottest = result.hottest_port()
    rows = [
        ["topology", f"{args.topology} ({len(hs)} hosts)"],
        ["flows", len(flows)],
        ["ports", len(net._plan.port_edges)],
        ["engine", engine],
        ["mode", mode],
        ["delivered (Gbit)", delivered / 1e9],
        ["aggregate throughput (Gbit/s)", delivered / args.duration / 1e9],
        ["drops", result.dropped_frames],
        ["negative BCN", result.bcn_negative],
        ["positive BCN", result.bcn_positive],
        ["PAUSE frames", result.pauses],
        ["hottest port", f"{hottest[0]}->{hottest[1]} "
                         f"({float(result.port_queues[hottest].max()):.3g} bits)"],
        ["wall time (s)", wall],
    ]
    print(format_table(["metric", "value"], rows))
    if obs is not None:
        # Shard metrics/spans merge commutatively into this handle;
        # per-event traces stay in the workers, so show the registries.
        print()
        print(obs.profiler.summary_table())
        print()
        print(obs.metrics.summary_table())
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.__main__ import main as experiments_main

    argv = list(args.ids)
    if args.csv:
        argv += ["--csv", args.csv]
    if args.parallel:
        argv += ["--parallel"]
    if args.workers is not None:
        argv += ["--workers", str(args.workers)]
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    if args.no_cache:
        argv += ["--no-cache"]
    return experiments_main(argv)


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .lint import (
        LintError, check_names, render_json, render_text, run_lint,
        worst_severity,
    )

    if args.list_checks:
        for name in check_names():
            print(name)
        return 0
    paths = [Path(p) for p in (args.paths or ["src/repro"])]
    select = None
    if args.select:
        select = [name for chunk in args.select
                  for name in chunk.split(",") if name]
    try:
        findings = run_lint(paths, select=select)
    except LintError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return worst_severity(findings)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .serve.server import JobServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        spool_dir=args.spool_dir,
        workers=args.workers or 0,
        max_concurrent=args.max_concurrent,
        max_retries=args.max_retries,
    )

    async def _amain() -> int:
        server = JobServer(config)
        await server.start()
        server.install_signal_handlers()
        # One parseable line so wrappers (and the e2e test) learn the
        # bound port when --port 0 picked an ephemeral one.
        print(json.dumps({"listening": {"host": config.host,
                                        "port": server.port}}), flush=True)
        await server.run()
        counters = server.obs.metrics.snapshot().get("counters", {})
        done = {k: v for k, v in sorted(counters.items())
                if k.startswith("serve.")}
        print(f"drained: {json.dumps(done)}", file=sys.stderr)
        return 0

    return asyncio.run(_amain())


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from .serve.client import ServeClient, ServeError

    try:
        payload = json.loads(args.job)
    except ValueError as exc:
        print(f"repro submit: job is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        with ServeClient(args.host, args.port, timeout=args.timeout) as client:
            if args.watch:
                def on_event(event: dict) -> None:
                    print(json.dumps(event.get("record", event)), flush=True)

                end = client.submit_and_watch(payload, on_event)
                if end.get("state") != "done":
                    print(f"repro submit: job ended {end.get('state')}"
                          + (f": {end['failure']}" if end.get("failure")
                             else ""),
                          file=sys.stderr)
                    return 1
                print(json.dumps(client.result(end["key"]), sort_keys=True))
                return 0
            if args.no_wait:
                response = client.submit(payload)
                print(json.dumps(
                    {k: response[k] for k in ("key", "state", "dedup")
                     if k in response}, sort_keys=True))
                return 0
            response = client.submit(payload, wait=True)
            if response.get("state") != "done":
                print(f"repro submit: job ended {response.get('state')}"
                      + (f": {response['failure']}"
                         if response.get("failure") else ""),
                      file=sys.stderr)
                return 1
            print(json.dumps(response["result"], sort_keys=True))
            return 0
    except (ServeError, OSError) as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.reporting import run_reproduction_report

    report = run_reproduction_report(
        args.ids or None, csv_dir=args.csv
    )
    path = report.write(args.out)
    print(format_table(["id", "verdict", "wall", "title"],
                       report.summary_rows()))
    print(f"\nreport written to {path}")
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Phase-plane analysis of BCN congestion control "
                    "(ICDCS 2010 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="assess one configuration")
    _add_param_args(p_analyze)
    p_analyze.add_argument("--plot", action="store_true")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_design = sub.add_parser("design", help="invert Theorem 1")
    _add_param_args(p_design)
    p_design.set_defaults(func=_cmd_design)

    p_sim = sub.add_parser("simulate", help="packet-level dumbbell run")
    _add_param_args(p_sim)
    p_sim.add_argument("--duration", type=float, default=0.05)
    p_sim.add_argument("--mode", default="message",
                       choices=["message", "fluid-euler", "fluid-exact"])
    p_sim.add_argument("--plot", action="store_true")
    p_sim.set_defaults(func=_cmd_simulate)

    def _add_obs_args(p: argparse.ArgumentParser) -> None:
        _add_param_args(p)
        p.add_argument("--duration", type=float, default=0.05,
                       help="simulated horizon in seconds")
        p.add_argument("--engine", default="packet-reference",
                       choices=sorted(OBS_ENGINES),
                       help="which of the four engines to run")
        p.add_argument("--mode", default="message",
                       choices=["message", "fluid-euler", "fluid-exact"],
                       help="regulator mode (packet engines)")
        p.add_argument("--fluid-mode", default="nonlinear",
                       choices=["linearized", "nonlinear", "physical"],
                       help="fluid fidelity mode (fluid engines)")

    p_trace = sub.add_parser(
        "trace", help="run one scenario and export the JSONL event trace")
    _add_obs_args(p_trace)
    p_trace.add_argument("--out", default="trace.jsonl",
                         help="output JSONL path")
    p_trace.set_defaults(func=_cmd_trace)

    p_prof = sub.add_parser(
        "profile", help="run one scenario and report spans + metrics")
    _add_obs_args(p_prof)
    p_prof.set_defaults(func=_cmd_profile)

    p_scen = sub.add_parser(
        "scenario",
        help="list or run the heavy-traffic scenario presets")
    p_scen.add_argument("preset", nargs="?", default=None,
                        help="preset name (omit to list the registry)")
    p_scen.add_argument("--list", action="store_true",
                        help="list the preset registry and exit")
    p_scen.add_argument("--engine", default="reference",
                        choices=["reference", "batched", "compiled"],
                        help="packet engine to run the scenario on")
    p_scen.add_argument("--seed", type=int, default=0,
                        help="seed for a single run")
    p_scen.add_argument("--seeds", type=int, default=None, metavar="N",
                        help="run an N-seed sweep (seeds 0..N-1) instead")
    p_scen.add_argument("--workers", type=int, default=None,
                        help="pool size for --seeds sweeps")
    p_scen.add_argument("--obs", action="store_true",
                        help="run under observability and print its summary")
    p_scen.add_argument("--plot", action="store_true",
                        help="ASCII-plot the queue trajectory")
    p_scen.set_defaults(func=_cmd_scenario)

    p_fabric = sub.add_parser(
        "fabric",
        help="run a fabric-scale workload on the serial or sharded engine")
    p_fabric.add_argument("--topology", default="fat-tree",
                          choices=["fat-tree", "dcell"])
    p_fabric.add_argument("--k", type=int, default=4,
                          help="fat-tree arity / DCell cell size")
    p_fabric.add_argument("--level", type=int, default=1,
                          help="DCell recursion level")
    p_fabric.add_argument("--capacity", type=float, default=10e9,
                          help="link capacity in bits/s")
    p_fabric.add_argument("--rounds", type=int, default=2,
                          help="permutation rounds (flows per host)")
    p_fabric.add_argument("--demand", type=float, default=1e9,
                          help="per-flow demand in bits/s")
    p_fabric.add_argument("--duration", type=float, default=2e-3,
                          help="simulated horizon in seconds")
    p_fabric.add_argument("--delay", type=float, default=1e-6,
                          help="per-hop propagation delay in seconds "
                               "(sets the sharded lookahead window)")
    p_fabric.add_argument("--q0-frames", type=float, default=8,
                          help="per-port BCN reference queue, in frames")
    p_fabric.add_argument("--buffer-frames", type=float, default=150,
                          help="per-port buffer, in frames")
    p_fabric.add_argument("--engine", default="reference",
                          choices=["reference", "batched", "compiled"],
                          help="event kernel (per shard when sharded)")
    p_fabric.add_argument("--shards", default=None, metavar="N|auto",
                          help="partition into N shards ('auto' = one "
                               "per worker); omit for the serial engine")
    p_fabric.add_argument("--workers", type=int, default=None,
                          help="worker processes hosting the shards")
    p_fabric.add_argument("--obs", action="store_true",
                          help="run under observability and print its summary")
    p_fabric.set_defaults(func=_cmd_fabric)

    p_exp = sub.add_parser("experiments", help="run paper reproductions")
    p_exp.add_argument("ids", nargs="*")
    p_exp.add_argument("--csv")
    p_exp.add_argument("--parallel", action="store_true",
                       help="run via the process-pool runner")
    p_exp.add_argument("--workers", type=int, default=None,
                       help="pool size for --parallel (default: cpu count)")
    p_exp.add_argument("--cache-dir", metavar="DIR",
                       help="content-addressed result cache directory")
    p_exp.add_argument("--no-cache", action="store_true",
                       help="ignore --cache-dir (cache disabled)")
    p_exp.set_defaults(func=_cmd_experiments)

    p_lint = sub.add_parser(
        "lint",
        help="run the repo-specific static analysis suite")
    p_lint.add_argument("paths", nargs="*", metavar="PATH",
                        help="files/directories to lint "
                             "(default: src/repro)")
    p_lint.add_argument("--format", default="text",
                        choices=["text", "json"],
                        help="finding output format")
    p_lint.add_argument("--select", action="append", metavar="CHECKS",
                        help="comma-separated check names to run "
                             "(default: all; see --list-checks)")
    p_lint.add_argument("--list-checks", action="store_true",
                        help="list registered check names and exit")
    p_lint.set_defaults(func=_cmd_lint)

    p_serve = sub.add_parser(
        "serve", help="run the asyncio job server over the runner")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="listening port (0 = ephemeral; the bound "
                              "port is printed as a JSON line on stdout)")
    p_serve.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="shared content-addressed result cache "
                              "(enables warm starts and cross-server dedup)")
    p_serve.add_argument("--spool-dir", metavar="DIR", default=None,
                         help="progress streams + drain requeue file "
                              "(default: CACHE_DIR/spool, else a tempdir)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="process-pool size per job (default: inline)")
    p_serve.add_argument("--max-concurrent", type=int, default=2,
                         help="jobs executing at once")
    p_serve.add_argument("--max-retries", type=int, default=1,
                         help="extra attempts after a worker fault")
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit one job to a running server")
    p_submit.add_argument("job", metavar="JOB_JSON",
                          help="job payload, e.g. '{\"kind\": \"scenario\", "
                               "\"preset\": \"baseline-bcn\", \"seed\": 1}'")
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, required=True)
    p_submit.add_argument("--timeout", type=float, default=300.0,
                          help="socket timeout in seconds")
    p_submit.add_argument("--watch", action="store_true",
                          help="stream progress events while waiting")
    p_submit.add_argument("--no-wait", action="store_true",
                          help="submit and print the job key immediately")
    p_submit.set_defaults(func=_cmd_submit)

    p_report = sub.add_parser(
        "report", help="run all experiments into a markdown report")
    p_report.add_argument("--out", default="REPORT.md")
    p_report.add_argument("--csv", metavar="DIR")
    p_report.add_argument("ids", nargs="*")
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
