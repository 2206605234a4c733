"""The three workloads: set-up, one timed pass, and its output checks.

A pass is a fixed amount of work fixed by the seed.  Only the calls
into ``repro`` are inside the timed regions; checks run after them with
the ledger switched off, so they count in neither the wall time nor the
per-layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import json
import shutil
import signal
import socket
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import checks, layers, plans
from .common import (BENCH_DIR, GOLDEN_DIR, ROOT, SPEED, WORK, child_env,
                     peak_rss_mb_of, peak_rss_mb_self, python_cmd)
from .ledger import Ledger


@dataclass
class PassResult:
    #: measured seconds of the timed regions, speed samples left out
    wall_s: float = 0.0
    #: the same at the reference machine speed (``common.SpeedSampler``)
    ref_s: float = 0.0
    #: seconds of the speed samples taken inside the regions
    loop_s: float = 0.0
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    #: serve_mix only: (kind, seconds) per request
    latencies: list[tuple[str, float]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def unit(self, problems: list[str]) -> None:
        """Record one checked unit; it fails if it has any problem."""
        self.attempted += 1
        if problems:
            self.problems.append("; ".join(problems))


@contextlib.contextmanager
def _timed(result: PassResult, ledger: Ledger | None):
    """Time a region into ``result``; arm the ledger inside it."""
    with SPEED.region(result):
        if ledger is not None:
            ledger.enabled = True
        try:
            yield
        finally:
            if ledger is not None:
                ledger.enabled = False


@functools.lru_cache(maxsize=None)
def _preset_bits(preset: str, seed: int) -> tuple[int, float]:
    from repro.scenarios import get_preset

    scenario = get_preset(preset, seed)
    return scenario.params.n_flows, scenario.frame_bits


def slack_bits(preset: str, seed: int, record: dict) -> float:
    """The runtime's documented in-flight allowance for a scenario record:
    one frame per static and dynamic source, plus two."""
    n_flows, frame_bits = _preset_bits(preset, seed)
    return (n_flows + record["n_dynamic_flows"] + 2) * frame_bits


def _probe_setup(workload: str) -> dict:
    """Spawn a fresh interpreter that sets the workload up; time it."""
    timed = PassResult()
    proc = None
    try:
        with SPEED.region(timed):
            proc = subprocess.Popen(
                python_cmd(str(BENCH_DIR / "setup_probe.py"), workload),
                env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
            line = proc.stdout.readline()
    finally:
        if proc is not None:
            proc.stdout.close()
            rc = proc.wait(timeout=60)
    if rc != 0 or not line:
        raise RuntimeError(f"set-up probe for {workload} exited {rc}")
    return dict(json.loads(line), raw_setup_s=timed.wall_s,
                setup_s=timed.ref_s)


class ClientWorkload:
    """A workload whose load runs in the benchmark process itself."""

    name = ""

    def measure_setup(self, samples: int) -> list[dict]:
        return [_probe_setup(self.name) for _ in range(samples)]

    def stop(self) -> list[str]:
        return []

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_self()

    def run_traced_pass(self, index: int) -> tuple[PassResult, dict, float, dict]:
        """One pass with every layer wrapper installed in this process.

        Returns the pass, the ledger, the wall time the ledger reconciles
        with, and extra readings (none here).
        """
        layers.import_layers()
        ledger = Ledger()
        ledger.enabled = False
        layers.install_client(ledger)
        result = self.run_pass(index, ledger)
        # The ledger's wrapped calls include the speed samples taken
        # inside them, so the basis is the whole time of the regions.
        return (result, ledger.snapshot(), result.wall_s + result.loop_s,
                {})


class PaperRepro(ClientWorkload):
    """Every registered experiment once, default options, golden-checked."""

    name = "paper_repro"
    nominal_pass_s = 26.0

    def start(self, seed: int) -> None:
        import repro.experiments  # noqa: F401 — registration
        from repro.experiments.base import all_experiments

        self.order = plans.paper_order(seed, all_experiments())

    def run_pass(self, index: int, ledger: Ledger | None = None) -> PassResult:
        import repro.runner

        out = PassResult()
        with _timed(out, ledger):
            pairs = repro.runner.run_experiments(self.order, workers=0,
                                                 cache=None)
        with tempfile.TemporaryDirectory(dir=WORK) as scratch:
            for _, result in pairs:
                out.unit(checks.check_experiment(result, GOLDEN_DIR,
                                                 Path(scratch)))
        return out


class FastEngines(ClientWorkload):
    """The compiled/batched tiers: experiments, scenario sweeps, fluid bundles."""

    name = "fast_engines"
    nominal_pass_s = 11.5

    def start(self, seed: int) -> None:
        import repro.experiments  # noqa: F401 — registration
        from repro.experiments import presets
        from repro.scenarios import preset_names

        self.plan = plans.fast_plan(seed)
        self.presets = preset_names()
        self.cases = {name: getattr(presets, name)
                      for name in plans.FLUID_CASES}
        #: case -> checked rows of the first pass (later passes must match)
        self.reference_rows: dict[str, list[dict]] = {}

    def run_pass(self, index: int, ledger: Ledger | None = None) -> PassResult:
        import repro.runner
        import repro.scenarios
        from repro.fluid import batch

        out = PassResult()
        for experiment_id, options in plans.FAST_EXPERIMENTS:
            with _timed(out, ledger):
                (_, result), = repro.runner.run_experiments(
                    [experiment_id], workers=0, cache=None, options=options)
            out.unit(checks.check_experiment(result, GOLDEN_DIR, WORK,
                                             compare_golden=False))

        for preset in self.presets:
            records = {}
            for engine in plans.SWEEP_ENGINES:
                with _timed(out, ledger):
                    sweep = repro.scenarios.run_scenario_sweep(
                        preset, seeds=self.plan.scenario_seeds,
                        engine=engine, workers=0, cache=None)
                records[engine] = sweep.records
            fast, other = (records[e] for e in plans.SWEEP_ENGINES)
            for seed, a, b in zip(self.plan.scenario_seeds, fast, other):
                out.unit(checks.check_scenario_pair(
                    a, b, slack_bits(preset, seed, a)))
            if len(fast) != len(self.plan.scenario_seeds) \
                    or len(other) != len(fast):
                out.unit([f"{preset}: sweep lost records"])

        for name, params in self.cases.items():
            x, y = self.plan.orbit_starts[name]
            x0, y0 = x * params.q0, y * params.capacity
            with _timed(out, ledger):
                result = batch.simulate_fluid_batch(
                    params, x0, y0, t_max=plans.FLUID_T_MAX,
                    mode="nonlinear", fluid_method="auto")
            rows = [checks.fluid_row(result, r)
                    for r in plans.FLUID_CHECK_ROWS]
            del result
            out.unit(self._check_rows(name, params, x0, y0, rows))
        return out

    def _check_rows(self, name, params, x0, y0, rows) -> list[str]:
        """First pass: against a numpy re-run; later: against the first."""
        from repro.fluid import batch

        reference = self.reference_rows.get(name)
        if reference is None:
            picked = list(plans.FLUID_CHECK_ROWS)
            numpy = batch.simulate_fluid_batch(
                params, x0[picked], y0[picked], t_max=plans.FLUID_T_MAX,
                mode="nonlinear", fluid_method="numpy")
            reference = [checks.fluid_row(numpy, i)
                         for i in range(len(picked))]
            self.reference_rows[name] = reference
        problems = []
        for row, fast, ref in zip(plans.FLUID_CHECK_ROWS, rows, reference):
            problems += checks.check_fluid_row(f"{name}[{row}]", fast, ref)
        return problems


# -- serve_mix ---------------------------------------------------------------

WARMUP_JOB = {"kind": "scenario", "preset": "dc-baseline", "seed": 0,
              "engine": plans.SERVE_ENGINE}
HOST = "127.0.0.1"


@dataclass
class ServerProcess:
    proc: subprocess.Popen
    port: int
    cache_dir: Path
    stderr_path: Path
    start_s: float
    warmup_s: float
    #: canonical payloads of every distinct job this server was sent
    distinct: set = field(default_factory=set)


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class ServeMix:
    """A ``repro serve --max-concurrent 1`` server and two closed-loop clients."""

    name = "serve_mix"
    nominal_pass_s = 9.0
    requests_per_connection = 600

    def __init__(self) -> None:
        self.server: ServerProcess | None = None
        self.setup_problems: list[str] = []
        self.first_envelope: dict[bytes, bytes] = {}
        #: (preset, seed) -> the first record any job returned for it
        self.point_records: dict[tuple[str, int], str] = {}
        self.rss_mb: float | None = None

    # -- server lifecycle ---------------------------------------------------

    def _launch(self, ledger_out: Path | None = None) -> ServerProcess:
        from repro.serve.client import ServeClient

        cache_dir = Path(tempfile.mkdtemp(dir=WORK, prefix="serve-cache-"))
        stderr_path = cache_dir.with_suffix(".stderr")
        env = child_env()
        if ledger_out is None:
            cmd = python_cmd("-m", "repro", "serve")
        else:
            cmd = python_cmd(str(BENCH_DIR / "serve_launcher.py"), "serve")
            env["PERFBENCH_LEDGER_OUT"] = str(ledger_out)
        # One job executes at a time.  With the default two, both job
        # threads convoy on the GIL: passes ran 15-20% slower on a 2-vCPU
        # VM and doubled under host CPU steal, too noisy to gate on.
        cmd += ["--cache-dir", str(cache_dir), "--max-concurrent", "1"]
        t0 = time.perf_counter()
        with open(stderr_path, "w") as err:
            proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stderr=err,
                                    stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            port = int(json.loads(line)["listening"]["port"])
            with ServeClient(HOST, port, timeout=120) as client:
                client.run(WARMUP_JOB)
            t2 = time.perf_counter()
        except Exception:
            proc.kill()
            proc.wait(timeout=30)
            raise
        return ServerProcess(proc, port, cache_dir, stderr_path,
                             t1 - t0, t2 - t1, {_canonical(WARMUP_JOB)})

    def _shutdown(self, server: ServerProcess) -> list[str]:
        """SIGTERM, wait, and confirm a clean drain with the port freed."""
        problems = []
        server.proc.send_signal(signal.SIGTERM)
        try:
            rc = server.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.proc.kill()
            rc = server.proc.wait(timeout=30)
            problems.append("server ignored SIGTERM")
        server.proc.stdout.close()
        if rc != 0:
            problems.append(f"server exited {rc}")
        drained = [line for line in server.stderr_path.read_text().splitlines()
                   if line.startswith("drained: ")]
        if not drained:
            problems.append("server printed no drain report")
        elif json.loads(drained[-1][len("drained: "):]).get(
                "serve.requeued", 0):
            problems.append(f"drain requeued jobs: {drained[-1]}")
        with socket.socket() as probe:
            probe.settimeout(2.0)
            if probe.connect_ex((HOST, server.port)) == 0:
                problems.append(f"port {server.port} still accepts")
        shutil.rmtree(server.cache_dir, ignore_errors=True)
        server.stderr_path.unlink(missing_ok=True)
        return problems

    def measure_setup(self, samples: int) -> list[dict]:
        """Start ``samples`` servers through the CLI; keep the last one."""
        t0 = time.perf_counter()
        import repro.serve.client  # noqa: F401
        import repro.scenarios  # noqa: F401
        import_s = time.perf_counter() - t0
        out = []
        for i in range(samples):
            timed = PassResult()
            with SPEED.region(timed):
                server = self._launch()
            out.append({"import_s": import_s,
                        "server_start_s": server.start_s,
                        "kernel_load_s": server.warmup_s,
                        "raw_setup_s": timed.wall_s,
                        "setup_s": timed.ref_s})
            if i < samples - 1:
                self.setup_problems += self._shutdown(server)
            else:
                self.server = server
        return out

    def start(self, seed: int) -> None:
        from repro.scenarios import preset_names

        self.seed = seed
        self.presets = preset_names()

    # -- load -----------------------------------------------------------------

    def _drive(self, server: ServerProcess,
               index: int) -> tuple[PassResult, list, dict]:
        from repro.serve.client import ServeClient, ServeError

        plans_by_conn = [
            plans.serve_plan(self.seed, index, conn,
                             self.requests_per_connection, self.presets)
            for conn in range(plans.SERVE_CONNECTIONS)]
        responses: list[list] = [[] for _ in plans_by_conn]
        errors: list[str] = []

        def connection(conn: int) -> None:
            try:
                with ServeClient(HOST, server.port, timeout=120) as client:
                    for request in plans_by_conn[conn]:
                        t0 = time.perf_counter()
                        try:
                            response = client.submit(request.payload,
                                                     wait=True)
                        except ServeError as exc:
                            response = {"error": str(exc)}
                        responses[conn].append(
                            (request, response, time.perf_counter() - t0))
            except Exception as exc:  # noqa: BLE001 — reported as a failure
                errors.append(f"connection {conn}: {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=connection, args=(c,))
                   for c in range(plans.SERVE_CONNECTIONS)]
        out = PassResult()
        with SPEED.region(out):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for error in errors:
            out.unit([error])
        done = [item for conn in responses for item in conn]
        for conn, plan in enumerate(plans_by_conn):
            if len(responses[conn]) != len(plan):
                out.unit([f"connection {conn} answered "
                          f"{len(responses[conn])}/{len(plan)} requests"])
        for request, response, latency in done:
            out.unit(self._check_response(server, request, response))
            out.latencies.append((request.kind, latency))
        with ServeClient(HOST, server.port, timeout=60) as client:
            counters = client.stats()["counters"]
        computed = counters.get("serve.computed", 0)
        out.unit([] if computed == len(server.distinct) else
                 [f"serve.computed {computed} != {len(server.distinct)} "
                  "distinct requests"])
        return out, done, counters

    def _check_response(self, server: ServerProcess, request,
                        response) -> list[str]:
        if response.get("state") != "done" or "result" not in response:
            return [f"{request.kind} job ended {response.get('state')}: "
                    f"{response.get('failure') or response.get('error')}"]
        expected = "done" if request.kind == "hit" else "new"
        if response.get("dedup") != expected:
            return [f"{request.kind} job deduplicated as "
                    f"{response.get('dedup')!r}, expected {expected!r}"]
        key = _canonical(request.payload)
        envelope = _canonical(response["result"])
        if request.kind == "hit":
            return checks.check_envelope(self.first_envelope[key], envelope)
        server.distinct.add(key)
        self.first_envelope[key] = envelope
        payload = response["result"].get("payload", {})
        records = (payload.get("records", []) if request.kind == "sweep"
                   else [payload["record"]] if "record" in payload else [])
        return checks.check_job_records(request.payload, records,
                                        self.point_records, slack_bits)

    def run_pass(self, index: int, ledger: Ledger | None = None) -> PassResult:
        out, _, _ = self._drive(self.server, index)
        return out

    def stop(self) -> list[str]:
        problems = list(self.setup_problems)
        if self.server is not None:
            self.rss_mb = peak_rss_mb_of(self.server.proc.pid)
            problems += self._shutdown(self.server)
            self.server = None
        return problems

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def run_traced_pass(self, index: int) -> tuple[PassResult, dict, float, dict]:
        """One pass against a server started through the tracing launcher.

        The reconciliation basis is the summed client latency
        (connection-seconds), since the server works on both
        connections' jobs at once.  Extra readings: the server's
        ``stats`` counters and the client wait outside ``execute_job``.
        """
        ledger_out = WORK / f"serve-ledger-{index}.json"
        server = self._launch(ledger_out)
        try:
            from repro.serve.client import ServeClient

            server.proc.send_signal(signal.SIGUSR1)  # drop warm-up numbers
            with ServeClient(HOST, server.port, timeout=60) as client:
                client.ping()
            out, done, counters = self._drive(server, index)
        finally:
            problems = self._shutdown(server)
        out.unit(problems)
        dump = json.loads(ledger_out.read_text())
        ledger_out.unlink()
        walls = dump["execute_walls"]
        wait_s = sum(
            latency - walls[response["key"]] for _, response, latency in done
            if response.get("dedup") == "new" and response.get("key") in walls)
        basis = sum(latency for _, _, latency in done)
        return out, dump["ledger"], basis, {"wait_s": wait_s,
                                            "counters": counters}


WORKLOADS = {w.name: w for w in (PaperRepro, FastEngines, ServeMix)}
