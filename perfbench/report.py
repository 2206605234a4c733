"""Turning passes and ledgers into the benchmark's named metrics.

``END_TO_END`` and ``PER_LAYER`` are the metric lists ``BENCHMARK.json``
declares (a test keeps them in step).  Every per-layer metric is printed
on every workload; a layer a workload bypasses reads 0, and
``REQUIRED`` names, per workload, the wrapped boundaries that must have
fired, so a wrapper that stops matching its target fails the traced run
instead of quietly reading 0.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from . import layers
from .common import SPEED, median, percentile
from .workloads import PassResult

EXPERIMENT_IDS = ("d1", "fig10", "fig3", "fig4", "fig5", "fig6", "fig7",
                  "fig8", "fig9", "m1", "s1", "t1", "v1", "v2", "v3", "v4",
                  "v5", "v6")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)

#: (metric, ledger name) pairs read straight from the ledger's self
#: times, call counts and counters.
_SELF = (
    ("runner.experiments_s", "runner.experiments"),
    ("runner.sweep_s", "runner.sweep"),
    ("sim.dumbbell_s", "sim.dumbbell"),
    ("sim.fabric_s", "sim.fabric"),
    ("sim.window_s", "sim.window"),
    ("sim.pacing_s", "sim.pacing"),
    ("fluid.batch_s", "fluid.batch"),
    ("fluid.compiled_s", "fluid.compiled"),
    ("fluid.ivp_s", "fluid.ivp"),
    ("fluid.delay_s", "fluid.delay"),
    ("core.limit_cycle_s", "core.limit_cycle"),
    ("baselines_s", "baselines"),
    ("scen.point_s", "scen.point"),
    ("cache.get_s", "cache.get"),
    ("cache.put_s", "cache.put"),
    ("serve.codec_s", "serve.codec"),
    ("serve.normalize_s", "serve.normalize"),
    ("serve.execute_s", "serve.execute"),
)
_CALLS = (
    ("sim.dumbbell_runs", "sim.dumbbell"),
    ("sim.fabric_runs", "sim.fabric"),
    ("sim.windows", "sim.window"),
    ("scen.points", "scen.point"),
    ("cache.gets", "cache.get"),
    ("cache.puts", "cache.put"),
    ("serve.executes", "serve.execute"),
)
_COUNTS = (
    ("runner.points", "runner.points"),
    ("sim.events", "sim.events"),
    ("sim.core_switch_frames", "sim.core_switch_frames"),
    ("sim.bcn_applied", "sim.bcn_applied"),
    ("fluid.batch_rows", "fluid.batch_rows"),
    ("cache.put_bytes", "cache.put_bytes"),
)
LATENCY_KINDS = ("fresh", "sweep", "hit")

PER_LAYER = (
    tuple((f"exp.{eid}_s", "s") for eid in EXPERIMENT_IDS)
    + tuple((name, "s") for name, _ in _SELF)
    + tuple((name, "count") for name, _ in _CALLS)
    + tuple((name, "bytes" if name.endswith("bytes") else "count")
            for name, _ in _COUNTS)
    + (("cache.hit_ratio", "ratio"), ("serve.dedup_ratio", "ratio"),
       ("serve.wait_s", "s"))
    + tuple((f"{kind}_job_{q}_s", "s") for kind in LATENCY_KINDS
            for q in ("p50", "p90"))
    + tuple((f"{kind}_jobs", "count") for kind in LATENCY_KINDS)
    + (("setup.import_s", "s"), ("setup.kernel_load_s", "s"),
       ("setup.server_start_s", "s"), ("setup.kernel_build_s", "s"))
    + tuple((f"layer.{layer}_s", "s") for layer in layers.LAYERS)
    + (("layer.other_s", "s"), ("trace.basis_s", "s"),
       ("trace.overhead_s", "s"), ("calib.loop_s", "s"))
)

_FAST_EXPERIMENTS = ("exp.v2", "exp.v5", "exp.m1")
#: Per workload: ledger boundaries ("calls" or "counts") that must fire.
REQUIRED = {
    "paper_repro": (
        [("calls", f"exp.{eid}") for eid in EXPERIMENT_IDS]
        + [("calls", n) for n in (
            "runner.experiments", "sim.dumbbell", "sim.fabric",
            "fluid.batch", "fluid.ivp", "fluid.delay",
            "core.limit_cycle", "baselines")]
        + [("counts", n) for n in (
            "sim.events", "sim.core_switch_frames", "sim.bcn_applied",
            "fluid.batch_rows")]),
    "fast_engines": (
        [("calls", n) for n in _FAST_EXPERIMENTS + (
            "runner.experiments", "runner.sweep", "scen.point",
            "sim.dumbbell", "sim.fabric", "sim.window", "sim.pacing",
            "fluid.batch", "fluid.compiled")]
        + [("counts", n) for n in (
            "runner.points", "sim.events", "sim.core_switch_frames",
            "sim.bcn_applied", "fluid.batch_rows")]),
    "serve_mix": (
        [("calls", n) for n in (
            "serve.codec", "serve.normalize", "serve.execute",
            "cache.get", "cache.put", "runner.sweep", "scen.point",
            "sim.dumbbell", "sim.window", "sim.pacing")]
        + [("counts", n) for n in ("runner.points", "cache.put_bytes")]),
}


@dataclass
class Traced:
    result: PassResult
    ledger: dict
    #: wall time the ledger's layer self times and ``other`` add up to
    basis_s: float
    extra: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def traced_pass(workload, index: int) -> Traced:
    """Run one more pass with every layer wrapper installed."""
    traced = Traced(*workload.run_traced_pass(index))
    for table, name in REQUIRED[workload.name]:
        if not traced.ledger[table].get(name):
            traced.problems.append(
                f"traced {workload.name}: {name} never fired ({table} 0)")
    other = traced.basis_s - sum(traced.ledger["layer_s"].values())
    if other < -0.01 * traced.basis_s:
        traced.problems.append(
            f"layer self times exceed the traced wall by {-other:.4f}s")
    return traced


def end_to_end(workload, setups: list[dict], passes: list[PassResult],
               attempted: int, failed: int) -> dict:
    values = {
        "setup_s": median(s["setup_s"] for s in setups),
        "wall_s": median(p.ref_s for p in passes),
        "peak_rss_mb": workload.peak_rss_mb(),
        "ok_frac": (attempted - failed) / attempted,
    }
    return _named(END_TO_END, values)


def _latencies(passes: list[PassResult]) -> dict:
    values = {}
    for kind in LATENCY_KINDS:
        samples = [s for p in passes for k, s in p.latencies if k == kind]
        values[f"{kind}_jobs"] = len(samples)
        for q, name in ((0.5, "p50"), (0.9, "p90")):
            values[f"{kind}_job_{name}_s"] = (
                percentile(samples, q) if samples else 0.0)
    return values


def per_layer(workload, setups: list[dict], build_s: float,
              plain: PassResult, traced: Traced) -> dict:
    led = traced.ledger
    values = {f"exp.{eid}_s": led["incl_s"].get(f"exp.{eid}", 0.0)
              for eid in EXPERIMENT_IDS}
    for metric, name in _SELF:
        values[metric] = led["self_s"].get(name, 0.0)
    for metric, name in _CALLS:
        values[metric] = led["calls"].get(name, 0)
    for metric, name in _COUNTS:
        values[metric] = led["counts"].get(name, 0)
    gets = led["calls"].get("cache.get", 0)
    values["cache.hit_ratio"] = (led["counts"].get("cache.hits", 0) / gets
                                 if gets else 0.0)
    counters = traced.extra.get("counters", {})
    submitted = counters.get("serve.submitted", 0)
    values["serve.dedup_ratio"] = (
        (counters.get("serve.dedup.inflight", 0)
         + counters.get("serve.dedup.cache", 0)) / submitted
        if submitted else 0.0)
    values["serve.wait_s"] = traced.extra.get("wait_s", 0.0)
    values.update(_latencies([plain]))
    for key in ("import_s", "kernel_load_s", "server_start_s"):
        values[f"setup.{key}"] = median(s.get(key, 0.0) for s in setups)
    values["setup.kernel_build_s"] = build_s
    for layer in layers.LAYERS:
        values[f"layer.{layer}_s"] = led["layer_s"].get(layer, 0.0)
    values["layer.other_s"] = traced.basis_s - sum(led["layer_s"].values())
    values["trace.basis_s"] = traced.basis_s
    values["trace.overhead_s"] = traced.result.ref_s - plain.ref_s
    values["calib.loop_s"] = median(SPEED.samples)
    return _named(PER_LAYER, values)


def _named(table, values: dict) -> dict:
    if set(values) != {name for name, _ in table}:
        raise KeyError(f"metric set mismatch: "
                       f"{set(values) ^ {name for name, _ in table}}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in table}


def summary(metrics: dict) -> None:
    for name, metric in metrics.items():
        value = metric["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:28s} {text:>14s} {metric['unit']}", file=sys.stderr)
