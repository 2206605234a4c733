"""Seeded generation: same seed, same inputs and counts; new seed, new inputs."""

import numpy as np
import pytest

from perfbench import plans
from perfbench.common import percentile
from perfbench.ledger import Ledger

PRESETS = ("churn-heavy", "combined-stress", "dc-baseline", "incast-32",
           "lossy-outage", "varying-capacity")
IDS = ("fig3", "fig6", "v1", "v2", "v6")


def all_plans(seed):
    fast = plans.fast_plan(seed)
    return {
        "paper": plans.paper_order(seed, IDS),
        "fast": (fast.scenario_seeds,
                 {name: (x.tolist(), y.tolist())
                  for name, (x, y) in fast.orbit_starts.items()}),
        "serve": [[(r.kind, r.payload) for r in
                   plans.serve_plan(seed, p, c, 200, PRESETS)]
                  for p in range(2) for c in range(plans.SERVE_CONNECTIONS)],
    }


def test_same_seed_gives_identical_plans():
    assert all_plans(7) == all_plans(7)


def test_different_seeds_give_different_plans():
    a, b = all_plans(7), all_plans(8)
    for key in a:
        assert a[key] != b[key], key


def test_serve_plan_mix_and_keys():
    plan = plans.serve_plan(3, 0, 1, 400, PRESETS)
    kinds = [r.kind for r in plan]
    assert 0.15 < kinds.count("fresh") / len(plan) < 0.35
    assert 0.15 < kinds.count("sweep") / len(plan) < 0.35
    new = [repr(r.payload) for r in plan if r.kind != "hit"]
    assert len(new) == len(set(new)), "fresh and sweep requests repeat"
    seen = set()
    for r in plan:
        key = repr(r.payload)
        assert (key in seen) == (r.kind == "hit")
        seen.add(key)
    other = {repr(r.payload) for r in plans.serve_plan(3, 0, 0, 400, PRESETS)}
    assert not other & seen, "connections share requests"
    warmup = {"kind": "scenario", "preset": "dc-baseline", "seed": 0,
              "engine": plans.SERVE_ENGINE}
    assert repr(warmup) not in seen | other


def test_most_fresh_points_turn_up_in_sweeps():
    plan = plans.serve_plan(3, 0, 1, 600, PRESETS)
    fresh = {(r.payload["preset"], r.payload["seed"])
             for r in plan if r.kind == "fresh"}
    swept = {(r.payload["preset"], seed)
             for r in plan if r.kind == "sweep"
             for seed in r.payload["seeds"]}
    assert len(fresh & swept) > len(fresh) / 2


@pytest.fixture(scope="module")
def ledger():
    from perfbench import layers

    layers.import_layers()
    ledger = Ledger()
    layers.install_client(ledger)
    return ledger


def traced_counts(ledger, seed):
    from repro.experiments.presets import CASE1
    from repro.fluid.batch import simulate_fluid_batch
    from repro.scenarios import run_scenario_sweep

    plan = plans.fast_plan(seed)
    ledger.reset()
    run_scenario_sweep("dc-baseline", seeds=plan.scenario_seeds[:2],
                       engine="compiled", workers=0, cache=None)
    x, y = plan.orbit_starts["CASE1"]
    simulate_fluid_batch(CASE1, x[:8] * CASE1.q0, y[:8] * CASE1.capacity,
                         t_max=5.0, fluid_method="auto")
    snap = ledger.snapshot()
    return snap["calls"], snap["counts"]


def test_same_seed_gives_identical_layer_counts(ledger):
    first = traced_counts(ledger, 5)
    assert first == traced_counts(ledger, 5)
    calls, counts = first
    for name in ("runner.sweep", "scen.point", "sim.dumbbell", "sim.window",
                 "sim.pacing", "fluid.batch"):
        assert calls.get(name), name
    assert counts["runner.points"] == 2
    assert counts["fluid.batch_rows"] == 8
    assert first != traced_counts(ledger, 6)


def test_percentile_refuses_a_thin_tail():
    values = list(np.linspace(0.0, 1.0, 100))
    assert percentile(values, 0.9) == pytest.approx(values[89])
    with pytest.raises(ValueError, match="beyond"):
        percentile(values[:99], 0.9)
    assert percentile(values[:20], 0.5) == pytest.approx(values[9])
    with pytest.raises(ValueError):
        percentile(values[:19], 0.5)
