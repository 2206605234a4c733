"""Every checker passes good output and rejects one corrupted output."""

import json

import numpy as np
import pytest

from perfbench import checks
from perfbench.common import GOLDEN_DIR


def test_self_test_finds_no_blind_checker():
    assert checks.self_test(GOLDEN_DIR) == []


@pytest.fixture(scope="module")
def fig6():
    import repro.experiments  # noqa: F401
    from repro.experiments.base import get_experiment

    return get_experiment("fig6")()


def test_experiment_check_passes_the_real_result(fig6, tmp_path):
    assert checks.check_experiment(fig6, GOLDEN_DIR, tmp_path) == []


def test_experiment_check_rejects_a_shifted_column(fig6, tmp_path):
    column = sorted(fig6.series)[0]
    original = fig6.series[column]
    fig6.series[column] = np.roll(np.asarray(original), 1)
    try:
        problems = checks.check_experiment(fig6, GOLDEN_DIR, tmp_path)
    finally:
        fig6.series[column] = original
    assert any("drifted" in p for p in problems)


def test_experiment_check_rejects_a_failed_verdict(fig6, tmp_path):
    name = next(iter(fig6.verdicts))
    fig6.verdicts[name] = False
    try:
        problems = checks.check_experiment(fig6, GOLDEN_DIR, tmp_path)
    finally:
        fig6.verdicts[name] = True
    assert problems == [f"fig6: verdict {name} failed"]


def scenario_pair():
    from repro.scenarios import get_preset
    from repro.scenarios.sweep import ScenarioPoint, evaluate_scenario_point

    records = [evaluate_scenario_point(ScenarioPoint("dc-baseline", e, 4))
               for e in ("compiled", "batched")]
    scenario = get_preset("dc-baseline", 4)
    slack = (scenario.params.n_flows + records[0]["n_dynamic_flows"] + 2) \
        * scenario.frame_bits
    return records, slack


def test_scenario_check_flipped_field():
    (a, b), slack = scenario_pair()
    assert checks.check_scenario_pair(a, b, slack) == []
    flipped = dict(b, pauses=b["pauses"] + 1)
    assert checks.check_scenario_pair(a, flipped, slack)


def test_envelope_check_truncated():
    envelope = json.dumps({"payload": {"record": {"x": 1.5}}},
                          sort_keys=True).encode()
    assert checks.check_envelope(envelope, envelope) == []
    assert checks.check_envelope(envelope, envelope[:-3]) \
        == ["envelope differs from the first response"]


def test_job_record_check_holds_cached_points_against_direct_runs(tmp_path):
    from repro.runner.cache import ResultCache
    from repro.scenarios import run_scenario_sweep
    from repro.scenarios.sweep import ScenarioPoint, evaluate_scenario_point

    from perfbench.workloads import slack_bits

    def wire(value):
        return json.loads(json.dumps(value))

    seen = {}
    for seed in (4, 5):
        job = {"kind": "scenario", "preset": "dc-baseline", "seed": seed,
               "engine": "compiled"}
        record = wire(evaluate_scenario_point(
            ScenarioPoint("dc-baseline", "compiled", seed)))
        assert checks.check_job_records(job, [record], seen, slack_bits) == []
    job = {"kind": "sweep", "preset": "dc-baseline", "seeds": [4, 5],
           "engine": "compiled"}
    cache = ResultCache(tmp_path)
    for _ in range(2):  # computed and stored, then read back
        records = wire(run_scenario_sweep(
            "dc-baseline", seeds=[4, 5], engine="compiled", workers=0,
            cache=cache).records)
        assert checks.check_job_records(job, records, seen, slack_bits) == []
    assert cache.stats.hits == 2
    swapped = [dict(r, seed=s) for r, s in zip(records[::-1], (4, 5))]
    problems = checks.check_job_records(job, swapped, seen, slack_bits)
    assert len(problems) == 2 and all("differs" in p for p in problems)
    problems = checks.check_job_records(job, records[::-1], seen, slack_bits)
    assert len(problems) == 2 and all("record is for" in p for p in problems)


def test_fluid_check_compiled_against_numpy():
    from repro.experiments.presets import CASE4
    from repro.fluid.batch import simulate_fluid_batch

    x0 = np.linspace(-0.5, 0.4, 4) * CASE4.q0
    fast = simulate_fluid_batch(CASE4, x0, 0.0, t_max=10.0,
                                fluid_method="auto")
    ref = simulate_fluid_batch(CASE4, x0, 0.0, t_max=10.0,
                               fluid_method="numpy")
    row = checks.fluid_row(fast, 2)
    assert checks.check_fluid_row("r", row, checks.fluid_row(ref, 2)) == []
    row["y"][5] = np.nextafter(row["y"][5], np.inf)
    assert checks.check_fluid_row("r", row, checks.fluid_row(ref, 2))


def test_switch_frame_counter_equals_receive_calls():
    """The counted (unwrapped) frame boundary matches a per-call count."""
    from perfbench.layers import _switch_frames
    from repro.scenarios import base_params
    from repro.simulation.network import BCNNetworkSimulator
    from repro.simulation.switch import CoreSwitch

    calls = []
    original = CoreSwitch.receive

    def counting(self, frame):
        calls.append(1)
        return original(self, frame)

    CoreSwitch.receive = counting
    try:
        net = BCNNetworkSimulator(base_params(buffer_size=1.5e6))
        net.run(0.02)
    finally:
        CoreSwitch.receive = original
    assert calls and _switch_frames(net.switch) == len(calls)
