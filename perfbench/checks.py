"""Output checks: each returns a list of problems, empty when the output is right.

A unit of work counts toward ``ok_frac`` only when its check returns no
problem.  :func:`self_test` feeds each checker one corrupted output and
reports any checker that lets it through, so a checker that has gone
blind fails the run instead of passing everything.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: The golden suite's tolerances (tests/regression/test_golden_series.py).
GOLDEN_RTOL = 1e-7
GOLDEN_ATOL = 1e-12


def load_series_csv(path: Path) -> dict[str, np.ndarray]:
    lines = Path(path).read_text().strip().splitlines()
    names = lines[0].split(",")
    rows = [[float(cell) if cell else np.nan for cell in line.split(",")]
            for line in lines[1:]]
    data = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return {name: data[:, i] for i, name in enumerate(names)}


def compare_series(experiment_id: str, fresh: dict, golden: dict) -> list[str]:
    """Column-by-column comparison at the golden suite's tolerances."""
    if list(fresh) != list(golden):
        return [f"{experiment_id}: columns {list(fresh)} != golden {list(golden)}"]
    problems = []
    for column, g in golden.items():
        f = fresh[column]
        if f.shape != g.shape:
            problems.append(f"{experiment_id}.{column}: length {f.shape} "
                            f"!= golden {g.shape}")
            continue
        if not np.array_equal(np.isnan(f), np.isnan(g)):
            problems.append(f"{experiment_id}.{column}: NaN padding moved")
            continue
        mask = ~np.isnan(g)
        if not np.allclose(f[mask], g[mask], rtol=GOLDEN_RTOL,
                           atol=GOLDEN_ATOL):
            problems.append(f"{experiment_id}.{column}: drifted from golden")
    return problems


def check_experiment(result, golden_dir: Path, scratch: Path,
                     *, compare_golden: bool = True) -> list[str]:
    """Every verdict passes; series match ``<golden_dir>/<id>.csv``."""
    eid = result.experiment_id
    problems = [f"{eid}: verdict {name} failed"
                for name in result.failing_verdicts()]
    if not result.verdicts:
        problems.append(f"{eid}: no verdicts")
    if not compare_golden:
        return problems
    golden_path = Path(golden_dir) / f"{eid}.csv"
    written = result.save_series(scratch)
    if written is None:
        if golden_path.exists():
            problems.append(f"{eid}: golden exists but no series produced")
        return problems
    if not golden_path.exists():
        return problems + [f"{eid}: series produced but no golden CSV"]
    return problems + compare_series(
        eid, load_series_csv(written), load_series_csv(golden_path))


def _canonical_record(record: dict) -> str:
    return json.dumps({k: v for k, v in record.items() if k != "engine"},
                      sort_keys=True)


def check_scenario_pair(record_a: dict, record_b: dict,
                        slack_bits: float) -> list[str]:
    """Bits are conserved and both fast engines agree bit for bit.

    ``slack_bits`` is the in-flight allowance the scenario runtime
    documents for ``conservation_error``: one frame per source on its
    uplink plus the switch's frame in service (``(n_sources + 2) *
    frame_bits``), the bound the repo's conformance suites assert.
    """
    problems = [f"{r['preset']}/{r['engine']}: conservation error "
                f"{r['conservation_error']!r} beyond {slack_bits} bits"
                for r in (record_a, record_b)
                if not abs(r["conservation_error"]) <= slack_bits]
    if _canonical_record(record_a) != _canonical_record(record_b):
        problems.append(f"{record_a['preset']}: {record_a['engine']} and "
                        f"{record_b['engine']} records differ")
    return problems


def fluid_row(result, row: int) -> dict:
    """One orbit of a batch result, copied out of the ensemble arrays."""
    return {
        "x": result.x[:, row].copy(), "y": result.y[:, row].copy(),
        "t_end": result.t_end[row],
        "x_end": result.x_end[row], "y_end": result.y_end[row],
        "switches": result.switch_counts[row],
        "converged": result.converged[row],
        "end_reason": result.end_reason[row], "events": result.events[row],
    }


def _same(a, b) -> bool:
    if isinstance(a, (str, list)):
        return a == b
    return bool(np.array_equal(a, b))


def check_fluid_row(label: str, fast: dict, reference: dict) -> list[str]:
    """A compiled orbit equals its numpy re-run bit for bit.

    Frozen rows repeat their end state to the end of the shared grid,
    so the shorter sample array must be a prefix and the rest of the
    longer one its final state.
    """
    problems = [f"{label}: {key} differs from numpy"
                for key in ("t_end", "x_end", "y_end", "switches",
                            "converged", "end_reason", "events")
                if not _same(fast[key], reference[key])]
    for key in ("x", "y"):
        a, b = fast[key], reference[key]
        n = min(a.size, b.size)
        longer = a if a.size > b.size else b
        if not (np.array_equal(a[:n], b[:n])
                and np.all(longer[n:] == longer[n - 1])):
            problems.append(f"{label}: {key} samples differ from numpy")
    return problems


def check_envelope(first: bytes, again: bytes) -> list[str]:
    """A repeated job returns the same envelope as its first run.

    Both sides are the canonical re-serialisation of the parsed reply.
    """
    if again != first:
        return ["envelope differs from the first response"]
    return []


def check_job_records(job: dict, records: list, seen: dict,
                      slack_bits) -> list[str]:
    """The records a scenario or sweep job returned.

    One record per requested seed, for the requested preset and engine,
    with bits conserved within ``slack_bits(preset, seed, record)``, and
    equal to every record any other job returned for the same point:
    ``seen`` maps ``(preset, seed)`` to the first record returned for
    it.  Scenario jobs evaluate their point directly while sweep points
    go through the result cache, so a point read from the cache is held
    against a direct run of the same seed.
    """
    seeds = job["seeds"] if job["kind"] == "sweep" else [job["seed"]]
    preset = job["preset"]
    if len(records) != len(seeds):
        return [f"{job['kind']} {preset}: {len(records)} records for "
                f"{len(seeds)} seeds"]
    problems = []
    for seed, record in zip(seeds, records):
        label = f"{preset}[{seed}]"
        if (record.get("preset"), record.get("engine"),
                record.get("seed", seed)) != (preset, job["engine"], seed):
            problems.append(f"{label}: record is for {record.get('preset')}"
                            f"/{record.get('engine')}[{record.get('seed')}]")
            continue
        slack = slack_bits(preset, seed, record)
        if not abs(record["conservation_error"]) <= slack:
            problems.append(f"{label}: conservation error "
                            f"{record['conservation_error']!r} beyond "
                            f"{slack} bits")
        # A sweep adds its axis value (the seed) to each record.
        canonical = json.dumps({k: v for k, v in record.items()
                                if k != "seed"}, sort_keys=True)
        if seen.setdefault((preset, seed), canonical) != canonical:
            problems.append(f"{label}: record differs from another job's "
                            "record of the same point")
    return problems


def self_test(golden_dir: Path) -> list[str]:
    """Feed every checker one corrupted output; report those that pass it."""
    failures = []
    golden_path = min(Path(golden_dir).glob("*.csv"))
    golden = load_series_csv(golden_path)
    column = next(iter(golden))
    shifted = dict(golden)
    shifted[column] = np.roll(golden[column], 1)
    if compare_series(golden_path.stem, golden, golden):
        failures.append("compare_series rejects an exact golden")
    if not compare_series(golden_path.stem, shifted, golden):
        failures.append("compare_series accepts a shifted golden column")

    record = {"preset": "p", "engine": "compiled", "conservation_error": 0,
              "dropped_frames": 3, "fcts": [1.0, None]}
    twin = dict(record, engine="batched")
    flipped = dict(twin, dropped_frames=4)
    leaky = dict(record, conservation_error=24_001.0)
    if check_scenario_pair(record, twin, 24_000.0):
        failures.append("check_scenario_pair rejects identical records")
    if not check_scenario_pair(record, flipped, 24_000.0):
        failures.append("check_scenario_pair accepts a flipped field")
    if not check_scenario_pair(leaky, dict(leaky, engine="batched"),
                               24_000.0):
        failures.append("check_scenario_pair accepts lost bits")

    envelope = json.dumps({"payload": {"record": record}}).encode()
    if check_envelope(envelope, envelope):
        failures.append("check_envelope rejects an identical envelope")
    if not check_envelope(envelope, envelope[:-1]):
        failures.append("check_envelope accepts a truncated envelope")

    job = {"kind": "sweep", "preset": "p", "engine": "compiled",
           "seeds": [1, 2]}
    one, two = dict(record, fcts=[1.0]), dict(record, fcts=[2.0])
    seen: dict = {}

    def slack(preset, seed, record):
        return 24_000.0

    if check_job_records(job, [one, two], seen, slack):
        failures.append("check_job_records rejects consistent records")
    if not check_job_records(dict(job, seeds=[2, 1]), [one, two], seen,
                             slack):
        failures.append("check_job_records accepts swapped points")
    if not check_job_records(job, [one], {}, slack):
        failures.append("check_job_records accepts a lost record")
    if not check_job_records(job, [one, leaky], {}, slack):
        failures.append("check_job_records accepts lost bits")

    row = {"x": np.array([1.0, 0.5, 0.25]), "y": np.array([0.0, 0.1, 0.2]),
           "t_end": 2.0, "x_end": 0.25, "y_end": 0.2, "switches": 1,
           "converged": True, "end_reason": "converged", "events": []}
    bent = dict(row, x=np.array([1.0, 0.5, np.nextafter(0.25, 1.0)]))
    if check_fluid_row("row", row, row):
        failures.append("check_fluid_row rejects an identical orbit")
    if not check_fluid_row("row", bent, row):
        failures.append("check_fluid_row accepts a one-ulp change")
    return failures
