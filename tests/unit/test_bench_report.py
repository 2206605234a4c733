"""Unit tests for tools/bench_report.py (report building and merging)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

from bench_report import (build_report, gate_against_baseline,  # noqa: E402
                          main, validate_report)


def _bench(name, mean, *, workload=None, engine=None, **extra):
    info = dict(extra)
    if workload:
        info["workload"] = workload
    if engine:
        info["engine"] = engine
    return {
        "name": name,
        "stats": {"mean": mean, "min": mean, "stddev": 0.0, "rounds": 3},
        "extra_info": info,
    }


def _raw(*benches, datetime="2026-01-01"):
    return {
        "datetime": datetime,
        "machine_info": {"node": "test", "cpu": {"brand_raw": "x"}},
        "benchmarks": list(benches),
    }


class TestSpeedupPairing:
    def test_pairs_batch_against_reference(self):
        report = build_report(_raw(
            _bench("a", 1.0, workload="w", engine="batch"),
            _bench("b", 5.0, workload="w", engine="reference"),
        ))
        assert report["speedups"]["w"]["speedup"] == 5.0
        assert report["speedups"]["w"]["fast_engine"] == "batch"

    def test_pairs_batched_against_reference(self):
        report = build_report(_raw(
            _bench("a", 0.5, workload="p", engine="batched"),
            _bench("b", 4.0, workload="p", engine="reference"),
        ))
        assert report["speedups"]["p"]["speedup"] == 8.0
        assert report["speedups"]["p"]["fast_engine"] == "batched"

    def test_other_engine_tags_are_not_gated(self):
        # Two rows share a workload but neither tag is a fast engine,
        # so no speedup row (and hence no gate) appears.
        report = build_report(_raw(
            _bench("a", 1.0, workload="storm", engine="heap"),
            _bench("b", 0.5, workload="storm", engine="calendar"),
        ))
        assert report["speedups"] == {}
        assert set(report["kernels"]) == {"a", "b"}


class TestThroughputFigures:
    def test_trajectory_seconds_figure(self):
        report = build_report(_raw(
            _bench("a", 2.0, trajectory_seconds=100.0)))
        assert report["kernels"]["a"]["ns_per_trajectory_second"] == (
            2.0 / 100.0 * 1e9
        )

    def test_simulated_seconds_figure(self):
        report = build_report(_raw(
            _bench("a", 0.3, simulated_seconds=0.2)))
        assert report["kernels"]["a"]["ns_per_simulated_second"] == (
            0.3 / 0.2 * 1e9
        )


class TestBaselineGate:
    """``--baseline``/``--max-slowdown``: every row on its own clock."""

    def _report(self, core_s, reference_s, extra_rows=()):
        return build_report(_raw(
            _bench("core", core_s, workload="w", engine="core",
                   simulated_seconds=0.2),
            _bench("ref", reference_s, workload="w", engine="reference",
                   simulated_seconds=0.2),
            *extra_rows))

    def test_each_row_is_gated_on_its_own_committed_figure(self):
        committed = self._report(0.01, 1.0)
        rows = gate_against_baseline(self._report(0.025, 1.1), committed,
                                     3.0)
        assert [(r[0], round(r[4], 6), r[5]) for r in rows] == [
            ("core", 2.5, True), ("ref", 1.1, True)]
        # the core row alone regresses, however fast it is next to ref
        rows = gate_against_baseline(self._report(0.05, 1.0), committed,
                                     3.0)
        assert [(r[0], r[5]) for r in rows] == [("core", False),
                                                ("ref", True)]

    def test_rows_missing_on_either_side_are_skipped(self):
        committed = self._report(0.01, 1.0)
        fresh = build_report(_raw(
            _bench("ref", 1.0, workload="w", engine="reference",
                   simulated_seconds=0.2),
            _bench("new", 9.0, workload="w", engine="batched",
                   simulated_seconds=0.2)))
        assert [r[0] for r in gate_against_baseline(fresh, committed,
                                                    3.0)] == ["ref"]

    def test_cli_fails_only_on_a_row_regression(self, tmp_path, capsys):
        import json

        committed = tmp_path / "BENCH_committed.json"
        committed.write_text(json.dumps(self._report(0.01, 1.0)))
        out = tmp_path / "BENCH_new.json"
        for core_s, want in ((0.02, 0), (0.05, 1)):
            raw = tmp_path / "raw.json"
            raw.write_text(json.dumps(_raw(
                _bench("core", core_s, workload="w", engine="core",
                       simulated_seconds=0.2),
                _bench("ref", 1.0, workload="w", engine="reference",
                       simulated_seconds=0.2))))
            assert main([str(raw), "-o", str(out), "--baseline",
                         str(committed), "--max-slowdown", "3"]) == want
        assert "REGRESSION" in capsys.readouterr().out

    def test_no_speedup_gate_unless_asked(self, tmp_path):
        import json

        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps(_raw(
            _bench("a", 2.0, workload="w", engine="batched"),
            _bench("b", 1.0, workload="w", engine="reference"))))
        out = str(tmp_path / "B.json")
        assert main([str(raw), "-o", out]) == 0
        assert main([str(raw), "-o", out, "--min-speedup", "1.0"]) == 1

    def test_report_records_spread_and_cores(self):
        bench = _bench("a", 1.0)
        bench["stats"]["max"] = 1.5
        raw = _raw(bench)
        raw["machine_info"]["cpu"]["count"] = 2
        report = build_report(raw)
        assert report["cores"] == 2
        assert report["kernels"]["a"]["max_s"] == 1.5
        assert validate_report(report) == []


class TestObservabilitySections:
    def test_event_counts_grouped_by_workload_and_engine(self):
        report = build_report(_raw(
            _bench("a", 1.0, workload="w", engine="batched",
                   event_counts={"bcn": 10, "drop": 2}),
            _bench("b", 1.0, workload="w",
                   event_counts={"region_switch": 3}),
        ))
        assert report["events"]["w"]["batched"] == {"bcn": 10, "drop": 2}
        assert report["events"]["w"]["-"] == {"region_switch": 3}

    def test_obs_overhead_relative_to_baseline(self):
        report = build_report(_raw(_bench(
            "a", 1.0, workload="w",
            obs_overhead={"baseline_s": 1.0, "obs_disabled_s": 1.01,
                          "obs_enabled_s": 1.5},
        )))
        row = report["overheads"]["w"]
        assert row["baseline_s"] == 1.0
        assert abs(row["obs_disabled_overhead"] - 0.01) < 1e-12
        assert abs(row["obs_enabled_overhead"] - 0.5) < 1e-12

    def test_no_obs_tags_yields_empty_sections(self):
        report = build_report(_raw(_bench("a", 1.0)))
        assert report["events"] == {}
        assert report["overheads"] == {}


class TestMerging:
    def test_merges_kernels_from_multiple_raws(self):
        fluid = _raw(_bench("fluid_batch", 1.0, workload="f", engine="batch"),
                     _bench("fluid_ref", 5.0, workload="f",
                            engine="reference"))
        packet = _raw(_bench("pkt_batched", 0.3, workload="p",
                             engine="batched"),
                      _bench("pkt_ref", 2.4, workload="p",
                             engine="reference"))
        report = build_report([fluid, packet])
        assert set(report["kernels"]) == {
            "fluid_batch", "fluid_ref", "pkt_batched", "pkt_ref",
        }
        assert set(report["speedups"]) == {"f", "p"}

    def test_duplicates_keep_first_occurrence(self, capsys):
        first = _raw(_bench("k", 1.0, workload="w", engine="batch"),
                     _bench("r", 9.0, workload="w", engine="reference"))
        second = _raw(_bench("k", 100.0, workload="w", engine="batch"))
        report = build_report([first, second])
        assert report["kernels"]["k"]["mean_s"] == 1.0
        assert report["speedups"]["w"]["speedup"] == 9.0
        assert "duplicate benchmark" in capsys.readouterr().err

    def test_machine_info_from_first_raw(self):
        a = _raw(datetime="2026-02-02")
        b = _raw(datetime="2030-01-01")
        report = build_report([a, b])
        assert report["source_datetime"] == "2026-02-02"

    def test_single_dict_still_accepted(self):
        report = build_report(_raw(_bench("solo", 1.0)))
        assert set(report["kernels"]) == {"solo"}


class TestValidate:
    def _report(self):
        return build_report(_raw(
            _bench("a", 1.0, workload="w", engine="batch",
                   event_counts={"bcn": 3}),
            _bench("b", 5.0, workload="w", engine="reference"),
            _bench("c", 1.0, workload="w",
                   obs_overhead={"baseline_s": 1.0, "obs_enabled_s": 1.2}),
        ))

    def test_generated_report_is_schema_clean(self):
        assert validate_report(self._report()) == []

    def test_committed_reports_are_schema_clean(self):
        import json

        for path in sorted(ROOT.glob("BENCH_*.json")):
            doc = json.loads(path.read_text())
            assert validate_report(doc, label=path.name) == []

    def test_missing_keys_and_bad_types(self):
        assert validate_report([]) == ["report: top level must be a "
                                       "JSON object"]
        problems = validate_report({"generated_by": "elsewhere"})
        assert any("missing required key" in p for p in problems)

    def test_speedup_drift_is_flagged(self):
        doc = self._report()
        doc["speedups"]["w"]["speedup"] = 2.0  # truth is 5.0
        problems = validate_report(doc)
        assert any("drifted from reference_s/batch_s" in p
                   for p in problems)

    def test_unknown_engine_tag_and_event_kind(self):
        doc = self._report()
        doc["speedups"]["w"]["fast_engine"] = "warp"
        doc["events"]["w"]["batch"] = {"not_a_kind": 1}
        problems = validate_report(doc)
        assert any("fast_engine 'warp'" in p for p in problems)
        assert any("unknown event kind 'not_a_kind'" in p
                   for p in problems)

    def test_overhead_drift_is_flagged(self):
        doc = self._report()
        doc["overheads"]["w"]["obs_enabled_overhead"] = 0.0
        problems = validate_report(doc)
        assert any("obs_enabled_overhead" in p and "drifted" in p
                   for p in problems)

    def test_legacy_reports_without_new_fields_pass(self):
        doc = self._report()
        for entry in doc["kernels"].values():
            entry["min_s"] = None
        del doc["speedups"]["w"]["fast_engine"]
        del doc["events"]
        del doc["overheads"]
        assert validate_report(doc) == []

    def test_cli_validate_mode(self, tmp_path, capsys):
        import json

        good = tmp_path / "BENCH_good.json"
        good.write_text(json.dumps(self._report()))
        assert main(["--validate", str(good)]) == 0
        assert "ok (" in capsys.readouterr().out

        bad_doc = self._report()
        bad_doc["speedups"]["w"]["speedup"] = 123.0
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps(bad_doc))
        assert main(["--validate", str(bad)]) == 1
        assert "drifted" in capsys.readouterr().err

        assert main(["--validate", str(tmp_path / "missing.json")]) == 1
