"""BENCHMARK.json declares exactly the metrics and workloads run.py prints."""

import json

from perfbench import report
from perfbench.common import ROOT
from perfbench.workloads import WORKLOADS


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_lists_match():
    doc = declared()
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] \
        == list(report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] \
        == list(report.PER_LAYER)


def test_workloads_match():
    assert sorted(w["name"] for w in declared()["workloads"]) \
        == sorted(WORKLOADS)


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in declared()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
