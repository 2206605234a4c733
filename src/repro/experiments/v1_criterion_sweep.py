"""V1 (extension) — Theorem 1's conservativeness across parameter space.

Theorem 1 is a *sufficient* condition; this sweep quantifies how tight
it is.  Over a grid of normalised parameters spanning Cases 1-4 we
compare the bound ``q0 * sqrt(a/(bC))`` against the exact transient
peak of the composed trajectory from ``(-q0, 0)`` and check:

* **soundness** — the bound is never exceeded (every point);
* **tightness** — in the spiral-decrease cases (1 and 2) the peak
  approaches the bound as damping vanishes (small ``k``), while in the
  node-decrease cases (3-5) the true peak is 0 (no overshoot), making
  the bound maximally conservative there — exactly the structure the
  paper's proof exhibits.

The 36-point grid runs through the serial sweep harness
(:func:`repro.analysis.sweeps.sweep`); it takes milliseconds, less than
a process pool costs to start.  ``evaluate_point`` stays module-level
and pure, so :func:`repro.runner.run_sweep_parallel` can run the same
grid over a pool.
"""

from __future__ import annotations

import math

import numpy as np

from ..analysis.sweeps import sweep
from ..core.parameters import NormalizedParams
from ..core.phase_plane import PhasePlaneAnalyzer, classify_case
from .base import ExperimentResult, register

__all__ = ["run", "AXES", "evaluate_point", "base_point"]

#: Sweep grid of Section IV.A normalised parameters (spans Cases 1-4).
AXES = {
    "a": [0.5, 2.0, 8.0, 32.0],
    "b": [0.005, 0.02, 0.08],
    "k": [0.05, 0.2, 1.0],
}


def base_point() -> NormalizedParams:
    """Base parameterisation the grid overrides (first point of AXES)."""
    return NormalizedParams(a=AXES["a"][0], b=AXES["b"][0], k=AXES["k"][0],
                            capacity=100.0, q0=10.0, buffer_size=1e9)


def evaluate_point(p: NormalizedParams) -> dict[str, object]:
    """One grid point: case label, Theorem 1 bound, exact peak, tightness.

    Module-level and pure so the parallel runner can pickle it and the
    cache can replay it.
    """
    case = classify_case(p).value
    bound = p.q0 * math.sqrt(p.a / (p.b * p.capacity))
    traj = PhasePlaneAnalyzer(p).compose(max_switches=60)
    peak = max(0.0, traj.max_x())
    return {"case": case, "bound": bound, "peak": peak,
            "tightness": peak / bound}


@register("v1")
def run(*, render_plots: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="v1",
        title="Theorem 1 bound vs exact transient peak (sweep)",
        table_headers=["a", "b", "k", "case", "bound", "peak", "tightness"],
    )

    swept = sweep(base_point(), AXES, evaluate_point)

    sound = True
    tightness_by_case: dict[str, list[float]] = {}
    for r in swept.records:
        sound = sound and r["peak"] <= r["bound"] * (1 + 1e-9)
        tightness_by_case.setdefault(r["case"], []).append(r["tightness"])
        result.table_rows.append(
            [r["a"], r["b"], r["k"], r["case"], r["bound"], r["peak"],
             r["tightness"]]
        )

    result.series["bound"] = np.array(swept.column("bound"))
    result.series["peak"] = np.array(swept.column("peak"))
    result.verdicts["bound_never_exceeded"] = sound

    spiral_tight = tightness_by_case.get("case1", []) + tightness_by_case.get("case2", [])
    node_tight = tightness_by_case.get("case3", []) + tightness_by_case.get("case4", [])
    result.verdicts["spiral_cases_bound_approached"] = (
        bool(spiral_tight) and max(spiral_tight) > 0.8
    )
    result.verdicts["node_cases_no_overshoot"] = (
        bool(node_tight) and max(node_tight) <= 1e-9
    )
    for case, values in sorted(tightness_by_case.items()):
        result.notes.append(
            f"{case}: tightness median {float(np.median(values)):.3f}, "
            f"max {max(values):.3f} over {len(values)} points"
        )
    return result
