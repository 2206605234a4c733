"""One module per reproduced figure/table of the paper.

================  ==================================================
id                artefact
================  ==================================================
``fig3``          Fig. 3 — trajectory taxonomy vs strong stability
``fig4``          Fig. 4 — spiral trajectories and extrema
``fig5``          Fig. 5 — node trajectories and invariant lines
``fig6``          Fig. 6 — Case 1 dynamics (eqs. 36-37 check)
``fig7``          Fig. 7 — limit-cycle motion
``fig8``          Fig. 8 — Case 2 dynamics (eq. 38 check)
``fig9``          Fig. 9 — Case 3: no overshoot
``fig10``         Fig. 10 — Case 4 (and 5): no overshoot
``t1``            Section IV Remarks — Theorem 1 worked example
``v1``            extension — Theorem 1 conservativeness sweep
``v2``            extension — fluid vs packet-level agreement
``v3``            extension — BCN vs QCN/E2CM/FERA/AIMD
``v4``            extension — Chiu-Jain fairness of the BCN laws
``v5``            extension — trace-driven fat-tree (mice/elephants)
``v6``            extension — heterogeneous sources vs mean field
``d1``            extension — feedback delay / Hopf limit cycle
``m1``            extension — victim flow: PAUSE spreading vs BCN
``s1``            extension — scenario presets: incast + varying C(t)
================  ==================================================

Run one with ``get_experiment("fig6")(render_plots=True)``.  Every
command that runs them — ``python -m repro experiments`` (alias
``python -m repro.experiments``) and ``python -m repro report`` — goes
through :func:`repro.runner.run_experiments`.
"""

from . import (  # noqa: F401  (registration side effects)
    d1_delay,
    fig3_taxonomy,
    fig4_spiral,
    fig5_node,
    fig6_case1,
    fig7_limit_cycle,
    fig8_case2,
    fig9_case3,
    fig10_case4,
    m1_victim_flow,
    s1_scenarios,
    t1_theorem1,
    v1_criterion_sweep,
    v2_fluid_vs_packet,
    v3_baselines,
    v4_fairness,
    v5_trace_driven,
    v6_heterogeneity,
)
from .base import ExperimentResult, all_experiments, get_experiment

__all__ = ["ExperimentResult", "get_experiment", "all_experiments"]
