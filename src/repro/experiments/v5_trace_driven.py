"""V5 (extension) — trace-driven fabric run: mice, elephants and BCN.

The paper analyses homogeneous long-lived flows; real fabrics carry a
heavy-tailed mix.  This experiment drives a fat-tree with a synthetic
trace (Poisson arrivals, bounded-Pareto sizes — the standard substitute
for production traces) under BCN at every port and checks that the
congestion-management story survives realistic traffic:

* the fabric stays functional: most mice (small flows) complete, and
  their completion times sit far below the elephants';
* BCN engages only where congestion actually forms (negative BCN > 0,
  and the hottest port is one of the statically most-shared edges);
* losses remain a small fraction of frames carried.
"""

from __future__ import annotations

import numpy as np

from ..simulation.multihop import MultiHopNetwork, PortConfig
from ..topology.graphs import fat_tree, hosts
from ..topology.routing import bottleneck_edge
from ..workloads.traces import TraceConfig, generate_trace
from .base import ExperimentResult, register

__all__ = ["run"]

CAPACITY = 1e9
MICE_THRESHOLD = 1e6  # flows below 1 Mbit are "mice"


@register("v5")
def run(*, render_plots: bool = True, horizon: float = 0.5,
        seed: int = 11, engine: str = "reference") -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="v5",
        title="Trace-driven fat-tree under BCN (heavy-tailed mix)",
        table_headers=["quantity", "value"],
    )

    fabric = fat_tree(4, capacity=CAPACITY)
    all_hosts = hosts(fabric)
    trace = generate_trace(
        TraceConfig(
            arrival_rate=400.0,
            mean_size_bits=1.5e6,
            horizon=horizon * 0.6,  # stop arrivals early so tails drain
            pareto_shape=1.3,
            max_size_bits=2e7,
            demand=CAPACITY / 2,
            seed=seed,
        ),
        all_hosts,
    )
    result.table_rows.append(["flows in trace", trace.n_flows])
    result.table_rows.append(["offered bits (Mbit)", trace.total_bits() / 1e6])
    result.table_rows.append(
        ["elephant byte share", trace.elephant_share(threshold_bits=8e6)]
    )

    config = PortConfig(q0=100e3, buffer_bits=1.2e6, pm=0.05, min_rate=10e6)
    network = MultiHopNetwork(fabric, trace.flows, config,
                              propagation_delay=1e-6, engine=engine)
    res = network.run(horizon)

    mice = [f for f in trace.flows if (f.size_bits or 0) < MICE_THRESHOLD]
    elephants = [f for f in trace.flows if (f.size_bits or 0) >= MICE_THRESHOLD]
    mice_fct = [res.flow_completion_time(f.flow_id) for f in mice]
    mice_fct = [v for v in mice_fct if v is not None]
    eleph_fct = [res.flow_completion_time(f.flow_id) for f in elephants]
    eleph_fct = [v for v in eleph_fct if v is not None]

    mice_done = len(mice_fct) / max(1, len(mice))
    result.table_rows.append(["mice completion fraction", mice_done])
    result.table_rows.append(["elephants completed",
                              f"{len(eleph_fct)}/{len(elephants)}"])
    if mice_fct:
        result.table_rows.append(["mice FCT p50 (ms)",
                                  float(np.median(mice_fct)) * 1e3])
    if eleph_fct:
        result.table_rows.append(["elephant FCT p50 (ms)",
                                  float(np.median(eleph_fct)) * 1e3])
    result.table_rows.append(["drops", res.dropped_frames])
    result.table_rows.append(["negative BCN", res.bcn_negative])

    result.verdicts["most_mice_complete"] = mice_done > 0.9
    if mice_fct and eleph_fct:
        result.verdicts["mice_much_faster_than_elephants"] = (
            float(np.median(mice_fct)) < 0.3 * float(np.median(eleph_fct))
        )
    result.verdicts["bcn_engaged"] = res.bcn_negative > 0

    frames_carried = sum(res.per_flow_delivered_bits.values()) / 12000.0
    result.verdicts["loss_fraction_small"] = (
        res.dropped_frames < 0.05 * max(frames_carried, 1.0)
    )

    # hotspot plausibility: the hottest port is among the most-shared
    # (the network resolved every flow's ECMP route when it was built)
    routes = [network.routes[f.flow_id] for f in trace.flows]
    _, max_share = bottleneck_edge(fabric, routes)
    hot = res.hottest_port()
    hot_share = sum(
        1 for r in routes
        if hot in list(zip(r, r[1:]))
    )
    result.table_rows.append(["hottest port", f"{hot[0]}->{hot[1]}"])
    result.table_rows.append(["flows sharing it", hot_share])
    result.verdicts["hotspot_is_heavily_shared"] = (
        hot_share >= 0.3 * max_share
    )
    return result
