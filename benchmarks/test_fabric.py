"""Bench F — the multi-hop fabric on the C event core.

Two fabric-scale workloads on
:class:`repro.simulation.multihop.MultiHopNetwork`:

* **fabric_fat_tree_k8** — an 8-ary fat-tree (128 hosts, 80 switches)
  under two rounds of fabric-wide permutation traffic at 4 Gb/s per
  flow;
* **fabric_dcell_4_1** — a DCell(4, 1) fabric (20 hosts) under four
  congested permutation rounds.  DCell's cross-cell links are
  host-to-host, so hosts relay frames and carry BCN/PAUSE control.

The timed region covers construction plus the run.  With a compiled
kernel tier both rows run on the C event core
(:mod:`repro.simulation.event_core`), whose events are the python
loop's bit for bit; on the numpy tier they time the python loop.  Each
row records absolute wall times; the report's ``cores`` field names the
machine that produced them.  There is no fast/reference pair to gate:
every packet engine name runs the same per-frame fabric.

Every test tags ``benchmark.extra_info`` with ``workload``/``engine``
and ``simulated_seconds`` (``tools/bench_report.py`` derives ns per
simulated second), and reruns once under an
:class:`~repro.obs.Observability` handle, outside the timed region, to
tag exact ``event_counts``.
"""

from repro.obs import Observability
from repro.simulation.multihop import MultiHopNetwork, PortConfig
from repro.topology.graphs import dcell, fat_tree
from repro.workloads import permutation

FRAME_BITS = 1500 * 8
DELAY = 5e-6
DURATION = 2e-3


def _hosts(graph):
    return sorted(
        n for n, d in graph.nodes(data=True) if d.get("kind") == "host"
    )


def _run_fat_tree(obs=None):
    g = fat_tree(8, capacity=10e9)
    flows = permutation(_hosts(g), demand=4e9, rounds=2)
    cfg = PortConfig(q0=8 * FRAME_BITS, buffer_bits=150 * FRAME_BITS)
    net = MultiHopNetwork(g, flows, cfg, frame_bits=FRAME_BITS,
                          propagation_delay=DELAY, obs=obs)
    return net.run(DURATION)


def _run_dcell(obs=None):
    g = dcell(4, 1, capacity=10e9)
    flows = permutation(_hosts(g), demand=2e9, rounds=4)
    cfg = PortConfig(q0=8 * FRAME_BITS, buffer_bits=150 * FRAME_BITS)
    net = MultiHopNetwork(g, flows, cfg, frame_bits=FRAME_BITS,
                          propagation_delay=DELAY, obs=obs)
    return net.run(DURATION)


def _event_counts(run):
    obs = Observability()
    run(obs=obs)
    return obs.event_counts()


def test_bench_fabric_fat_tree_reference(benchmark):
    res = benchmark.pedantic(_run_fat_tree, rounds=3, iterations=1)
    benchmark.extra_info.update(
        workload="fabric_fat_tree_k8", engine="reference",
        simulated_seconds=DURATION,
        event_counts=_event_counts(_run_fat_tree))
    assert sum(res.per_flow_delivered_bits.values()) > 0


def test_bench_fabric_dcell_reference(benchmark):
    res = benchmark.pedantic(_run_dcell, rounds=3, iterations=1)
    benchmark.extra_info.update(
        workload="fabric_dcell_4_1", engine="reference",
        simulated_seconds=DURATION,
        event_counts=_event_counts(_run_dcell))
    assert sum(res.per_flow_delivered_bits.values()) > 0
