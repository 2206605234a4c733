"""Property-based invariants for fabric topologies.

The multi-hop engine trusts the generators in
:mod:`repro.topology.graphs`: node/link counts and reachability follow
the published construction rules.  They are checked here over the whole
small parameter space rather than at single pinned sizes:

* **fat-tree** — for every even ``k``: ``k^3/4`` hosts, ``5k^2/4``
  switches, ``3k^3/4`` links and ``k``-regular switch tiers (Al-Fares
  et al.);
* **DCell** — the recursive counts ``t_l = t_{l-1} (t_{l-1} + 1)``
  hosts and ``s_l = s_{l-1} (t_{l-1} + 1)`` switches;
* **reachability** — every generated fabric is connected, so every
  host pair has a route for the multi-hop engine to resolve.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.graphs import dcell, fat_tree, monsoon

even_k = st.integers(min_value=1, max_value=4).map(lambda half: 2 * half)


class TestFatTreeCounts:
    @given(k=even_k)
    @settings(max_examples=10, deadline=None)
    def test_published_counts(self, k):
        g = fat_tree(k)
        kinds = {}
        for _, data in g.nodes(data=True):
            kinds[data["kind"]] = kinds.get(data["kind"], 0) + 1
        assert kinds["host"] == k**3 // 4
        assert kinds["core"] == (k // 2) ** 2
        assert kinds["edge"] == kinds["agg"] == k * (k // 2)
        n_switches = kinds["core"] + kinds["edge"] + kinds["agg"]
        assert n_switches == 5 * k**2 // 4
        # one link per host plus (k/2)^2 edge-agg links per pod plus
        # k/2 core uplinks per aggregation switch
        assert g.number_of_edges() == 3 * k**3 // 4

    @given(k=even_k)
    @settings(max_examples=10, deadline=None)
    def test_switch_tiers_are_k_regular(self, k):
        g = fat_tree(k)
        for node, data in g.nodes(data=True):
            if data["kind"] == "host":
                assert g.degree(node) == 1
            else:
                assert g.degree(node) == k, (node, data["kind"])

    @given(k=even_k, cap=st.sampled_from([1e9, 10e9, 40e9]))
    @settings(max_examples=10, deadline=None)
    def test_uniform_capacity(self, k, cap):
        g = fat_tree(k, capacity=cap)
        assert all(d["capacity"] == cap for _, _, d in g.edges(data=True))


class TestDCellCounts:
    @given(n=st.integers(min_value=2, max_value=5),
           level=st.integers(min_value=0, max_value=1))
    @settings(max_examples=20, deadline=None)
    def test_recursive_counts(self, n, level):
        g = dcell(n, level)
        hosts = sum(1 for _, d in g.nodes(data=True) if d["kind"] == "host")
        switches = sum(1 for _, d in g.nodes(data=True) if d["kind"] == "tor")
        t, s = n, 1
        for _ in range(level):
            s = s * (t + 1)
            t = t * (t + 1)
        assert hosts == t
        assert switches == s

    @given(n=st.integers(min_value=2, max_value=3))
    @settings(max_examples=5, deadline=None)
    def test_level_2_counts(self, n):
        g = dcell(n, 2)
        hosts = sum(1 for _, d in g.nodes(data=True) if d["kind"] == "host")
        t1 = n * (n + 1)
        assert hosts == t1 * (t1 + 1)

    @given(n=st.integers(min_value=2, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_cross_cell_links_form_full_mesh(self, n):
        # level 1: one host-to-host link per unordered pair of the
        # n + 1 cells, on top of the n host-switch links per cell
        g = dcell(n, 1)
        intra = (n + 1) * n
        mesh = (n + 1) * n // 2
        assert g.number_of_edges() == intra + mesh


class TestReachability:
    @given(k=even_k)
    @settings(max_examples=10, deadline=None)
    def test_fat_tree_connected(self, k):
        assert nx.is_connected(fat_tree(k))

    @given(n=st.integers(min_value=2, max_value=5),
           level=st.integers(min_value=0, max_value=1))
    @settings(max_examples=20, deadline=None)
    def test_dcell_connected(self, n, level):
        assert nx.is_connected(dcell(n, level))

    @given(n_tors=st.integers(min_value=1, max_value=6),
           n_aggs=st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_monsoon_connected(self, n_tors, n_aggs):
        assert nx.is_connected(monsoon(n_tors, n_aggs))
