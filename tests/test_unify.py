import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

import linexp as lx
from linexp.unify import (
    _max_abs_diff,
    check_simple_graph_factor,
    check_star_equivalence,
    degraded_line_adjacency,
    graph_as_hypergraph,
    simple_graph_adjacency,
)
from linexp.verify import random_connected_graph


def no_zero_degree_corpus(n, nv=12, ne=8, p=0.35, base_seed=100):
    out = []
    seed = base_seed
    while len(out) < n:
        h = lx.random_hypergraph(nv, ne, p, seed)
        seed += 1
        if all(h.vertex_edges(v) for v in range(h.num_vertices)):
            out.append(h)
    return out


class TestDegradedLineAdjacency:
    def test_worked_example_pair(self, worked):
        a = degraded_line_adjacency(worked).toarray()
        assert a[0, 1] == pytest.approx(13 / 30, abs=1e-15)

    def test_degree_zero_vertex_rejected(self):
        h = lx.Hypergraph(3, ((0, 1),))
        with pytest.raises(lx.HypergraphError, match=r"^vertices with degree 0: \[2\]$"):
            degraded_line_adjacency(h)

    def test_symmetric(self):
        for h in no_zero_degree_corpus(20, base_seed=0):
            a = degraded_line_adjacency(h).toarray()
            assert np.allclose(a, a.T, atol=1e-14)


class TestStarEquivalence:
    def test_worked_example(self, worked):
        rep = check_star_equivalence(worked)
        assert rep.passed
        assert rep.max_abs_diff <= 1e-12

    def test_corpus(self):
        for h in no_zero_degree_corpus(200):
            assert check_star_equivalence(h).passed

    def test_empty_hyperedge_rejected(self):
        with pytest.raises(lx.HypergraphError, match=r"^empty hyperedges \(1,\)$"):
            check_star_equivalence(lx.Hypergraph(2, ((0,), ())))

    def test_result_carries_verify_name_and_difference(self):
        for h in no_zero_degree_corpus(20):
            rep = check_star_equivalence(h)
            assert isinstance(rep, lx.CheckResult)
            assert rep.name == "star-equivalence"
            diff = _max_abs_diff(degraded_line_adjacency(h), lx.star_adjacency(h))
            assert rep.max_abs_diff == diff
            assert rep.detail == (
                f"degraded-line-expansion vs star-adjacency(weighted-degree): "
                f"max|diff| = {diff:.3e} (tol 1e-12, |V|={h.num_vertices}, "
                f"|E|={h.num_hyperedges})"
            )


class TestSimpleGraphFactor:
    def test_triangle(self):
        # K3: GCN entry 1/2, degraded LE entry 1/4
        tri = lx.UnlabeledGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        gcn = simple_graph_adjacency(tri).toarray()
        assert gcn[0, 1] == pytest.approx(1 / 2)
        deg = degraded_line_adjacency(graph_as_hypergraph(tri)).toarray()
        assert deg[0, 1] == pytest.approx(1 / 4)
        assert check_simple_graph_factor(tri).passed

    def test_single_edge(self):
        g = lx.UnlabeledGraph.from_edges(2, [(0, 1)])
        gcn = simple_graph_adjacency(g).toarray()
        assert gcn[0, 1] == pytest.approx(1.0)
        deg = degraded_line_adjacency(graph_as_hypergraph(g)).toarray()
        assert deg[0, 1] == pytest.approx(1 / 2)
        assert check_simple_graph_factor(g).passed

    def test_degraded_self_loop_half(self):
        g = lx.UnlabeledGraph.from_edges(2, [(0, 1)])
        deg = degraded_line_adjacency(graph_as_hypergraph(g)).toarray()
        assert deg[0, 0] == pytest.approx(1 / 2)

    def test_connected_corpus(self):
        rng = np.random.default_rng(21)
        for t in range(50):
            n = int(rng.integers(2, 51))
            g = random_connected_graph(n, float(rng.uniform(0.05, 0.4)), 500 + t)
            assert check_simple_graph_factor(g).passed

    def test_gcn_adjacency_equals_networkx_normalized_laplacian(self):
        """Off the diagonal, the GCN adjacency is minus networkx's normalized
        Laplacian, isolated vertices and edgeless graphs included."""
        rng = np.random.default_rng(31)
        for t in range(120):
            n = int(rng.integers(1, 16))
            nxg = nx.gnp_random_graph(n, float(rng.uniform(0.0, 0.5)), seed=t)
            lap = nx.normalized_laplacian_matrix(nxg, nodelist=range(n)).toarray()
            got = simple_graph_adjacency(lx.UnlabeledGraph.from_edges(n, nxg.edges)).toarray()
            off = ~np.eye(n, dtype=bool)
            assert np.abs(got[off] + lap[off]).max(initial=0) <= 1e-12

    def test_edgeless_rejected(self):
        with pytest.raises(lx.HypergraphError):
            check_simple_graph_factor(lx.UnlabeledGraph(3, ()))

    def test_result_carries_verify_name_and_difference(self):
        for t in range(20):
            g = random_connected_graph(3 + t, 0.3, 700 + t)
            rep = check_simple_graph_factor(g)
            assert isinstance(rep, lx.CheckResult)
            assert rep.name == "simple-graph-factor"
            lhs = degraded_line_adjacency(graph_as_hypergraph(g))
            rhs = sp.csr_array(simple_graph_adjacency(g) * 0.5)
            assert rep.max_abs_diff == _max_abs_diff(lhs, rhs, skip_diagonal=True)
            assert rep.detail.startswith("degraded-line-expansion(2-regular) vs gcn-adjacency/2: ")


class TestGraphAsHypergraph:
    def test_two_regular(self):
        g = lx.UnlabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        h = graph_as_hypergraph(g)
        assert all(len(e) == 2 for e in h.edges)
        assert h.num_hyperedges == 3


def test_max_abs_diff_reads_the_sparse_difference():
    a = sp.csr_array(np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 0.0]]))
    off = sp.csr_array(np.array([[1.0, 2.5, 0.0], [0.0, 3.0, 0.0], [0.0, -0.75, 0.0]]))
    diag = sp.csr_array(np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 4.0]]))
    assert _max_abs_diff(a, off) == 0.75
    assert _max_abs_diff(a, off, skip_diagonal=True) == 0.75
    assert _max_abs_diff(a, diag) == 4.0
    assert _max_abs_diff(a, diag, skip_diagonal=True) == 0.0
    assert _max_abs_diff(a, a) == 0.0
