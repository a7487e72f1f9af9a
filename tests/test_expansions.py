import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import linexp as lx
from linexp.expansions import line_graph, star_expansion_graph
from linexp.verify import check_line_graph_equivalence

# adjacency of the worked example's line expansion, w_v = w_e = 1
WORKED_A_L = np.array(
    [
        [0, 1, 1, 0, 0, 0, 0, 0],
        [1, 0, 0, 1, 1, 0, 0, 0],
        [1, 0, 0, 1, 0, 0, 0, 0],
        [0, 1, 1, 0, 1, 0, 0, 0],
        [0, 1, 0, 1, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0, 1, 1],
        [0, 0, 0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 0, 1, 1, 0],
    ],
    dtype=float,
)


def random_corpus(n, nv=12, ne=8, p=0.35, base_seed=0):
    return [lx.random_hypergraph(nv, ne, p, base_seed + t) for t in range(n)]


class TestLineExpand:
    def test_worked_example_nodes_and_adjacency(self, worked):
        le = lx.line_expand(worked)
        assert le.nodes == (
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (4, 2),
        )
        assert np.array_equal(le.adjacency().toarray(), WORKED_A_L)
        assert le.num_edges == 10

    def test_single_pair(self):
        le = lx.line_expand(lx.Hypergraph(1, ((0,),)))
        assert le.num_nodes == 1
        assert le.num_edges == 0

    def test_zero_weights_rejected(self, worked):
        with pytest.raises(lx.HypergraphError):
            lx.line_expand(worked, 0.0, 0.0)

    def test_edge_kinds_carry_weights(self, worked):
        le = lx.line_expand(worked, w_v=2.0, w_e=3.0)
        a = le.adjacency().toarray()
        # (0,0)-(0,1): same vertex -> w_e; (0,0)-(1,0): same hyperedge -> w_v
        assert a[0, 1] == 3.0
        assert a[0, 2] == 2.0

    def test_sizes_match_on_corpus(self):
        for h in random_corpus(200):
            le = lx.line_expand(h)
            assert (le.num_nodes, le.num_edges) == lx.size_formulas(h)


class TestSizeFormulas:
    def test_worked_example(self, worked):
        assert lx.size_formulas(worked) == (8, 10)

    def test_single_pair(self):
        assert lx.size_formulas(lx.Hypergraph(1, ((0,),))) == (1, 0)


class TestProjections:
    def test_worked_example_matrices(self, worked):
        p = lx.projections(worked)
        p_v_t = np.array(
            [
                [1, 1, 0, 0, 0, 0, 0, 0],
                [0, 0, 1, 1, 0, 0, 0, 0],
                [0, 0, 0, 0, 1, 1, 0, 0],
                [0, 0, 0, 0, 0, 0, 1, 0],
                [0, 0, 0, 0, 0, 0, 0, 1],
            ],
            dtype=float,
        )
        p_e_t = np.array(
            [
                [1, 0, 1, 0, 0, 0, 0, 0],
                [0, 1, 0, 1, 1, 0, 0, 0],
                [0, 0, 0, 0, 0, 1, 1, 1],
            ],
            dtype=float,
        )
        assert np.array_equal(p.p_v.toarray().T, p_v_t)
        assert np.array_equal(p.p_e.toarray().T, p_e_t)
        assert np.array_equal(
            p.h_r.toarray(), np.hstack([p_v_t.T, p_e_t.T])
        )

    def test_back_projection_row_weights(self, worked):
        # vertex 0 sits in hyperedges of size 2 and 3: weights 3/5, 2/5
        p = lx.projections(worked)
        row = p.p_v_back.toarray()[0]
        assert row[0] == pytest.approx(3 / 5)
        assert row[1] == pytest.approx(2 / 5)
        assert row[2:].sum() == 0

    def test_back_projection_rows_sum_to_one(self):
        for h in random_corpus(30):
            p = lx.projections(h)
            sums = np.asarray(p.p_v_back.sum(axis=1)).ravel()
            active = [v for v in range(h.num_vertices) if h.vertex_edges(v)]
            assert np.allclose(sums[active], 1.0, atol=1e-12)
            esums = np.asarray(p.p_e_back.sum(axis=1)).ravel()
            assert np.allclose(esums, 1.0, atol=1e-12)

    def test_back_projection_inverts_pure_vertex_signal(self):
        for h in random_corpus(20):
            p = lx.projections(h)
            prod = (p.p_v_back @ p.p_v).toarray()
            for v in range(h.num_vertices):
                if h.vertex_edges(v):
                    assert np.allclose(prod[v], np.eye(h.num_vertices)[v],
                                       atol=1e-12)

    def test_empty_hyperedge_rejected(self):
        with pytest.raises(lx.HypergraphError):
            lx.projections(lx.Hypergraph(2, ((0,), ())))


class TestBlockGram:
    def test_worked_example(self, worked):
        g = lx.block_gram(lx.projections(worked)).toarray()
        H = lx.incidence_matrix(worked).toarray()
        assert np.array_equal(g[:5, :5], np.diag([2, 2, 2, 1, 1]))
        assert np.array_equal(g[5:, 5:], np.diag([2, 3, 3]))
        assert np.array_equal(g[:5, 5:], H)
        assert np.array_equal(g[5:, :5], H.T)

    def test_zero_for_empty_incidence(self):
        h = lx.Hypergraph(3, ())
        # no incidence pairs -> no line nodes -> 8x8... gram is (3+0)^2 zero
        p = lx.projections(h)
        assert lx.block_gram(p).toarray().shape == (3, 3)
        assert not lx.block_gram(p).toarray().any()

    def test_exact_on_corpus(self):
        for h in random_corpus(200, nv=10, ne=7):
            g = lx.block_gram(lx.projections(h)).toarray()
            H = lx.incidence_matrix(h).toarray()
            expected = np.block(
                [
                    [np.diag(lx.vertex_degrees(h).as_array().astype(float)), H],
                    [H.T, np.diag(lx.hyperedge_degrees(h).as_array().astype(float))],
                ]
            )
            assert np.array_equal(g, expected)


class TestAdjacencyFromProjections:
    def test_worked_example(self, worked):
        a = lx.adjacency_from_projections(lx.projections(worked)).toarray()
        assert np.array_equal(a, WORKED_A_L)

    def test_single_pair(self):
        a = lx.adjacency_from_projections(
            lx.projections(lx.Hypergraph(1, ((0,),)))
        ).toarray()
        assert np.array_equal(a, np.zeros((1, 1)))

    def test_matches_direct_construction_on_corpus(self):
        for h in random_corpus(200, nv=10, ne=7):
            a = lx.adjacency_from_projections(lx.projections(h)).toarray()
            b = lx.line_expand(h, 1.0, 1.0).adjacency().toarray()
            assert np.array_equal(a, b)


class TestRenormalizedOperator:
    def test_single_line_node(self):
        op = lx.renormalized_operator(lx.line_expand(lx.Hypergraph(1, ((0,),))))
        assert np.allclose(op.matrix.toarray(), [[1.0]], atol=1e-15)

    def test_symmetry_and_diagonal(self, worked):
        le = lx.line_expand(worked)
        op = lx.renormalized_operator(le).matrix.toarray()
        assert np.allclose(op, op.T, atol=1e-15)
        a_tilde = le.adjacency().toarray() + 2 * np.eye(le.num_nodes)
        d = a_tilde.sum(axis=1)
        assert np.allclose(np.diag(op), 2.0 / d, atol=1e-15)

    def test_weight_scale_invariance(self):
        for h in random_corpus(20):
            base = lx.renormalized_operator(lx.line_expand(h, 1.0, 2.0))
            for c in (0.5, 3.0, 17.0):
                scaled = lx.renormalized_operator(lx.line_expand(h, c, 2 * c))
                assert np.abs(
                    base.matrix.toarray() - scaled.matrix.toarray()
                ).max() <= 1e-12


@st.composite
def messy_hypergraphs(draw):
    """Small hypergraphs with isolated vertices, singleton hyperedges and
    duplicate hyperedges mixed in."""
    nv = draw(st.integers(1, 8))
    edge = st.sets(st.integers(0, nv - 1), min_size=1).map(
        lambda vs: tuple(sorted(vs))
    )
    edges = draw(st.lists(edge, min_size=1, max_size=8))
    if draw(st.booleans()):
        edges.append(draw(st.sampled_from(edges)))
    if draw(st.booleans()):
        edges.append((draw(st.integers(0, nv - 1)),))
    isolated = draw(st.integers(0, 2))
    return lx.Hypergraph(nv + isolated, tuple(edges))


class TestClosedFormOracle:
    """projections and renormalized_operator against their loop
    definitions."""

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs())
    def test_projections(self, h):
        p = lx.projections(h)
        pairs = h.pairs()
        d = [len(h.vertex_edges(v)) for v in range(h.num_vertices)]
        delta = [len(verts) for verts in h.edges]
        n = len(pairs)
        p_v = np.zeros((n, h.num_vertices))
        p_e = np.zeros((n, h.num_hyperedges))
        p_v_back = np.zeros((h.num_vertices, n))
        p_e_back = np.zeros((h.num_hyperedges, n))
        for i, (v, e) in enumerate(pairs):
            p_v[i, v] = p_e[i, e] = 1.0
            p_v_back[v, i] = (1 / delta[e]) / sum(
                1 / delta[f] for f in h.vertex_edges(v)
            )
            p_e_back[e, i] = (1 / d[v]) / sum(1 / d[u] for u in h.edges[e])
        assert np.array_equal(p.p_v.toarray(), p_v)
        assert np.array_equal(p.p_e.toarray(), p_e)
        assert np.array_equal(p.h_r.toarray(), np.hstack([p_v, p_e]))
        assert np.abs(p.p_v_back.toarray() - p_v_back).max() <= 1e-12
        assert np.abs(p.p_e_back.toarray() - p_e_back).max() <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs())
    def test_operator(self, h):
        for w_v, w_e in ((1.0, 1.0), (0.3, 1.7), (0.0, 1.0), (2.5, 0.0)):
            le = lx.line_expand(h, w_v, w_e)
            a_tilde = le.adjacency().toarray() + (w_v + w_e) * np.eye(le.num_nodes)
            scale = 1 / np.sqrt(a_tilde.sum(axis=1))
            expected = scale[:, None] * a_tilde * scale[None, :]
            op = lx.renormalized_operator(le)
            assert op.self_loop_weight == w_v + w_e
            assert np.abs(op.matrix.toarray() - expected).max() <= 1e-12


class TestCliqueAdjacency:
    def test_worked_example_pair(self, worked):
        a = lx.clique_adjacency(worked).toarray()
        # vertices 0,1 share 2 hyperedges; d_c = 1 + 2 = 3 on both sides
        assert a[0, 1] == pytest.approx(2 / 3, abs=1e-15)
        assert np.diag(a).sum() == 0

    def test_single_edge(self):
        a = lx.clique_adjacency(lx.Hypergraph(2, ((0, 1),))).toarray()
        assert a[0, 1] == pytest.approx(1.0)

    def test_symmetric(self):
        for h in random_corpus(50):
            a = lx.clique_adjacency(h).toarray()
            assert np.allclose(a, a.T, atol=1e-15)

    def test_singleton_hyperedge_contributes_nothing(self):
        a = lx.clique_adjacency(lx.Hypergraph(2, ((0,), (1,)))).toarray()
        assert not a.any()


class TestStarAdjacency:
    def test_weighted_variant_worked_pair(self, worked):
        a = lx.star_adjacency(worked, normalizer="weighted").toarray()
        assert a[0, 1] == pytest.approx(13 / 30, abs=1e-15)

    def test_plain_variant_worked_pair(self, worked):
        a = lx.star_adjacency(worked).toarray()
        # numerator 13/36 over sqrt(2)*sqrt(2)
        assert a[0, 1] == pytest.approx((13 / 36) / 2, abs=1e-15)

    def test_no_shared_hyperedge_is_zero(self, worked):
        a = lx.star_adjacency(worked).toarray()
        assert a[0, 3] == 0
        assert a[0, 4] == 0

    def test_symmetric_on_corpus(self):
        for h in random_corpus(200):
            for kind in ("plain", "weighted"):
                a = lx.star_adjacency(h, normalizer=kind).toarray()
                assert np.allclose(a, a.T, atol=1e-15)


class TestEffectiveVertexAdjacency:
    def test_degraded_symmetric_form(self, worked):
        a = lx.effective_vertex_adjacency(worked, 1.0, 0.0, "symmetric").toarray()
        assert a[0, 1] == pytest.approx(13 / 30, abs=1e-15)

    def test_random_walk_rows_sum_to_one_when_we_zero(self):
        for h in random_corpus(30):
            if any(not h.vertex_edges(v) for v in range(h.num_vertices)):
                continue
            a = lx.effective_vertex_adjacency(h, 1.0, 0.0, "random-walk").toarray()
            assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)

    def test_degree_zero_vertex_rejected(self):
        h = lx.Hypergraph(3, ((0, 1),))
        with pytest.raises(lx.HypergraphError):
            lx.effective_vertex_adjacency(h, 1.0, 1.0)

    def test_symmetric_form_symmetry_when_we_zero(self):
        for h in random_corpus(20):
            if any(not h.vertex_edges(v) for v in range(h.num_vertices)):
                continue
            a = lx.effective_vertex_adjacency(h, 1.0, 0.0, "symmetric").toarray()
            assert np.allclose(a, a.T, atol=1e-14)


class TestLineGraphEquivalence:
    def test_worked_example(self, worked):
        assert check_line_graph_equivalence(worked).passed

    def test_star_expansion_shape(self, worked):
        n, edges = star_expansion_graph(worked)
        assert n == 8
        assert len(edges) == 8  # one per incidence pair

    def test_line_graph_definition(self):
        # path a-b-c: two edges sharing b -> line graph is a single edge
        assert line_graph(3, [(0, 1), (1, 2)]) == [(0, 1)]

    def test_corpus(self):
        for h in random_corpus(50, nv=12, ne=6, p=0.3):
            assert check_line_graph_equivalence(h).passed
