import itertools
from collections import Counter

import numpy as np
import pytest
import networkx as nx
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

import linexp as lx
from linexp.expansions import line_graph, star_expansion_graph, vertex_propagation
from linexp.learn import Model, forward
from linexp.reconstruction import MAX_ISO_SIDE
from linexp.verify import _set_aside, check_line_graph_equivalence, is_connected

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
        with pytest.raises(lx.HypergraphError, match="^w_v and w_e must not both be zero$"):
            lx.line_expand(worked, 0.0, 0.0)

    @pytest.mark.parametrize("w_v, w_e", [(-1.0, 1.0), (1.0, -0.5)])
    def test_negative_weight_rejected(self, worked, w_v, w_e):
        with pytest.raises(lx.HypergraphError, match="^weights must be nonnegative$"):
            lx.line_expand(worked, w_v, w_e)

    @pytest.mark.parametrize(
        "w_v, w_e", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, -np.inf)]
    )
    def test_non_finite_weight_rejected(self, worked, w_v, w_e):
        with pytest.raises(lx.HypergraphError, match="^weights must be finite$"):
            lx.line_expand(worked, w_v, w_e)

    @pytest.mark.parametrize(
        "w_v, w_e, message",
        [
            (np.nan, 1.0, "weights must be finite"),
            (-1.0, 0.0, "weights must be nonnegative"),
            (0.0, 0.0, "w_v and w_e must not both be zero"),
        ],
    )
    def test_construction_rejects_bad_weights(self, w_v, w_e, message):
        with pytest.raises(lx.HypergraphError, match=f"^{message}$"):
            lx.LineExpansion(lx.Hypergraph(1, ((0,),)), w_v, w_e)

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

    def test_empty_hyperedge_gets_an_empty_row(self):
        # as an isolated vertex gets an empty P_v' row: here, in the dual
        h = lx.Hypergraph(2, ((0, 1), ()))
        p = lx.projections(h)
        assert np.array_equal(p.p_e.toarray(), [[1.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(p.p_e_back.toarray(), [[0.5, 0.5], [0.0, 0.0]])
        assert np.array_equal(p.p_v_back.toarray(), np.eye(2))
        dual = lx.projections(lx.dual_hypergraph(h))
        assert np.array_equal(dual.p_v_back.toarray(), p.p_e_back.toarray())


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


def _coo_back_projection(rows_of: np.ndarray, cols_of: np.ndarray, n_rows: int) -> sp.csr_array:
    """The back-projection's entries, converted to CSR by scipy from COO."""
    w = 1.0 / np.bincount(cols_of)[cols_of]
    data = w / np.bincount(rows_of, weights=w, minlength=n_rows)[rows_of]
    return sp.csr_array((data, (rows_of, np.arange(len(rows_of)))), shape=(n_rows, len(rows_of)))


class TestClosedFormOracle:
    """projections and renormalized_operator against their loop
    definitions."""

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs(), st.lists(st.integers(0, 9), max_size=2))
    def test_back_projections_are_the_coo_built_ones(self, h, empty_at):
        """Bit for bit, with empty hyperedges inserted at ``empty_at``."""
        edges = list(h.edges)
        for k in empty_at:
            edges.insert(min(k, len(edges)), ())
        h = lx.Hypergraph(h.num_vertices, tuple(edges))
        p = lx.projections(h)
        v_of, e_of = lx.line_expand(h).pair_arrays
        for got, expected in (
            (p.p_v_back, _coo_back_projection(v_of, e_of, h.num_vertices)),
            (p.p_e_back, _coo_back_projection(e_of, v_of, h.num_hyperedges)),
        ):
            assert got.shape == expected.shape
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(expected, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name

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
    def test_indicators_match_the_coo_build(self, h):
        # P_v, P_e and H_r are built as CSR directly; the COO and hstack
        # builds are the reference, stored array by stored array.
        p = lx.projections(h)
        op = lx.renormalized_operator(lx.line_expand(h))
        v_of, e_of = np.array(h.pairs(), dtype=np.int64).T
        n = len(v_of)
        p_v = sp.csr_array((np.ones(n), (np.arange(n), v_of)), shape=(n, h.num_vertices))
        p_e = sp.csr_array((np.ones(n), (np.arange(n), e_of)), shape=(n, h.num_hyperedges))
        h_r = sp.csr_array(sp.hstack([p_v, p_e], format="csr"))
        for got, expected in ((p.p_v, p_v), (op.p_v, p_v), (p.p_e, p_e), (op.p_e, p_e),
                              (p.h_r, h_r)):
            assert got.shape == expected.shape
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(expected, name))

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs())
    def test_operator(self, h):
        for w_v, w_e in ((1.0, 1.0), (0.3, 1.7), (0.0, 1.0), (2.5, 0.0)):
            le = lx.line_expand(h, w_v, w_e)
            a_tilde = le.adjacency().toarray() + (w_v + w_e) * np.eye(le.num_nodes)
            scale = 1 / np.sqrt(a_tilde.sum(axis=1))
            expected = scale[:, None] * a_tilde * scale[None, :]
            op = lx.renormalized_operator(le)
            assert np.abs(op.matrix.toarray() - expected).max() <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs())
    def test_factored_apply(self, h):
        rng = np.random.default_rng(h.num_pairs)
        for w_v, w_e in ((1.0, 1.0), (0.3, 1.7), (0.0, 1.0), (2.5, 0.0)):
            le = lx.line_expand(h, w_v, w_e)
            a_tilde = le.adjacency().toarray() + (w_v + w_e) * np.eye(le.num_nodes)
            scale = 1 / np.sqrt(a_tilde.sum(axis=1))
            op = lx.renormalized_operator(le)
            assert op.T is op
            for cols in (1, 5):
                x = rng.normal(size=(le.num_nodes, cols))
                expected = scale[:, None] * (a_tilde @ (scale[:, None] * x))
                for got in (op @ x, op.T @ x):
                    assert np.abs(got - op.matrix @ x).max() <= 1e-12
                    assert np.abs(got - expected).max() <= 1e-12


def dict_groups(nodes, num_vertices, num_hyperedges):
    """The line-node ids by vertex and by hyperedge, filed in dicts: one
    group for every vertex and every hyperedge, empty if it has no node."""
    by_vertex, by_edge = {}, {}
    for i, (v, e) in enumerate(nodes):
        by_vertex.setdefault(v, []).append(i)
        by_edge.setdefault(e, []).append(i)
    return tuple(
        tuple(tuple(by_id.get(k, ())) for k in range(count))
        for by_id, count in ((by_vertex, num_vertices), (by_edge, num_hyperedges))
    )


class TestDualSymmetry:
    """Vertices and hyperedges are treated alike: LE(h*) of the dual
    h* = dual_hypergraph(h) is LE(h) with line node (v, e) renamed (e, v).
    ``perm[k]`` is the index in ``h.pairs()`` of the k-th pair of h*. The
    operator test runs both h and h* as the input, so an isolated vertex and
    an empty hyperedge both occur there."""

    weights = st.sampled_from(
        [(a, b) for a in (0.0, 0.3, 1.0, 2.0, 7.0) for b in (0.0, 0.3, 1.0, 2.0, 7.0) if a or b]
    )

    @staticmethod
    def dual_and_perm(h):
        dual = lx.dual_hypergraph(h)
        index = {pair: k for k, pair in enumerate(h.pairs())}
        return dual, np.array([index[(v, e)] for e, v in dual.pairs()], dtype=np.int64)

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs(), weights)
    def test_operator_of_the_dual_swaps_the_weights(self, h, ab):
        a, b = ab
        for g in (h, lx.dual_hypergraph(h)):
            dual, perm = self.dual_and_perm(g)
            got = lx.renormalized_operator(lx.line_expand(dual, w_v=b, w_e=a)).matrix
            op = lx.renormalized_operator(lx.line_expand(g, w_v=a, w_e=b)).matrix
            expected = sp.csr_array(op[perm][:, perm])
            assert got.shape == expected.shape
            assert (got != expected).nnz == 0

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs())
    def test_back_projections_of_the_dual(self, h):
        dual, perm = self.dual_and_perm(h)
        got = lx.projections(dual).p_v_back
        expected = sp.csr_array(lx.projections(h).p_e_back[:, perm])
        assert got.shape == expected.shape
        assert (got != expected).nnz == 0

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs())
    def test_unlabeled_expansion_of_the_dual_is_relabelled(self, h):
        for g in (h, lx.dual_hypergraph(h)):
            dual, perm = self.dual_and_perm(g)
            got = lx.strip_labels(lx.line_expand(dual))
            # node perm[k] of LE(g) is node k of LE(dual)
            rename = np.argsort(perm)
            edges = lx.strip_labels(lx.line_expand(g)).edges
            expected = lx.UnlabeledGraph.from_edges(
                len(perm), [(rename[i], rename[j]) for i, j in edges]
            )
            assert got == expected

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs())
    def test_reconstruction_of_either_side_gives_both(self, h):
        h, _ = _set_aside(h)  # most messy hypergraphs are connected but for an isolated vertex
        assume(is_connected(h) and min(h.num_vertices, h.num_hyperedges) <= MAX_ISO_SIDE)
        dual, _ = self.dual_and_perm(h)
        for g in (h, dual):
            a, b = lx.krausz_reconstruct(lx.strip_labels(lx.line_expand(g))).candidates
            assert (
                lx.hypergraph_isomorphic(a, h) and lx.hypergraph_isomorphic(b, dual)
            ) or (lx.hypergraph_isomorphic(a, dual) and lx.hypergraph_isomorphic(b, h))


class TestVertexPropagation:
    """M = P_v' op P_v from the operator's factors."""

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs())
    def test_equals_the_dense_product(self, h):
        p = lx.projections(h)
        for w_v, w_e in ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.3, 7.0)):
            op = lx.renormalized_operator(lx.line_expand(h, w_v, w_e))
            expected = p.p_v_back.toarray() @ op.matrix.toarray() @ p.p_v.toarray()
            got = vertex_propagation(p.p_v_back, p.h_r, op)
            assert got.shape == (h.num_vertices, h.num_vertices)
            assert np.abs(got.toarray() - expected).max() <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs(), st.sampled_from([1, 2, 3]))
    def test_one_layer_at_w_e_zero_is_the_star_expansion(self, h, width):
        """The logits are D_w^{-1} H diag(1/delta^2) H^T x theta, which is
        D_w^{-1/2} A_s D_w^{1/2} x theta; an isolated vertex's row is 0."""
        rng = np.random.default_rng(h.num_pairs)
        x = rng.normal(size=(h.num_vertices, 2))
        theta = rng.normal(size=(2, width))
        op = lx.renormalized_operator(lx.line_expand(h, w_v=1.0, w_e=0.0))
        logits, _ = forward(Model([theta], 1.0, 0.0, "relu"), op, lx.projections(h), x)
        H = lx.incidence_matrix(h).toarray()
        delta = H.sum(axis=0)
        dw = H @ (1 / delta)
        active = dw > 0
        core = H @ np.diag(1 / delta**2) @ H.T @ x @ theta
        assert np.abs(logits[active] - core[active] / dw[active, None]).max() <= 1e-12
        assert not logits[~active].any()
        root = np.sqrt(dw[active])
        a_s = lx.star_adjacency(h).toarray()[np.ix_(active, active)]
        similar = (a_s * root[None, :] / root[:, None]) @ (x @ theta)[active]
        assert np.abs(logits[active] - similar).max() <= 1e-12


class TestPairGroups:
    def test_worked_example(self, worked):
        by_vertex, by_edge = lx.line_expand(worked).groups
        assert by_vertex == ((0, 1), (2, 3), (4, 5), (6,), (7,))
        assert by_edge == ((0, 2), (1, 3, 4), (5, 6, 7))

    def test_empty(self):
        assert lx.line_expand(lx.Hypergraph(0, ())).groups == ((), ())

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs(), st.integers(0, 2), st.integers(0, 2))
    def test_matches_a_dict_grouping(self, h, isolated, empty):
        """Every view of the expansion against the pairs of ``h``, with
        trailing isolated vertices and trailing empty hyperedges added: the
        nodes, the groups (one per vertex and per hyperedge), the pair
        arrays (the columns of P_v and P_e, where ``h`` has no empty
        hyperedge) and the operator's widths."""
        h = lx.Hypergraph(h.num_vertices + isolated, h.edges + ((),) * empty)
        nv, ne = h.num_vertices, h.num_hyperedges
        le = lx.line_expand(h)
        assert le.nodes == tuple(h.pairs())
        assert le.groups == dict_groups(le.nodes, nv, ne)
        v_of, e_of = le.pair_arrays
        assert v_of.dtype == e_of.dtype == np.int64
        if not empty:
            p = lx.projections(h)
            assert v_of.tolist() == p.p_v.indices.tolist()
            assert e_of.tolist() == p.p_e.indices.tolist()
        op = lx.renormalized_operator(le)
        assert op.p_v.shape == (le.num_nodes, nv)
        assert op.p_e.shape == (le.num_nodes, ne)

    def test_edges_built_on_demand_and_kept(self, worked):
        le = lx.line_expand(worked)
        assert "edges" not in vars(le)
        assert le.edges is le.edges
        assert "edges" in vars(le)
        assert le == lx.line_expand(worked)

    def test_pair_arrays_built_once_and_read_only(self, worked):
        le = lx.line_expand(worked)
        v_of, e_of = le.pair_arrays
        assert all(a is b for a, b in zip(le.pair_arrays, (v_of, e_of)))
        assert v_of.tolist() == [v for v, _ in le.nodes]
        assert e_of.tolist() == [e for _, e in le.nodes]
        for of in (v_of, e_of):
            with pytest.raises(ValueError, match="read-only"):
                of[0] = 1
        assert le == lx.line_expand(worked)

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs())
    def test_edges_in_incidence_order(self, h):
        """Vertex-similar pairs per vertex, then hyperedge-similar pairs per
        hyperedge, both in (v, e) node order."""
        index = {pair: i for i, pair in enumerate(h.pairs())}
        expected = []
        for v in range(h.num_vertices):
            ids = [index[v, e] for e in h.vertex_edges(v)]
            expected += [(a, b, lx.VERTEX_SIMILAR) for k, a in enumerate(ids) for b in ids[k + 1:]]
        for e, verts in enumerate(h.edges):
            ids = [index[v, e] for v in verts]
            expected += [(a, b, lx.HYPEREDGE_SIMILAR) for k, a in enumerate(ids) for b in ids[k + 1:]]
        assert lx.line_expand(h).edges == tuple(expected)


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

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs())
    def test_equals_networkx_normalized_laplacian(self, h):
        """Off the diagonal, the clique adjacency is minus networkx's
        normalized Laplacian of the clique graph weighted by shared
        hyperedges."""
        shared = Counter(uv for verts in h.edges for uv in itertools.combinations(verts, 2))
        g = nx.Graph()
        g.add_nodes_from(range(h.num_vertices))
        g.add_weighted_edges_from((u, v, w) for (u, v), w in shared.items())
        lap = nx.normalized_laplacian_matrix(g, nodelist=range(h.num_vertices)).toarray()
        off = ~np.eye(h.num_vertices, dtype=bool)
        got = lx.clique_adjacency(h).toarray()
        assert np.abs(got[off] + lap[off]).max(initial=0) <= 1e-12


class TestStarAdjacency:
    def test_weighted_variant_worked_pair(self, worked):
        a = lx.star_adjacency(worked).toarray()
        assert a[0, 1] == pytest.approx(13 / 30, abs=1e-15)

    def test_no_shared_hyperedge_is_zero(self, worked):
        a = lx.star_adjacency(worked).toarray()
        assert a[0, 3] == 0
        assert a[0, 4] == 0

    def test_symmetric_on_corpus(self):
        for h in random_corpus(200):
            a = lx.star_adjacency(h).toarray()
            assert np.allclose(a, a.T, atol=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs())
    def test_equals_closed_form(self, h):
        """H diag(1/delta^2) H^T over sqrt(dw(u) dw(v)), computed densely;
        an isolated vertex (dw = 0) gets a zero row."""
        H = np.zeros((h.num_vertices, h.num_hyperedges))
        for e, verts in enumerate(h.edges):
            H[list(verts), e] = 1.0
        delta = H.sum(axis=0)
        dw = H @ (1.0 / delta)
        scale = np.divide(1.0, np.sqrt(dw), out=np.zeros_like(dw), where=dw > 0)
        expected = scale[:, None] * (H @ np.diag(1.0 / delta**2) @ H.T) * scale[None, :]
        assert np.abs(lx.star_adjacency(h).toarray() - expected).max(initial=0) <= 1e-12

    def test_empty_hyperedge_rejected(self):
        with pytest.raises(lx.HypergraphError, match=r"^empty hyperedges \(1,\)$"):
            lx.star_adjacency(lx.Hypergraph(2, ((0, 1), ())))


class TestLineGraphEquivalence:
    def test_worked_example(self, worked):
        assert check_line_graph_equivalence(worked, lx.line_expand(worked)).passed

    def test_star_expansion_shape(self, worked):
        n, edges = star_expansion_graph(worked)
        assert n == 8
        assert len(edges) == 8  # one per incidence pair

    def test_line_graph_definition(self):
        # path a-b-c: two edges sharing b -> line graph is a single edge
        assert line_graph(3, [(0, 1), (1, 2)]) == [(0, 1)]

    def test_corpus(self):
        for h in random_corpus(50, nv=12, ne=6, p=0.3):
            assert check_line_graph_equivalence(h, lx.line_expand(h)).passed

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs())
    def test_line_graph_matches_networkx(self, h):
        n, edges = star_expansion_graph(h)
        got = line_graph(n, edges)
        index = {frozenset(edge): k for k, edge in enumerate(edges)}
        expected = sorted(
            tuple(sorted((index[frozenset(a)], index[frozenset(b)])))
            for a, b in nx.line_graph(nx.Graph(edges)).edges
        )
        assert got == expected

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=10),
            )
        )
    )
    def test_line_graph_of_multigraph_matches_pairwise_definition(self, graph):
        # parallel edges and self-loops, which a star expansion never has
        n, edges = graph
        expected = [
            (i, j)
            for i in range(len(edges))
            for j in range(i + 1, len(edges))
            if set(edges[i]) & set(edges[j])
        ]
        assert line_graph(n, edges) == expected
