import itertools
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import linexp as lx
from linexp.reconstruction import UnlabeledGraph, _two_color, dual_hypergraph, strip_labels
from linexp.verify import random_connected_hypergraph

from test_expansions import messy_hypergraphs


@settings(max_examples=150, deadline=None)
@given(messy_hypergraphs())
def test_strip_labels_keeps_the_line_edges_as_built(h):
    """le.edges is already canonical: each i < j, none repeated."""
    le = lx.line_expand(h)
    expected = UnlabeledGraph.from_edges(le.num_nodes, [(i, j) for i, j, _ in le.edges])
    assert strip_labels(le) == expected


@settings(max_examples=150, deadline=None)
@given(messy_hypergraphs(), st.booleans())
def test_dual_is_the_pair_swap(h, empty):
    if empty:
        h = lx.Hypergraph(h.num_vertices, h.edges + ((),))
    # each (v, e) swapped to (e, v), read off the hyperedges
    members = [[] for _ in range(h.num_vertices)]
    for e, verts in enumerate(h.edges):
        for v in verts:
            members[v].append(e)
    expected = lx.Hypergraph(h.num_hyperedges, tuple(tuple(sorted(m)) for m in members))
    assert dual_hypergraph(h) == expected


class TestBackProjectLabeled:
    def test_worked_example_exact(self, worked):
        le = lx.line_expand(worked)
        assert lx.back_project_labeled(le) == worked

    def test_single_line_node(self):
        h = lx.Hypergraph(1, ((0,),))
        assert lx.back_project_labeled(lx.line_expand(h)) == h

    def test_round_trip_on_corpus(self):
        for seed in range(200):
            h = lx.random_hypergraph(10, 7, 0.35, seed)
            le = lx.line_expand(h)
            back = lx.back_project_labeled(le, h.num_vertices, h.num_hyperedges)
            assert back == h

    def test_explicit_counts_keep_isolated_vertices(self):
        h = lx.Hypergraph(3, ((0, 1),))  # vertex 2 isolated
        le = lx.line_expand(h)
        assert lx.back_project_labeled(le, 3, 1) == lx.back_project_labeled(le) == h
        assert lx.back_project_labeled(le, 2, 1) == lx.Hypergraph(2, ((0, 1),))

    def test_explicit_counts_keep_empty_hyperedges(self):
        h = lx.Hypergraph(3, ((), (0, 1), (), ()))
        le = lx.line_expand(h)
        assert lx.back_project_labeled(le, 3, 4) == lx.back_project_labeled(le) == h
        assert lx.back_project_labeled(le, 2, 2) == lx.Hypergraph(2, ((), (0, 1)))
        with pytest.raises(lx.HypergraphError, match="^num_hyperedges smaller than labels require$"):
            lx.back_project_labeled(le, 3, 1)

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs())
    def test_round_trip_in_any_node_order(self, h):
        """Isolated vertices, singleton and duplicate hyperedges come back,
        with the counts given and with the default ones."""
        le = lx.line_expand(h)
        assert lx.back_project_labeled(le, h.num_vertices, h.num_hyperedges) == h
        assert lx.back_project_labeled(le) == h


class TestKrauszReconstruct:
    def test_worked_example_unlabeled(self, worked):
        g = strip_labels(lx.line_expand(worked))
        result = lx.krausz_reconstruct(g)
        assert any(
            lx.hypergraph_isomorphic(worked, c) for c in result.candidates
        )

    def test_triangle_yields_star_duals(self):
        tri = lx.UnlabeledGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        result = lx.krausz_reconstruct(tri)
        star = lx.Hypergraph(3, ((0, 1, 2),))  # 3 vertices, 1 hyperedge
        assert any(lx.hypergraph_isomorphic(star, c) for c in result.candidates)
        assert any(
            lx.hypergraph_isomorphic(dual_hypergraph(star), c)
            for c in result.candidates
        )

    def test_single_node(self):
        g = lx.UnlabeledGraph(1, ())
        result = lx.krausz_reconstruct(g)
        assert result.candidates[0] == lx.Hypergraph(1, ((0,),))

    def test_non_line_graph_rejected(self):
        # K_{1,3} is the classic non-line-graph
        claw = lx.UnlabeledGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(lx.NotALineExpansionError):
            lx.krausz_reconstruct(claw)

    def test_cover_invariants_on_corpus(self):
        rng = np.random.default_rng(7)
        for t in range(30):
            nv = int(rng.integers(2, 9))
            ne = int(rng.integers(1, 7))
            h = random_connected_hypergraph(nv, ne, 0.4, 900 + t)
            g = strip_labels(lx.line_expand(h))
            assert_cover_invariants(g, lx.krausz_reconstruct(g).cover)

    def test_round_trip_corpus(self):
        rng = np.random.default_rng(11)
        for t in range(50):
            nv = int(rng.integers(2, 9))
            ne = int(rng.integers(1, 7))
            p = float(rng.uniform(0.25, 0.7))
            h = random_connected_hypergraph(nv, ne, p, 3000 + t)
            g = strip_labels(lx.line_expand(h))
            result = lx.krausz_reconstruct(g)
            assert any(
                lx.hypergraph_isomorphic(h, c) for c in result.candidates
            ), (t, h)

    def test_disconnected_input(self):
        # two disjoint triangles: union of the component reconstructions
        g = lx.UnlabeledGraph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        result = lx.krausz_reconstruct(g)
        counts = {
            (c.num_vertices, c.num_hyperedges) for c in result.candidates
        }
        # each component resolves to a 3-vertex/1-hyperedge star or its dual
        assert all(n + m == 8 for n, m in counts)

    @pytest.mark.xfail(strict=True, reason="every component gets the same orientation")
    def test_disconnected_components_keep_their_orientations(self):
        """Two K3 components: one is vertex 0's clique, the other hyperedge
        3's. Both give color 0 to their clique, so the candidates have
        shapes (2, 6) and (6, 2), and neither is h, of shape (4, 4)."""
        h = lx.Hypergraph(4, ((0,), (0,), (0,), (1, 2, 3)))
        result = lx.krausz_reconstruct(strip_labels(lx.line_expand(h)))
        assert any(lx.hypergraph_isomorphic(h, c) for c in result.candidates)

    @pytest.mark.parametrize(
        "h",
        [
            # 13 hyperedges of 5 cyclically consecutive vertices: 65 pairs
            lx.Hypergraph(13, tuple(
                tuple(sorted((i + k) % 13 for k in range(5))) for i in range(13)
            )),
            random_connected_hypergraph(300, 120, 0.03, 5),  # 1,151 pairs
        ],
        ids=["65-nodes", "1151-nodes"],
    )
    def test_any_size(self, h):
        """Connected inputs past 64 line nodes reconstruct. The first
        candidate's star graph is isomorphic to h's, so h is isomorphic to
        that candidate or to its dual, the second candidate."""
        g = strip_labels(lx.line_expand(h))
        assert g.num_nodes == h.num_pairs > 64
        result = lx.krausz_reconstruct(g)
        assert nx.is_isomorphic(star_graph(result.candidates[0]), star_graph(h))
        assert result.candidates[1] == dual_hypergraph(result.candidates[0])

    @pytest.mark.parametrize(
        "n, edges",
        [
            (4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),  # diamond K4 - e
            (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),  # C5
        ],
        ids=["diamond", "C5"],
    )
    def test_non_bipartite_roots_rejected(self, n, edges):
        # the diamond's only root is the paw, C5's is C5: neither is bipartite
        with pytest.raises(lx.NotALineExpansionError):
            lx.krausz_reconstruct(lx.UnlabeledGraph.from_edges(n, edges))

    @pytest.mark.parametrize(
        "n, edges",
        [
            (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),  # C4
            (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),  # C6
            (3, []),  # isolated nodes
            (5, [(0, 1), (2, 3), (3, 4), (2, 4)]),  # K2 + K3
        ],
        ids=["C4", "C6", "isolated", "K2+K3"],
    )
    def test_bipartite_roots_accepted(self, n, edges):
        g = lx.UnlabeledGraph.from_edges(n, edges)
        result = lx.krausz_reconstruct(g)
        for cand in result.candidates:
            assert nx.is_isomorphic(nx.line_graph(star_graph(cand)), as_networkx(g))

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_accepts_exactly_the_line_graphs_of_bipartite_graphs(self, data):
        g = data.draw(graphs_near_line_expansions())
        try:
            result = lx.krausz_reconstruct(g)
        except lx.NotALineExpansionError:
            result = None
        assert (result is not None) == networkx_accepts(g)
        if result is not None:
            assert_cover_invariants(g, result.cover)
            line = nx.line_graph(star_graph(result.candidates[0]))
            assert nx.is_isomorphic(line, as_networkx(g))
            assert result.candidates[1] == dual_hypergraph(result.candidates[0])
            assert result.candidates[0] == numbered_by_sorted_members(result.cover)


def assert_cover_invariants(g: lx.UnlabeledGraph, cover) -> None:
    """The build invariants the certificate rests on: every edge lies in
    exactly one clique, every node in exactly two, and the cliques hold
    C(|c|, 2) node pairs, |E| in all."""
    edge_hits = Counter()
    for cl in cover.cliques:
        edge_hits.update(itertools.combinations(sorted(cl), 2))
    assert set(edge_hits) == set(g.edges)
    assert all(c == 1 for c in edge_hits.values())
    assert len(cover.assignment) == g.num_nodes
    node_hits = Counter(x for cl in cover.cliques for x in cl)
    assert all(node_hits[x] == 2 for x in range(g.num_nodes))
    assert sum(len(cl) * (len(cl) - 1) // 2 for cl in cover.cliques) == len(g.edges)


def numbered_by_sorted_members(cover) -> lx.Hypergraph:
    """The first candidate of a cover: color-0 cliques are vertices, the
    others hyperedges, each side numbered in the order of its cliques'
    sorted members."""
    color = _two_color(cover.cliques, cover.assignment)
    order = sorted(range(len(cover.cliques)), key=lambda k: sorted(cover.cliques[k]))
    v_ids, e_ids = (
        {k: i for i, k in enumerate(q for q in order if color[q] == c)} for c in (0, 1)
    )
    members = [[] for _ in e_ids]
    for a, b in cover.assignment:
        if color[a]:
            a, b = b, a
        members[e_ids[b]].append(v_ids[a])
    return lx.Hypergraph(len(v_ids), tuple(tuple(sorted(m)) for m in members))


def as_networkx(g: lx.UnlabeledGraph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.num_nodes))
    out.add_edges_from(g.edges)
    return out


def star_graph(h: lx.Hypergraph) -> nx.Graph:
    """Bipartite vertex/hyperedge graph, one edge per incidence pair."""
    return nx.Graph((("v", v), ("e", e)) for v, e in h.pairs())


def networkx_accepts(g: lx.UnlabeledGraph) -> bool:
    """Oracle: every component is an isolated node, or K3 (the line graph
    of the star K_{1,3} as well as of K3), or has a bipartite root under
    networkx's inverse line graph."""
    full = as_networkx(g)
    for nodes in nx.connected_components(full):
        comp = full.subgraph(nodes)
        if len(comp) == 1 or nx.is_isomorphic(comp, nx.complete_graph(3)):
            continue
        try:
            root = nx.inverse_line_graph(comp)
        except nx.NetworkXError:
            return False
        if not nx.is_bipartite(root):
            return False
    return True


@st.composite
def graphs_near_line_expansions(draw) -> lx.UnlabeledGraph:
    """Graphs on at most 10 nodes: arbitrary ones, and unlabeled line
    expansions of small hypergraphs with up to two node pairs toggled."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 10))
        pairs = list(itertools.combinations(range(n), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return lx.UnlabeledGraph(n, tuple(p for p, k in zip(pairs, keep) if k))
    incidences = draw(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                              min_size=1, max_size=10))
    nv = max(v for v, _ in incidences) + 1
    ne = max(e for _, e in incidences) + 1
    h = lx.Hypergraph(nv, tuple(
        tuple(sorted(v for v, f in incidences if f == e)) for e in range(ne)
    ))
    g = strip_labels(lx.line_expand(h))
    edges = set(g.edges)
    pairs = list(itertools.combinations(range(g.num_nodes), 2))
    if pairs:
        edges ^= set(draw(st.lists(st.sampled_from(pairs), max_size=2)))
    return lx.UnlabeledGraph.from_edges(g.num_nodes, edges)


def brute_force_isomorphic(a: lx.Hypergraph, b: lx.Hypergraph) -> bool:
    if a.num_vertices != b.num_vertices or a.num_hyperedges != b.num_hyperedges:
        return False
    for sigma in itertools.permutations(range(a.num_vertices)):
        mapped = Counter(
            tuple(sorted(sigma[v] for v in edge)) for edge in a.edges
        )
        if mapped == Counter(b.edges):
            return True
    return False


def all_hypergraphs(nv: int, ne: int):
    subsets = []
    for r in range(nv + 1):
        subsets.extend(itertools.combinations(range(nv), r))
    for combo in itertools.product(subsets, repeat=ne):
        yield lx.Hypergraph(nv, combo)


@st.composite
def hypergraph_pairs(draw):
    """Two hypergraphs with equal |V| <= 7 and |E| <= 7, empty and duplicate
    hyperedges and isolated vertices among them: the second is a relabeled
    copy of the first, such a copy with one incidence toggled or with two
    swapped between hyperedges (every degree kept), or drawn afresh."""
    nv, ne = draw(st.integers(1, 7)), draw(st.integers(0, 7))
    edge = st.sets(st.integers(0, nv - 1)).map(lambda vs: tuple(sorted(vs)))
    edges = st.lists(edge, min_size=ne, max_size=ne)
    a = lx.Hypergraph(nv, tuple(draw(edges)))
    kind = draw(st.sampled_from(["copy", "toggled", "swapped", "fresh"]))
    if kind == "fresh":
        return a, lx.Hypergraph(nv, tuple(draw(edges)))
    sigma = draw(st.permutations(range(nv)))
    members = [{sigma[v] for v in verts} for verts in draw(st.permutations(a.edges))]
    if kind == "toggled" and ne:
        members[draw(st.integers(0, ne - 1))] ^= {draw(st.integers(0, nv - 1))}
    if kind == "swapped" and ne:
        e, f = draw(st.integers(0, ne - 1)), draw(st.integers(0, ne - 1))
        if members[e] - members[f] and members[f] - members[e]:
            u = draw(st.sampled_from(sorted(members[e] - members[f])))
            v = draw(st.sampled_from(sorted(members[f] - members[e])))
            members[e] ^= {u, v}
            members[f] ^= {u, v}
    return a, lx.Hypergraph(nv, tuple(tuple(sorted(m)) for m in members))


def marked_star_graph(h: lx.Hypergraph) -> nx.Graph:
    """:func:`star_graph` with every vertex and every hyperedge a node,
    isolated or not, marked by its side."""
    g = nx.Graph()
    g.add_nodes_from((("v", v), {"side": "v"}) for v in range(h.num_vertices))
    g.add_nodes_from((("e", e), {"side": "e"}) for e in range(h.num_hyperedges))
    g.add_edges_from((("v", v), ("e", e)) for e, verts in enumerate(h.edges) for v in verts)
    return g


class TestIsomorphism:
    @settings(max_examples=300, deadline=None)
    @given(hypergraph_pairs())
    @example((lx.Hypergraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5))),
              lx.Hypergraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))))
    def test_agrees_with_star_graph_isomorphism(self, pair):
        """Beyond the exhaustive test's sizes: isomorphic iff the star
        graphs are, with vertices matched to vertices. The example, C6
        against two triangles, has equal edge keys."""
        a, b = pair
        expected = nx.is_isomorphic(marked_star_graph(a), marked_star_graph(b),
                                    node_match=lambda x, y: x["side"] == y["side"])
        assert lx.hypergraph_isomorphic(a, b) == expected

    def test_permuted_copy(self):
        for seed in range(20):
            h = lx.random_hypergraph(7, 5, 0.4, seed)
            rng = np.random.default_rng(seed)
            sigma = rng.permutation(h.num_vertices)
            permuted = lx.Hypergraph(
                h.num_vertices,
                tuple(
                    tuple(sorted(int(sigma[v]) for v in e)) for e in h.edges
                ),
            )
            assert lx.hypergraph_isomorphic(h, permuted)

    def test_different_degree_multisets(self):
        a = lx.Hypergraph(3, ((0, 1), (1, 2)))
        b = lx.Hypergraph(3, ((0, 1), (0, 1)))
        assert not lx.hypergraph_isomorphic(a, b)

    def test_exhaustive_agreement_with_brute_force(self):
        pool = [
            h
            for nv in (1, 2, 3)
            for ne in (0, 1, 2)
            for h in all_hypergraphs(nv, ne)
        ]
        groups = {}
        for h in pool:
            groups.setdefault((h.num_vertices, h.num_hyperedges), []).append(h)
        for hs in groups.values():
            for a, b in itertools.combinations_with_replacement(hs, 2):
                assert lx.hypergraph_isomorphic(a, b) == brute_force_isomorphic(
                    a, b
                )

    def test_size_limit(self):
        big = lx.Hypergraph(11, tuple((v,) for v in range(11)))
        other = lx.Hypergraph(11, tuple((v,) for v in range(11)))
        with pytest.raises(lx.HypergraphError):
            lx.hypergraph_isomorphic(big, other)

    def test_dual_involution(self):
        for seed in range(10):
            h = lx.random_hypergraph(6, 5, 0.4, seed)
            assert dual_hypergraph(dual_hypergraph(h)) == h
