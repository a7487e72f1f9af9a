"""Inverting a line expansion back to a hypergraph.

Labeled inversion just reads the (vertex, hyperedge) pairs off the line
nodes. Structure-only inversion reads the Krausz cover straight off the
graph: the unlabeled line expansion is the line graph of the bipartite star
expansion, so each edge lies in exactly one clique (its two ends and their
common neighbors), one per vertex or hyperedge. One unchecked pass over the
edges builds these cliques, size-1 cliques pad every node to two, and a
2-coloring gives each node a (vertex, hyperedge) pair: one candidate, whose
dual is the other. One count then certifies that the graph is the
candidate's line expansion.
Back-projection and the cover assemble their hypergraph from its incidence
pairs in :func:`_hypergraph_from_pairs`; the dual is its transpose.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, combinations

from .expansions import LineExpansion
from .hypergraph import Hypergraph, HypergraphError, vertex_degrees

MAX_ISO_SIDE = 10


class NotALineExpansionError(HypergraphError):
    """The input graph admits no bipartite Krausz partition."""


@dataclass(frozen=True)
class UnlabeledGraph:
    """Simple undirected graph; edges canonical (i < j), deduplicated."""

    num_nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for i, j in self.edges:
            if not (0 <= i < j < self.num_nodes):
                raise HypergraphError(f"bad edge ({i}, {j})")
        if len(set(self.edges)) != len(self.edges):
            raise HypergraphError("duplicate edges")

    @classmethod
    def from_edges(cls, num_nodes: int, edges) -> "UnlabeledGraph":
        canon = sorted({(min(i, j), max(i, j)) for i, j in edges if i != j})
        return cls(num_nodes, tuple(canon))


@dataclass(frozen=True)
class CliqueCover:
    """Krausz cover: every edge inside exactly one clique, every node in
    exactly two cliques (size-1 cliques pad nodes covered fewer times)."""

    cliques: tuple[frozenset[int], ...]
    assignment: tuple[tuple[int, int], ...]  # per node, its two clique ids


@dataclass(frozen=True)
class ReconstructionResult:
    """Both candidates, the second the dual of the first (a hypergraph and
    its dual share an unlabeled line expansion), plus the cover that
    produced them."""

    candidates: tuple[Hypergraph, Hypergraph]
    cover: CliqueCover


def strip_labels(le: LineExpansion) -> UnlabeledGraph:
    """The line expansion's topology: the pairs within each of ``le.groups``,
    sorted. A group lists its ids ascending, so each pair has i < j, and no
    pair repeats, as two distinct line nodes, distinct incidence pairs of
    ``le.hypergraph``, share a vertex or a hyperedge but not both."""
    pairs = (p for ids in chain.from_iterable(le.groups) for p in combinations(ids, 2))
    return UnlabeledGraph(le.num_nodes, tuple(sorted(pairs)))


def back_project_labeled(
    le: LineExpansion,
    num_vertices: int | None = None,
    num_hyperedges: int | None = None,
) -> Hypergraph:
    """Rebuild the hypergraph whose incidence pairs are the line-node labels.

    Counts default to those of ``le.hypergraph``. Explicit counts may drop
    trailing isolated vertices and empty hyperedges; dropping a labeled one
    is an error (a vertex out of range fails in :class:`Hypergraph`).
    """
    h = le.hypergraph
    if num_vertices is None:
        num_vertices = h.num_vertices
    if num_hyperedges is None:
        num_hyperedges = h.num_hyperedges
    elif any(h.edges[max(num_hyperedges, 0):]):
        raise HypergraphError("num_hyperedges smaller than labels require")
    return _hypergraph_from_pairs(num_vertices, num_hyperedges, le.nodes)


def _hypergraph_from_pairs(num_vertices: int, num_hyperedges: int, pairs) -> Hypergraph:
    """The hypergraph whose incidence pairs are the (vertex, hyperedge)
    ``pairs``, each hyperedge's members sorted."""
    members: list[list[int]] = [[] for _ in range(num_hyperedges)]
    for v, e in pairs:
        members[e].append(v)
    return Hypergraph(num_vertices, tuple(tuple(sorted(m)) for m in members))


def _two_color(cliques, node_cliques: list[list[int]]):
    """2-color cliques so the two cliques at every node differ; None if
    impossible. A clique's neighbors are its members' other cliques. Color 0
    goes to the lowest-indexed clique of each clique-graph component."""
    color = [-1] * len(cliques)
    for start in range(len(cliques)):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            a = queue.popleft()
            for x in cliques[a]:
                p, q = node_cliques[x]
                b = q if p == a else p
                if color[b] == -1:
                    color[b] = 1 - color[a]
                    queue.append(b)
                elif color[b] == color[a]:
                    return None
    return color


def krausz_reconstruct(g: UnlabeledGraph) -> ReconstructionResult:
    """Reconstruct the two dual hypergraph candidates from an unlabeled line
    expansion of any size.

    Each edge (i, j) whose ends share no clique yet opens the clique of i, j
    and their common neighbors, in sorted edge order; in a line expansion
    that is its one clique, as the star expansion has no triangles. The
    first candidate takes the color-0 cliques as its vertices, each side
    numbered by its cliques' smallest nodes; the second is its dual.

    ``NotALineExpansionError`` is raised when a node would enter a third
    clique, the cliques cannot be 2-colored, or they fail the certificate,
    one count: S = sum of C(|c|, 2) over the cliques must equal |E(g)|.
    Every edge lies in a clique (it is skipped only when its ends share one)
    and no edge repeats, so S >= (node pairs inside a clique) >= |E(g)|.
    S = |E(g)| makes both exact: no two nodes share two cliques, so the
    (vertex, hyperedge) pairs are distinct, and every pair inside a clique
    is an edge, so ``g`` is the candidate's line expansion.

    The candidates are guaranteed for connected inputs only. Every component
    gives color 0 to the clique of its smallest edge, so on a disconnected
    input whose components need different orientations neither candidate
    is isomorphic to the hypergraph the graph came from.
    """
    adj: list[set[int]] = [set() for _ in range(g.num_nodes)]
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    cliques: list[frozenset[int]] = []
    node_cliques: list[list[int]] = [[] for _ in range(g.num_nodes)]
    for i, j in g.edges:
        for k in node_cliques[i]:
            if j in cliques[k]:
                break
        else:
            clique = frozenset({i, j} | (adj[i] & adj[j]))
            for x in clique:
                if len(node_cliques[x]) == 2:
                    raise NotALineExpansionError(f"node {x} lies in more than two cliques")
                node_cliques[x].append(len(cliques))
            cliques.append(clique)
    covered = sum(len(c) * (len(c) - 1) // 2 for c in cliques)
    if covered != len(g.edges):
        raise NotALineExpansionError(f"the cliques hold {covered} node pairs for {len(g.edges)} edges")
    for x in range(g.num_nodes):
        while len(node_cliques[x]) < 2:
            cliques.append(frozenset([x]))
            node_cliques[x].append(len(cliques) - 1)
    color = _two_color(cliques, node_cliques)
    if color is None:
        raise NotALineExpansionError("the cliques cannot be split into vertices and hyperedges")
    h = _hypergraph_from_cover(node_cliques, color)
    cover = CliqueCover(tuple(cliques), tuple((a, b) for a, b in node_cliques))
    return ReconstructionResult((h, dual_hypergraph(h)), cover)


def _hypergraph_from_cover(node_cliques, color) -> Hypergraph:
    """The hypergraph of the nodes' (vertex, hyperedge) pairs: cliques of
    color 0 become vertices, the rest hyperedges. The cliques of one color
    partition the nodes, so numbering each side's cliques in the order they
    first hold a node numbers them in the order of their sorted members."""
    v_ids: dict[int, int] = {}
    e_ids: dict[int, int] = {}
    pairs = []
    for a, b in node_cliques:
        if color[a]:
            a, b = b, a
        pairs.append((v_ids.setdefault(a, len(v_ids)), e_ids.setdefault(b, len(e_ids))))
    return _hypergraph_from_pairs(len(v_ids), len(e_ids), pairs)


def dual_hypergraph(h: Hypergraph) -> Hypergraph:
    """Swap the roles of vertices and hyperedges: the hyperedges of the dual
    are the stored per-vertex incidence lists, the transpose of ``h``."""
    return Hypergraph(h.num_hyperedges, tuple(map(h.vertex_edges, range(h.num_vertices))))


def hypergraph_isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    """Exact isomorphism test via backtracking over the smaller side.

    Hyperedges of b are matched to hyperedges of a (pruned by degree and by
    the incident-vertex degree multiset); a vertex bijection then exists iff
    the multisets of per-vertex incidence signatures coincide.
    """
    if a.num_vertices != b.num_vertices or a.num_hyperedges != b.num_hyperedges:
        return False
    if min(a.num_vertices, a.num_hyperedges) > MAX_ISO_SIDE:
        raise HypergraphError(
            f"isomorphism test limited to min(|V|, |E|) <= {MAX_ISO_SIDE}"
        )
    if a.num_hyperedges > a.num_vertices:
        return hypergraph_isomorphic(dual_hypergraph(a), dual_hypergraph(b))

    def edge_keys(h: Hypergraph) -> list:
        dv = vertex_degrees(h).values
        return [(len(verts), tuple(sorted(dv[v] for v in verts))) for verts in h.edges]

    # Equal key multisets imply equal hyperedge-degree multisets (each key
    # holds len(e)) and, as |V| is equal, equal vertex-degree multisets (a
    # vertex of degree k >= 1 appears k times among the keys' degree lists).
    keys_a, keys_b = edge_keys(a), edge_keys(b)
    if sorted(keys_a) != sorted(keys_b):
        return False
    candidates = [
        [f for f in range(b.num_hyperedges) if keys_b[f] == keys_a[e]]
        for e in range(a.num_hyperedges)
    ]

    sig_a = Counter(frozenset(a.vertex_edges(v)) for v in range(a.num_vertices))

    def matches(mapping: dict[int, int]) -> bool:
        inv = {f: e for e, f in mapping.items()}
        sig_b = Counter(
            frozenset(inv[f] for f in b.vertex_edges(v))
            for v in range(b.num_vertices)
        )
        return sig_a == sig_b

    def assign(e: int, mapping: dict[int, int], used: set[int]) -> bool:
        if e == a.num_hyperedges:
            return matches(mapping)
        for f in candidates[e]:
            if f in used:
                continue
            mapping[e] = f
            used.add(f)
            if assign(e + 1, mapping, used):
                return True
            del mapping[e]
            used.discard(f)
        return False

    return assign(0, {}, set())
