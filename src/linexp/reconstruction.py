"""Inverting a line expansion back to a hypergraph.

Labeled inversion just reads the (vertex, hyperedge) pairs off the line
nodes. Structure-only inversion reads the Krausz cover straight off the
graph: the unlabeled line expansion is the line graph of the bipartite star
expansion, so each edge lies in exactly one clique (its two ends and their
common neighbors), one per vertex or hyperedge. One unchecked pass over the
edges builds these cliques, size-1 cliques pad every node to two, and a
2-coloring gives each node a (vertex, hyperedge) pair: one candidate, whose
dual is the other. The finished answer is then checked once, by a
certificate that proves the graph is the candidate's line expansion.
Back-projection and the cover assemble their hypergraph from its incidence
pairs in :func:`_hypergraph_from_pairs`; the dual is its transpose.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from .expansions import LineExpansion, size_formulas
from .hypergraph import Hypergraph, HypergraphError, hyperedge_degrees, vertex_degrees

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

    def adjacency_sets(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.num_nodes)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


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
    """The line expansion's topology. ``le.edges`` are built with i < j and,
    the line nodes being distinct, without repeats, so they only need
    sorting."""
    return UnlabeledGraph(le.num_nodes, tuple(sorted((i, j) for i, j, _ in le.edges)))


def back_project_labeled(
    le: LineExpansion,
    num_vertices: int | None = None,
    num_hyperedges: int | None = None,
) -> Hypergraph:
    """Rebuild the hypergraph whose incidence pairs are the line-node labels.

    Counts default to max label + 1; pass them explicitly to keep trailing
    isolated vertices.
    """
    pairs = le.nodes
    if len(set(pairs)) != len(pairs):
        raise HypergraphError("duplicate (vertex, hyperedge) labels")
    nv = max((v for v, _ in pairs), default=-1) + 1
    ne = max((e for _, e in pairs), default=-1) + 1
    if num_vertices is not None:
        if num_vertices < nv:
            raise HypergraphError("num_vertices smaller than labels require")
        nv = num_vertices
    if num_hyperedges is not None:
        if num_hyperedges < ne:
            raise HypergraphError("num_hyperedges smaller than labels require")
        ne = num_hyperedges
    return _hypergraph_from_pairs(nv, ne, pairs)


def _hypergraph_from_pairs(num_vertices: int, num_hyperedges: int, pairs) -> Hypergraph:
    """The hypergraph whose incidence pairs are the (vertex, hyperedge)
    ``pairs``, each hyperedge's members sorted."""
    members: list[list[int]] = [[] for _ in range(num_hyperedges)]
    for v, e in pairs:
        members[e].append(v)
    return Hypergraph(num_vertices, tuple(tuple(sorted(m)) for m in members))


def _two_color(num_cliques: int, node_cliques: list[list[int]]):
    """2-color cliques so the two cliques at every node differ; None if
    impossible. Color 0 is assigned to the lowest-indexed clique of each
    clique-graph component."""
    color = [-1] * num_cliques
    # Two cliques are adjacent iff they share a node; cliques sharing two
    # nodes, which the certificate rejects, only repeat an adjacency.
    adj: list[list[int]] = [[] for _ in range(num_cliques)]
    for a, b in node_cliques:
        adj[a].append(b)
        adj[b].append(a)
    for start in range(num_cliques):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            a = queue.popleft()
            for b in adj[a]:
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
    clique, the cliques cannot be 2-colored, or the answer fails its
    certificate: distinct node pairs, every edge joining pairs that share a
    vertex or a hyperedge, and the edge count of :func:`size_formulas`.
    With no edge repeated, these prove ``g`` is the candidate's line expansion.

    The candidates are guaranteed for connected inputs only. Every component
    gives color 0 to the clique of its smallest edge, so on a disconnected
    input whose components need different orientations neither candidate
    is isomorphic to the hypergraph the graph came from.
    """
    adj = g.adjacency_sets()
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
    for x in range(g.num_nodes):
        while len(node_cliques[x]) < 2:
            cliques.append(frozenset([x]))
            node_cliques[x].append(len(cliques) - 1)
    color = _two_color(len(cliques), node_cliques)
    if color is None:
        raise NotALineExpansionError("the cliques cannot be split into vertices and hyperedges")
    pairs, nv, ne = _pairs_from_cover(node_cliques, color)
    if len(set(pairs)) != len(pairs):
        raise NotALineExpansionError("two nodes lie in the same two cliques")
    for i, j in g.edges:
        (vi, ei), (vj, ej) = pairs[i], pairs[j]
        if vi != vj and ei != ej:
            raise NotALineExpansionError(f"edge ({i}, {j}) joins nodes with no clique in common")
    h = _hypergraph_from_pairs(nv, ne, pairs)
    extra = size_formulas(h)[1] - len(g.edges)
    if extra:
        raise NotALineExpansionError(f"{extra} node pair(s) share a clique but no edge")
    cover = CliqueCover(tuple(cliques), tuple((a, b) for a, b in node_cliques))
    return ReconstructionResult((h, dual_hypergraph(h)), cover)


def _pairs_from_cover(node_cliques, color) -> tuple[list[tuple[int, int]], int, int]:
    """Each node's (vertex, hyperedge) pair and the two side counts: cliques
    of color 0 become vertices, the rest hyperedges. The cliques of one color
    partition the nodes, so numbering each side's cliques in the order they
    first hold a node numbers them in the order of their sorted members."""
    v_ids: dict[int, int] = {}
    e_ids: dict[int, int] = {}
    pairs = []
    for a, b in node_cliques:
        if color[a]:
            a, b = b, a
        pairs.append((v_ids.setdefault(a, len(v_ids)), e_ids.setdefault(b, len(e_ids))))
    return pairs, len(v_ids), len(e_ids)


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
    da = sorted(vertex_degrees(a).values)
    db = sorted(vertex_degrees(b).values)
    if da != db:
        return False
    if sorted(hyperedge_degrees(a).values) != sorted(hyperedge_degrees(b).values):
        return False

    dva = vertex_degrees(a).values
    dvb = vertex_degrees(b).values

    def edge_key(h: Hypergraph, dv, e: int):
        return (len(h.edges[e]), tuple(sorted(dv[v] for v in h.edges[e])))

    keys_a = [edge_key(a, dva, e) for e in range(a.num_hyperedges)]
    keys_b = [edge_key(b, dvb, e) for e in range(b.num_hyperedges)]
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
