"""Inverting a line expansion back to a hypergraph.

Labeled inversion just reads the (vertex, hyperedge) pairs off the line
nodes. Structure-only inversion reads the Krausz cover straight off the
graph: the unlabeled line expansion is the line graph of the bipartite star
expansion, so each edge lies in exactly one clique (its two ends and their
common neighbors), one per vertex or hyperedge. One pass over the edges
builds these cliques; every node then lies in at most two, and size-1
cliques pad it to exactly two. The cliques are 2-colored into a vertex side
and a hyperedge side, and both dual candidates are emitted.
"""
from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass

from .expansions import LineExpansion, pair_groups
from .hypergraph import Hypergraph, HypergraphError, hyperedge_degrees, vertex_degrees

MAX_KRAUSZ_NODES = 64
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
    """Both dual candidates (a hypergraph and its dual share an unlabeled
    line expansion) plus the cover that produced them."""

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
    _, by_edge = pair_groups(pairs)
    members = tuple(tuple(sorted(pairs[i][0] for i in ids)) for ids in by_edge)
    return Hypergraph(nv, members + ((),) * (ne - len(members)))


def _two_color(cliques: list[frozenset[int]], node_cliques: list[list[int]]):
    """2-color cliques so the two cliques at every node differ; None if
    impossible. Color 0 is assigned to the lowest-indexed clique of each
    clique-graph component."""
    color = [-1] * len(cliques)
    adj: list[set[int]] = [set() for _ in cliques]
    for cl_ids in node_cliques:
        for a, b in itertools.combinations(cl_ids, 2):
            adj[a].add(b)
            adj[b].add(a)
    for start in range(len(cliques)):
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
    expansion.

    The edge (i, j) lies in exactly one clique of the cover, i, j and their
    common neighbors, because the star expansion has no triangles. The
    cliques are taken in the order of the sorted edges, and nodes in fewer
    than two are padded with size-1 cliques in node order. The graph is
    rejected with ``NotALineExpansionError`` when such a set is not a clique
    or repeats a covered edge, a node lies in more than two cliques, or the
    cliques cannot be 2-colored.

    The candidates are guaranteed for connected inputs only. Every component
    gives color 0 to the clique of its smallest edge, so on a disconnected
    input whose components need different orientations neither candidate
    is isomorphic to the hypergraph the graph came from.
    """
    if g.num_nodes > MAX_KRAUSZ_NODES:
        raise HypergraphError(
            f"structure-only reconstruction limited to {MAX_KRAUSZ_NODES} nodes"
        )
    adj = g.adjacency_sets()
    covered: set[tuple[int, int]] = set()
    cliques: list[frozenset[int]] = []
    node_cliques: list[list[int]] = [[] for _ in range(g.num_nodes)]
    for i, j in g.edges:
        if (i, j) in covered:
            continue
        clique = sorted({i, j} | (adj[i] & adj[j]))
        for a, b in itertools.combinations(clique, 2):
            if b not in adj[a] or (a, b) in covered:
                raise NotALineExpansionError(
                    f"the common neighbors of edge ({i}, {j}) are not a new clique"
                )
            covered.add((a, b))
        for x in clique:
            node_cliques[x].append(len(cliques))
        cliques.append(frozenset(clique))
    for x in range(g.num_nodes):
        if len(node_cliques[x]) > 2:
            raise NotALineExpansionError(f"node {x} lies in more than two cliques")
        while len(node_cliques[x]) < 2:
            cliques.append(frozenset([x]))
            node_cliques[x].append(len(cliques) - 1)
    color = _two_color(cliques, node_cliques)
    if color is None:
        raise NotALineExpansionError("the cliques cannot be split into vertices and hyperedges")
    cover = CliqueCover(tuple(cliques), tuple((a, b) for a, b in node_cliques))
    h_a = _hypergraph_from_cover(cliques, node_cliques, color, side=0)
    h_b = _hypergraph_from_cover(cliques, node_cliques, color, side=1)
    return ReconstructionResult((h_a, h_b), cover)


def _hypergraph_from_cover(cliques, node_cliques, color, side: int) -> Hypergraph:
    """Cliques of the chosen color become vertices, the rest hyperedges;
    each graph node contributes one incidence pair."""
    order = sorted(range(len(cliques)), key=lambda k: sorted(cliques[k]))
    v_ids = {k: i for i, k in enumerate(q for q in order if color[q] == side)}
    e_ids = {k: i for i, k in enumerate(q for q in order if color[q] != side)}
    members: list[set[int]] = [set() for _ in range(len(e_ids))]
    for a, b in node_cliques:
        if color[a] == side:
            vk, ek = a, b
        else:
            vk, ek = b, a
        members[e_ids[ek]].add(v_ids[vk])
    return Hypergraph(
        len(v_ids), tuple(tuple(sorted(m)) for m in members)
    )


def dual_hypergraph(h: Hypergraph) -> Hypergraph:
    """Swap the roles of vertices and hyperedges (transpose the incidence)."""
    members: list[list[int]] = [[] for _ in range(h.num_vertices)]
    for v, e in h.pairs():
        members[v].append(e)
    return Hypergraph(h.num_hyperedges, tuple(tuple(sorted(m)) for m in members))


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
