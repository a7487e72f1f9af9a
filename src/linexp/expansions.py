"""Clique, star, and line expansions; projection matrices; normalized operator.

Line nodes are the incident (vertex, hyperedge) pairs, ordered by
(v ascending, e ascending). Two line nodes are adjacent when they share the
vertex (kind "vertex-similar", carrying weight w_e) or the hyperedge
(kind "hyperedge-similar", carrying weight w_v).

Everything below the line expansion itself is sparse algebra on the pair
arrays v_of, e_of (the vertex and hyperedge of each line node):

* P_v and P_e are the binary |V_l| x |V| and |V_l| x |E| indicators of
  v_of and e_of; H_r = [P_v, P_e].
* Back-projections: P_v'(v, (v, e)) = w(v, e) / sum_e' w(v, e') with
  w(v, e) = 1/delta(e); P_e'(e, (v, e)) = u(v, e) / sum_v' u(v', e) with
  u(v, e) = 1/d(v).
* P_v P_v^T and P_e P_e^T are 1 on the diagonal and on same-vertex,
  respectively same-hyperedge, pairs. So with self-loop weight
  s = w_v + w_e, sI + A_l = w_e P_v P_v^T + w_v P_e P_e^T, whose row sums
  are D(v, e) = w_e d(v) + w_v delta(e), and the renormalized operator is
  D^{-1/2} (w_e P_v P_v^T + w_v P_e P_e^T) D^{-1/2}.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .hypergraph import (
    Hypergraph,
    HypergraphError,
    hyperedge_degrees,
    incidence_matrix,
    validate,
    vertex_degrees,
)

VERTEX_SIMILAR = "vertex-similar"
HYPEREDGE_SIMILAR = "hyperedge-similar"

# Analysis operations build |V| x |V| outputs; refuse unreasonable sizes.
MAX_ANALYSIS_VERTICES = 4096


def _check_analysis_size(h: Hypergraph) -> None:
    if h.num_vertices > MAX_ANALYSIS_VERTICES:
        raise HypergraphError(
            f"analysis operations refuse |V| > {MAX_ANALYSIS_VERTICES} "
            f"(got {h.num_vertices})"
        )


@dataclass(frozen=True)
class LineExpansion:
    """Line expansion of a hypergraph.

    ``nodes[i]`` is the (vertex, hyperedge) pair of line node i; ``edges`` are
    undirected (i, j, kind) triples with i < j, vertex-similar groups first.
    """

    nodes: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int, str], ...]
    w_v: float
    w_e: float
    node_index: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "node_index", {pair: i for i, pair in enumerate(self.nodes)}
        )

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_weight(self, kind: str) -> float:
        return self.w_e if kind == VERTEX_SIMILAR else self.w_v

    def adjacency(self) -> sp.csr_array:
        """Weighted symmetric adjacency A_l (w_e on vertex-similar edges,
        w_v on hyperedge-similar edges)."""
        n = self.num_nodes
        rows, cols, data = [], [], []
        for i, j, kind in self.edges:
            w = self.edge_weight(kind)
            rows += [i, j]
            cols += [j, i]
            data += [w, w]
        return sp.csr_array(
            (np.asarray(data, dtype=np.float64), (rows, cols)), shape=(n, n)
        )

    def neighbors(self, i: int, kind: str) -> list[int]:
        """Line nodes adjacent to i through edges of the given kind."""
        out = []
        for a, b, k in self.edges:
            if k != kind:
                continue
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return sorted(out)


@dataclass(frozen=True)
class ProjectionSet:
    """The four projectors and the stacked incidence H_r = [P_v, P_e]."""

    p_v: sp.csr_array        # |V_l| x |V| binary
    p_e: sp.csr_array        # |V_l| x |E| binary
    p_v_back: sp.csr_array   # |V| x |V_l|, rows sum to 1
    p_e_back: sp.csr_array   # |E| x |V_l|, rows sum to 1
    h_r: sp.csr_array        # |V_l| x (|V|+|E|) binary


@dataclass(frozen=True)
class NormalizedOperator:
    """Symmetric renormalized convolution operator on line nodes."""

    matrix: sp.csr_array
    w_v: float
    w_e: float
    self_loop_weight: float


def line_expand(h: Hypergraph, w_v: float = 1.0, w_e: float = 1.0) -> LineExpansion:
    """Build the line expansion with parameterized similarity weights."""
    if w_v < 0 or w_e < 0:
        raise HypergraphError("weights must be nonnegative")
    if w_v == 0 and w_e == 0:
        raise HypergraphError("w_v and w_e must not both be zero")
    nodes = tuple(h.pairs())
    index = {pair: i for i, pair in enumerate(nodes)}
    edges: list[tuple[int, int, str]] = []
    # Same vertex, different hyperedge.
    for v in range(h.num_vertices):
        ids = [index[(v, e)] for e in h.vertex_edges(v)]
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                i, j = ids[a], ids[b]
                edges.append((min(i, j), max(i, j), VERTEX_SIMILAR))
    # Same hyperedge, different vertex.
    for e, verts in enumerate(h.edges):
        ids = [index[(v, e)] for v in verts]
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                i, j = ids[a], ids[b]
                edges.append((min(i, j), max(i, j), HYPEREDGE_SIMILAR))
    return LineExpansion(nodes, tuple(edges), float(w_v), float(w_e))


def size_formulas(h: Hypergraph) -> tuple[int, int]:
    """Closed-form (|V_l|, |E_l|) from the degree sequences."""
    d = vertex_degrees(h).as_array()
    delta = hyperedge_degrees(h).as_array()
    n_nodes = int(d.sum() + delta.sum()) // 2
    n_edges = int((d * (d - 1)).sum() // 2 + (delta * (delta - 1)).sum() // 2)
    return n_nodes, n_edges


def projections(h: Hypergraph) -> ProjectionSet:
    """Build P_v, P_e, their back-projections, and H_r.

    Back-projection rows are convex: P_v' weights each (v, e) by 1/delta(e)
    normalized over the hyperedges incident to v; P_e' mirrors with 1/d(v).
    """
    report = validate(h)
    if not report.ok:
        raise HypergraphError(f"empty hyperedges {report.empty_hyperedges}")
    nv, ne = h.num_vertices, h.num_hyperedges
    d = vertex_degrees(h).as_array()
    delta = hyperedge_degrees(h).as_array()
    n_l = int(d.sum())
    # Pairs in (v, e) order: v repeats d(v) times, e runs over vertex_edges(v).
    v_of = np.repeat(np.arange(nv, dtype=np.int64), d)
    e_of = np.fromiter(
        chain.from_iterable(h.vertex_edges(v) for v in range(nv)),
        dtype=np.int64,
        count=n_l,
    )
    rows = np.arange(n_l)
    ones = np.ones(n_l)
    p_v = sp.csr_array((ones, (rows, v_of)), shape=(n_l, nv))
    p_e = sp.csr_array((ones, (rows, e_of)), shape=(n_l, ne))
    h_r = sp.csr_array(sp.hstack([p_v, p_e], format="csr"))

    # bincount adds in pair order, i.e. e ascending per vertex and v
    # ascending per hyperedge.
    w = 1.0 / delta[e_of]
    vb_data = w / np.bincount(v_of, weights=w, minlength=nv)[v_of]
    p_v_back = sp.csr_array((vb_data, (v_of, rows)), shape=(nv, n_l))
    u = 1.0 / d[v_of]
    eb_data = u / np.bincount(e_of, weights=u, minlength=ne)[e_of]
    p_e_back = sp.csr_array((eb_data, (e_of, rows)), shape=(ne, n_l))

    return ProjectionSet(p_v, p_e, p_v_back, p_e_back, h_r)


def block_gram(p: ProjectionSet) -> sp.csr_array:
    """H_r^T H_r; equals [[D_v, H], [H^T, D_e]] exactly."""
    return sp.csr_array(p.h_r.T @ p.h_r)


def adjacency_from_projections(p: ProjectionSet) -> sp.csr_array:
    """H_r H_r^T - 2I; equals the unweighted (w_v = w_e = 1) A_l."""
    n = p.h_r.shape[0]
    gram = sp.csr_array(p.h_r @ p.h_r.T)
    out = gram - 2.0 * sp.identity(n, format="csr")
    out = sp.csr_array(out)
    out.eliminate_zeros()
    return out


def renormalized_operator(le: LineExpansion) -> NormalizedOperator:
    """D^{-1/2} (sI + A_l) D^{-1/2} with self-loop weight s = w_v + w_e.

    Using s = w_v + w_e (rather than literal 2) keeps the operator invariant
    under joint scaling of (w_v, w_e); it equals 2 at w_v = w_e = 1. Built
    from the line nodes alone as w_e P_v P_v^T + w_v P_e P_e^T with degree
    D(v, e) = w_e d(v) + w_v delta(e) (see the module docstring).
    """
    if le.num_nodes == 0:
        raise HypergraphError("line expansion is empty")
    n = le.num_nodes
    v_of, e_of = np.asarray(le.nodes, dtype=np.int64).T
    rows = np.arange(n)
    ones = np.ones(n)
    p_v = sp.csr_array((ones, (rows, v_of)))
    p_e = sp.csr_array((ones, (rows, e_of)))
    # Adding the two drops the explicit zeros of a zero weight. Sorted
    # columns keep the row-sum order of op @ h fixed.
    a_tilde = le.w_e * (p_v @ p_v.T) + le.w_v * (p_e @ p_e.T)
    a_tilde.sort_indices()
    d = np.bincount(v_of)[v_of]
    delta = np.bincount(e_of)[e_of]
    d_inv_sqrt = 1.0 / np.sqrt(le.w_e * d + le.w_v * delta)
    entry_rows = np.repeat(rows, np.diff(a_tilde.indptr))
    a_tilde.data = d_inv_sqrt[entry_rows] * a_tilde.data * d_inv_sqrt[a_tilde.indices]
    return NormalizedOperator(a_tilde, le.w_v, le.w_e, le.w_v + le.w_e)


def clique_adjacency(h: Hypergraph) -> sp.csr_array:
    """Normalized clique-expansion adjacency with zero diagonal.

    A_c(u, v) = w_c(u, v) / sqrt(d_c(u) d_c(v)), where w_c counts shared
    hyperedges and d_c(u) = sum_e h(u,e)(delta(e) - 1). Vertices with
    d_c = 0 get zero rows.
    """
    _check_analysis_size(h)
    H = incidence_matrix(h)
    delta = hyperedge_degrees(h).as_array().astype(np.float64)
    w = sp.csr_array(H @ H.T)
    w.setdiag(0)
    w.eliminate_zeros()
    d_c = H @ (delta - 1.0)
    with np.errstate(divide="ignore"):
        inv = np.where(d_c > 0, 1.0 / np.sqrt(np.maximum(d_c, 1e-300)), 0.0)
    scale = sp.diags_array(inv, format="csr")
    return sp.csr_array(scale @ w @ scale)


def star_adjacency(h: Hypergraph, normalizer: str = "plain") -> sp.csr_array:
    """Star-expansion adjacency A_s(u,v) = sum_e h(u,e)h(v,e)/delta(e)^2,
    divided by sqrt(deg(u)) sqrt(deg(v)).

    ``normalizer`` selects the degree: "plain" uses d(u) = sum_e h(u,e);
    "weighted" uses the 1/delta-weighted degree sum_e h(u,e)/delta(e). The
    diagonal is kept as the formula produces it.
    """
    _check_analysis_size(h)
    if normalizer not in ("plain", "weighted"):
        raise ValueError(f"unknown normalizer {normalizer!r}")
    H = incidence_matrix(h)
    delta = hyperedge_degrees(h).as_array().astype(np.float64)
    core = sp.csr_array(H @ sp.diags_array(1.0 / delta**2, format="csr") @ H.T)
    if normalizer == "plain":
        deg = vertex_degrees(h).as_array().astype(np.float64)
    else:
        deg = H @ (1.0 / delta)
    inv = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    scale = sp.diags_array(inv, format="csr")
    return sp.csr_array(scale @ core @ scale)


def effective_vertex_adjacency(
    h: Hypergraph, w_v: float, w_e: float, form: str = "symmetric"
) -> sp.csr_array:
    """Vertex-level adjacency induced by one LE convolution plus back-projection.

    random-walk form:
        A(u,v) = [sum_e w_v h(u,e)h(v,e) / (delta(e)(w_v delta(e) + w_e d(u)))]
                 / sum_e h(u,e)/delta(e)
    symmetric form replaces the u-only denominator with the geometric mean over
    u and v and normalizes by sqrt of the weighted degrees. The diagonal is
    included as the formulas produce it.
    """
    _check_analysis_size(h)
    if form not in ("symmetric", "random-walk"):
        raise ValueError(f"unknown form {form!r}")
    if w_v <= 0 and w_e <= 0:
        raise HypergraphError("need w_v > 0 or w_e > 0")
    report = validate(h)
    if not report.ok:
        raise HypergraphError(f"empty hyperedges {report.empty_hyperedges}")
    d = vertex_degrees(h).as_array().astype(np.float64)
    if (d == 0).any():
        raise HypergraphError(
            f"vertices with degree 0: {np.flatnonzero(d == 0).tolist()}"
        )
    H = incidence_matrix(h)
    delta = hyperedge_degrees(h).as_array().astype(np.float64)
    dw = H @ (1.0 / delta)  # weighted degree sum_e h(u,e)/delta(e)

    coo = H.tocoo()
    if form == "random-walk":
        # C(u,e) = w_v h(u,e) / (delta(e) (w_v delta(e) + w_e d(u)))
        vals = w_v / (delta[coo.col] * (w_v * delta[coo.col] + w_e * d[coo.row]))
        C = sp.csr_array((vals, (coo.row, coo.col)), shape=H.shape)
        out = sp.diags_array(1.0 / dw, format="csr") @ C @ H.T
        return sp.csr_array(out)
    # B(u,e) = h(u,e) sqrt(w_v / delta(e)) / sqrt(w_v delta(e) + w_e d(u)),
    # so (B B^T)(u,v) is the symmetric-form numerator.
    vals = np.sqrt(w_v / delta[coo.col]) / np.sqrt(
        w_v * delta[coo.col] + w_e * d[coo.row]
    )
    B = sp.csr_array((vals, (coo.row, coo.col)), shape=H.shape)
    scale = sp.diags_array(1.0 / np.sqrt(dw), format="csr")
    return sp.csr_array(scale @ (B @ B.T) @ scale)


def star_expansion_graph(h: Hypergraph) -> tuple[int, list[tuple[int, int]]]:
    """Bipartite star expansion: nodes 0..|V|-1 are vertices, |V|..|V|+|E|-1
    are hyperedges; one edge per incidence pair. Returns (num_nodes, edges)."""
    nv = h.num_vertices
    edges = [(v, nv + e) for v, e in h.pairs()]
    return nv + h.num_hyperedges, edges


def line_graph(num_nodes: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Line graph on the given edge list: one node per input edge, adjacency
    iff the edges share an endpoint. Returns edges over edge indices."""
    out = []
    for i in range(len(edges)):
        a, b = edges[i]
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if a in (c, d) or b in (c, d):
                out.append((i, j))
    return out
