"""Clique, star, and line expansions; projection matrices; normalized operator.

Line nodes are the incident (vertex, hyperedge) pairs, ordered by
(v ascending, e ascending), and they are all a LineExpansion stores. Two
line nodes are adjacent when they share the vertex (kind "vertex-similar",
carrying weight w_e) or the hyperedge (kind "hyperedge-similar", carrying
weight w_v). :func:`pair_groups` groups the line nodes by vertex and by
hyperedge in one pass; the line edges are the pairs within each group, built
from it only when asked for (dumps, reconstruction, reference checks).

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
* Training applies the operator in that factored form: one pass through
  P_v^T and P_e^T and back costs O(|V_l|) per column, where the explicit
  |V_l| x |V_l| matrix has |V_l| + 2|E_l| entries. The matrix is built on
  first use only, as the reference for tests and checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from .hypergraph import (
    Hypergraph,
    HypergraphError,
    hyperedge_degrees,
    incidence_matrix,
    vertex_degrees,
)

VERTEX_SIMILAR = "vertex-similar"
HYPEREDGE_SIMILAR = "hyperedge-similar"


def pair_groups(
    nodes: tuple[tuple[int, int], ...],
) -> tuple[list[list[int]], list[list[int]]]:
    """Line-node ids grouped by vertex and by hyperedge.

    ``by_vertex[v]`` lists the ids of the nodes (v, *) and ``by_edge[e]``
    those of the nodes (*, e), each ascending. A vertex or hyperedge below
    the largest one listed that has no node gets an empty group.
    """
    by_vertex = [[] for _ in range(1 + max((v for v, _ in nodes), default=-1))]
    by_edge = [[] for _ in range(1 + max((e for _, e in nodes), default=-1))]
    for i, (v, e) in enumerate(nodes):
        by_vertex[v].append(i)
        by_edge[e].append(i)
    return by_vertex, by_edge


@dataclass(frozen=True)
class LineExpansion:
    """Line expansion of a hypergraph, stored as its incidence pairs.

    ``nodes[i]`` is the (vertex, hyperedge) pair of line node i. ``edges``
    are built from :func:`pair_groups` on first use: undirected
    (i, j, kind) triples with i < j, the vertex-similar pairs of each vertex
    group in vertex order first, then the hyperedge-similar pairs.
    """

    nodes: tuple[tuple[int, int], ...]
    w_v: float
    w_e: float

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @cached_property
    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """v_of and e_of: the vertex and the hyperedge of each line node,
        built on first use and read-only."""
        pairs = np.asarray(self.nodes, dtype=np.int64).reshape(-1, 2)
        pairs.flags.writeable = False
        return pairs[:, 0], pairs[:, 1]

    @cached_property
    def edges(self) -> tuple[tuple[int, int, str], ...]:
        by_vertex, by_edge = pair_groups(self.nodes)
        out: list[tuple[int, int, str]] = []
        for groups, kind in ((by_vertex, VERTEX_SIMILAR), (by_edge, HYPEREDGE_SIMILAR)):
            for ids in groups:
                out += [(i, j, kind) for i, j in combinations(ids, 2)]
        return tuple(out)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> sp.csr_array:
        """Weighted symmetric adjacency A_l (w_e on vertex-similar edges,
        w_v on hyperedge-similar edges), built from the edge list."""
        n = self.num_nodes
        rows, cols, data = [], [], []
        for i, j, kind in self.edges:
            w = self.w_e if kind == VERTEX_SIMILAR else self.w_v
            rows += [i, j]
            cols += [j, i]
            data += [w, w]
        return sp.csr_array(
            (np.asarray(data, dtype=np.float64), (rows, cols)), shape=(n, n)
        )


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
    """Renormalized convolution operator on line nodes, as an explicit
    matrix (the sampled operator, which need not be symmetric)."""

    matrix: sp.csr_array
    w_v: float
    w_e: float
    self_loop_weight: float


@dataclass(frozen=True, eq=False)
class FactoredOperator:
    """The renormalized operator D^{-1/2} (w_e P_v P_v^T + w_v P_e P_e^T)
    D^{-1/2}, kept as its factors.

    ``op @ h`` applies it to a |V_l| x k array ``h`` without forming the
    |V_l| x |V_l| matrix; ``op.T`` is ``op``, as the operator is symmetric.
    ``matrix`` is the explicit CSR, built on first use and kept.
    """

    p_v: sp.csr_array        # |V_l| x |V| binary
    p_e: sp.csr_array        # |V_l| x |E| binary
    d_inv_sqrt: np.ndarray   # D^{-1/2} per line node
    w_v: float
    w_e: float
    self_loop_weight: float

    @property
    def T(self) -> "FactoredOperator":
        return self

    def __matmul__(self, h: np.ndarray) -> np.ndarray:
        scale = self.d_inv_sqrt[:, None]
        z = scale * h
        # .T of a CSR array is its CSC view: P^T z sums each group's rows.
        out = self.w_e * (self.p_v @ (self.p_v.T @ z))
        out += self.w_v * (self.p_e @ (self.p_e.T @ z))
        out *= scale
        return out

    @cached_property
    def matrix(self) -> sp.csr_array:
        # Adding the two drops the explicit zeros of a zero weight. Sorted
        # columns keep the row-sum order of matrix @ h fixed.
        a_tilde = self.w_e * (self.p_v @ self.p_v.T) + self.w_v * (self.p_e @ self.p_e.T)
        a_tilde.sort_indices()
        return _scale_symmetric(a_tilde, self.d_inv_sqrt)


def line_expand(h: Hypergraph, w_v: float = 1.0, w_e: float = 1.0) -> LineExpansion:
    """Build the line expansion with parameterized similarity weights."""
    if w_v < 0 or w_e < 0:
        raise HypergraphError("weights must be nonnegative")
    if w_v == 0 and w_e == 0:
        raise HypergraphError("w_v and w_e must not both be zero")
    return LineExpansion(tuple(h.pairs()), float(w_v), float(w_e))


def size_formulas(h: Hypergraph) -> tuple[int, int]:
    """Closed-form (|V_l|, |E_l|) from the degree sequences."""
    d = vertex_degrees(h).values
    delta = hyperedge_degrees(h).values
    n_nodes = (sum(d) + sum(delta)) // 2
    n_edges = sum(x * (x - 1) for x in d) // 2 + sum(x * (x - 1) for x in delta) // 2
    return n_nodes, n_edges


def _indicator(of: np.ndarray, width: int) -> sp.csr_array:
    """Binary len(of) x width matrix with a 1 at (i, of[i]): P_v from v_of,
    P_e from e_of."""
    n = len(of)
    return sp.csr_array((np.ones(n), (np.arange(n), of)), shape=(n, width))


def projections(h: Hypergraph) -> ProjectionSet:
    """Build P_v, P_e, their back-projections, and H_r.

    Back-projection rows are convex: P_v' weights each (v, e) by 1/delta(e)
    normalized over the hyperedges incident to v; P_e' mirrors with 1/d(v).
    """
    delta = hyperedge_degrees(h).as_array()
    if not delta.all():
        raise HypergraphError(f"empty hyperedges {tuple(np.flatnonzero(delta == 0).tolist())}")
    nv, ne = h.num_vertices, h.num_hyperedges
    d = vertex_degrees(h).as_array()
    n_l = int(d.sum())
    # Pairs in (v, e) order: v repeats d(v) times, and the incidence
    # matrix's row v lists its e ascending.
    v_of = np.repeat(np.arange(nv, dtype=np.int64), d)
    e_of = incidence_matrix(h).indices
    p_v = _indicator(v_of, nv)
    p_e = _indicator(e_of, ne)
    h_r = sp.csr_array(sp.hstack([p_v, p_e], format="csr"))

    # bincount adds in pair order, i.e. e ascending per vertex and v
    # ascending per hyperedge.
    rows = np.arange(n_l)
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


def renormalized_operator(le: LineExpansion) -> FactoredOperator:
    """D^{-1/2} (sI + A_l) D^{-1/2} with self-loop weight s = w_v + w_e.

    Using s = w_v + w_e (rather than literal 2) keeps the operator invariant
    under joint scaling of (w_v, w_e); it equals 2 at w_v = w_e = 1. Built
    from the line nodes alone as w_e P_v P_v^T + w_v P_e P_e^T with degree
    D(v, e) = w_e d(v) + w_v delta(e) (see the module docstring), and
    returned in that factored form: training applies it without the
    explicit matrix, which ``.matrix`` builds on first use.
    """
    if le.num_nodes == 0:
        raise HypergraphError("line expansion is empty")
    v_of, e_of = le.pair_arrays
    d = np.bincount(v_of)[v_of]
    delta = np.bincount(e_of)[e_of]
    return FactoredOperator(
        _indicator(v_of, v_of.max() + 1),
        _indicator(e_of, e_of.max() + 1),
        1.0 / np.sqrt(le.w_e * d + le.w_v * delta),
        le.w_v,
        le.w_e,
        le.w_v + le.w_e,
    )


def _scale_symmetric(a: sp.csr_array, d: np.ndarray) -> sp.csr_array:
    """diag(d) a diag(d), computed on the stored entries as
    d[row] * a * d[col]. ``a`` is not changed; the result shares its index
    arrays."""
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    return sp.csr_array((d[rows] * a.data * d[a.indices], a.indices, a.indptr), shape=a.shape)


def _symmetric_normalize(w: sp.csr_array, deg: np.ndarray) -> sp.csr_array:
    """deg^{-1/2} w deg^{-1/2}, with zero rows and columns where deg = 0."""
    inv = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    return _scale_symmetric(w, inv)


def clique_adjacency(h: Hypergraph) -> sp.csr_array:
    """Normalized clique-expansion adjacency with zero diagonal.

    A_c(u, v) = w_c(u, v) / sqrt(d_c(u) d_c(v)), where w_c counts shared
    hyperedges and d_c(u) = sum_e h(u,e)(delta(e) - 1). Vertices with
    d_c = 0 get zero rows.
    """
    H = incidence_matrix(h)
    delta = hyperedge_degrees(h).as_array().astype(np.float64)
    w = sp.csr_array(H @ H.T)
    w.setdiag(0)
    w.eliminate_zeros()
    return _symmetric_normalize(w, H @ (delta - 1.0))


def star_adjacency(h: Hypergraph, normalizer: str = "plain") -> sp.csr_array:
    """Star-expansion adjacency A_s(u,v) = sum_e h(u,e)h(v,e)/delta(e)^2,
    divided by sqrt(deg(u)) sqrt(deg(v)).

    ``normalizer`` selects the degree: "plain" uses d(u) = sum_e h(u,e);
    "weighted" uses the 1/delta-weighted degree sum_e h(u,e)/delta(e). The
    diagonal is kept as the formula produces it.
    """
    if normalizer not in ("plain", "weighted"):
        raise ValueError(f"unknown normalizer {normalizer!r}")
    H = incidence_matrix(h)
    delta = hyperedge_degrees(h).as_array().astype(np.float64)
    core = sp.csr_array(H @ sp.diags_array(1.0 / delta**2, format="csr") @ H.T)
    if normalizer == "plain":
        deg = vertex_degrees(h).as_array().astype(np.float64)
    else:
        deg = H @ (1.0 / delta)
    return _symmetric_normalize(core, deg)


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
    if form not in ("symmetric", "random-walk"):
        raise ValueError(f"unknown form {form!r}")
    if w_v <= 0 and w_e <= 0:
        raise HypergraphError("need w_v > 0 or w_e > 0")
    delta = hyperedge_degrees(h).as_array().astype(np.float64)
    if not delta.all():
        raise HypergraphError(f"empty hyperedges {tuple(np.flatnonzero(delta == 0).tolist())}")
    d = vertex_degrees(h).as_array().astype(np.float64)
    if (d == 0).any():
        raise HypergraphError(
            f"vertices with degree 0: {np.flatnonzero(d == 0).tolist()}"
        )
    H = incidence_matrix(h)
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
    return _symmetric_normalize(B @ B.T, dw)


def star_expansion_graph(h: Hypergraph) -> tuple[int, list[tuple[int, int]]]:
    """Bipartite star expansion: nodes 0..|V|-1 are vertices, |V|..|V|+|E|-1
    are hyperedges; one edge per incidence pair. Returns (num_nodes, edges)."""
    nv = h.num_vertices
    edges = [(v, nv + e) for v, e in h.pairs()]
    return nv + h.num_hyperedges, edges


def line_graph(num_nodes: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Line graph on the given edge list: one node per input edge, adjacency
    iff the edges share an endpoint. Returns edges (i, j) over edge indices,
    i < j, sorted."""
    at_node: list[list[int]] = [[] for _ in range(num_nodes)]
    for k, (a, b) in enumerate(edges):
        at_node[a].append(k)
        if b != a:
            at_node[b].append(k)
    # Two parallel edges share both endpoints, so their pair comes up twice.
    return sorted({pair for ids in at_node for pair in combinations(ids, 2)})
