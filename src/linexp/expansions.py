"""Clique, star, and line expansions; projection matrices; normalized operator.

Line nodes are the incident (vertex, hyperedge) pairs, ordered by
(v ascending, e ascending). A LineExpansion holds the hypergraph and the
weights; everything else about it is a view of the hypergraph. Two line
nodes are adjacent when they share the vertex (kind "vertex-similar",
carrying weight w_e) or the hyperedge (kind "hyperedge-similar", carrying
weight w_v). The line edges are the pairs within each of ``groups``: the
dump writer and :func:`~linexp.reconstruction.strip_labels` read them off
``groups``, and only the reference checks build them as ``edges`` triples.

Everything below the line expansion itself is sparse algebra on the pair
arrays v_of, e_of (the row and the column of each entry of H):

* P_v and P_e are the binary |V_l| x |V| and |V_l| x |E| indicators of
  v_of and e_of; H_r = [P_v, P_e].
* Back-projections, one formula each way: P_v'(v, (v, e)) = w(v, e) /
  sum_e' w(v, e') with w(v, e) = 1/delta(e); P_e' mirrors it with 1/d(v).
* P_v P_v^T and P_e P_e^T are 1 on the diagonal and on same-vertex,
  respectively same-hyperedge, pairs. So with self-loop weight
  s = w_v + w_e, sI + A_l = w_e P_v P_v^T + w_v P_e P_e^T, whose row sums
  are D(v, e) = w_e d(v) + w_v delta(e), and the renormalized operator is
  D^{-1/2} (w_e P_v P_v^T + w_v P_e P_e^T) D^{-1/2}.
* Training applies the operator in that factored form: one pass through
  P_v^T and P_e^T and back costs O(|V_l|) per column, where the explicit
  |V_l| x |V_l| matrix has |V_l| + 2|E_l| entries. The matrix is built on
  first use only, as the reference for tests and checks.
* M = P_v' op P_v, a convolution read back onto the vertices; at w_e = 0 it
  is D_w^{-1} H diag(1/delta^2) H^T, D_w = H (1/delta): the star expansion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

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


@dataclass(frozen=True)
class LineExpansion:
    """Line expansion of ``hypergraph`` with similarity weights ``w_v`` and
    ``w_e``, checked when built. The rest are views of ``hypergraph``, built
    on first use: ``nodes[i]`` is the (vertex, hyperedge) pair of line node
    i, and ``edges`` are undirected (i, j, kind) triples with i < j from
    ``groups``, the vertex-similar pairs of each vertex group in vertex
    order first, then the hyperedge-similar pairs.
    """

    hypergraph: Hypergraph
    w_v: float
    w_e: float

    def __post_init__(self):
        _check_weights(self.w_v, self.w_e)

    @property
    def num_nodes(self) -> int:
        return self.hypergraph.num_pairs

    @cached_property
    def nodes(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.hypergraph.pairs())

    @cached_property
    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """v_of and e_of of :func:`_pair_arrays`, built on first use."""
        return _pair_arrays(self.hypergraph)

    @cached_property
    def groups(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """The line-node ids by vertex and by hyperedge: ``groups[0][v]`` is
        the consecutive range of the nodes (v, *), and one pass files each
        node under its hyperedge in ``groups[1]``: |V| and |E| groups, empty
        for an isolated vertex or an empty hyperedge. Tuples, as the garbage
        collector untracks a tuple of ints, never a list."""
        h = self.hypergraph
        by_vertex: list[tuple[int, ...]] = []
        by_edge: list[list[int]] = [[] for _ in range(h.num_hyperedges)]
        i = 0
        for edges in map(h.vertex_edges, range(h.num_vertices)):
            by_vertex.append(tuple(range(i, i + len(edges))))
            for e in edges:
                by_edge[e].append(i)
                i += 1
        return tuple(by_vertex), tuple(map(tuple, by_edge))

    @cached_property
    def edges(self) -> tuple[tuple[int, int, str], ...]:
        out: list[tuple[int, int, str]] = []
        for groups, kind in zip(self.groups, (VERTEX_SIMILAR, HYPEREDGE_SIMILAR)):
            for ids in groups:
                out += [(i, j, kind) for i, j in combinations(ids, 2)]
        return tuple(out)

    @property
    def num_edges(self) -> int:
        """The number of line edges, the pairs within each group."""
        return sum(len(ids) * (len(ids) - 1) for ids in chain.from_iterable(self.groups)) // 2

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

    @property
    def T(self) -> "FactoredOperator":
        return self

    def __matmul__(self, h: np.ndarray) -> np.ndarray:
        scale = self.d_inv_sqrt[:, None]
        z = scale * h
        # .T of a CSR array is its CSC view: P^T z sums each group's rows.
        out = self.p_v @ (self.p_v.T @ z)
        out *= self.w_e
        tail = self.p_e @ (self.p_e.T @ z)
        tail *= self.w_v
        out += tail
        out *= scale
        return out

    @cached_property
    def matrix(self) -> sp.csr_array:
        # Adding the two drops the explicit zeros of a zero weight. Sorted
        # columns keep the row-sum order of matrix @ h fixed.
        a_tilde = self.w_e * (self.p_v @ self.p_v.T) + self.w_v * (self.p_e @ self.p_e.T)
        a_tilde.sort_indices()
        return _scale(a_tilde, self.d_inv_sqrt, self.d_inv_sqrt)


def line_expand(h: Hypergraph, w_v: float = 1.0, w_e: float = 1.0) -> LineExpansion:
    """The line expansion of ``h`` with parameterized similarity weights."""
    return LineExpansion(h, float(w_v), float(w_e))


def _check_weights(w_v: float, w_e: float) -> None:
    """The similarity weights are finite, nonnegative and not both zero."""
    if not (math.isfinite(w_v) and math.isfinite(w_e)):
        raise HypergraphError("weights must be finite")
    if w_v < 0 or w_e < 0:
        raise HypergraphError("weights must be nonnegative")
    if w_v == 0 and w_e == 0:
        raise HypergraphError("w_v and w_e must not both be zero")


def size_formulas(h: Hypergraph) -> tuple[int, int]:
    """Closed-form (|V_l|, |E_l|) from the degree sequences."""
    d = vertex_degrees(h).values
    delta = hyperedge_degrees(h).values
    n_nodes = (sum(d) + sum(delta)) // 2
    n_edges = sum(x * (x - 1) for x in d) // 2 + sum(x * (x - 1) for x in delta) // 2
    return n_nodes, n_edges


def _pair_arrays(h: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    """v_of and e_of, the row and the column of each entry of the incidence
    matrix in (v, e) order, as read-only int64 arrays."""
    incidence = incidence_matrix(h)
    v_of = np.repeat(np.arange(h.num_vertices, dtype=np.int64), np.diff(incidence.indptr))
    e_of = incidence.indices
    v_of.flags.writeable = e_of.flags.writeable = False
    return v_of, e_of


def _indicator(of: np.ndarray, width: int) -> sp.csr_array:
    """Binary len(of) x width matrix with a 1 at (i, of[i]): P_v from v_of,
    P_e from e_of. Built as CSR directly, one entry per row."""
    n = len(of)
    return sp.csr_array((np.ones(n), of, np.arange(n + 1)), shape=(n, width))


def _back_projection(rows_of: np.ndarray, cols_of: np.ndarray, n_rows: int) -> sp.csr_array:
    """The n_rows x |V_l| back-projection P_v' from ``(v_of, e_of)``, or P_e'
    from ``(e_of, v_of)``: row r weights pair (r, c) by 1/deg(c), normalized
    over the row. Degrees are read at pairs only, so an isolated vertex or an
    empty hyperedge gets an empty row. bincount adds in pair order."""
    w = 1.0 / np.bincount(cols_of)[cols_of]
    data = w / np.bincount(rows_of, weights=w, minlength=n_rows)[rows_of]
    return sp.csr_array((data, (rows_of, np.arange(len(rows_of)))), shape=(n_rows, len(rows_of)))


def projections(h: Hypergraph) -> ProjectionSet:
    """Build P_v, P_e, their back-projections, and H_r.

    Back-projection rows are convex: P_v' weights each (v, e) by 1/delta(e)
    normalized over the hyperedges incident to v; P_e' mirrors with 1/d(v).
    An isolated vertex or an empty hyperedge gets an empty row.
    """
    nv, ne = h.num_vertices, h.num_hyperedges
    v_of, e_of = _pair_arrays(h)
    n_l = len(v_of)
    # H_r = [P_v, P_e]: row (v, e) holds columns v and |V| + e, ascending.
    h_r_columns = np.column_stack([v_of, nv + e_of]).ravel()
    h_r = sp.csr_array(
        (np.ones(2 * n_l), h_r_columns, np.arange(0, 2 * n_l + 1, 2)), shape=(n_l, nv + ne)
    )
    back = (_back_projection(v_of, e_of, nv), _back_projection(e_of, v_of, ne))
    return ProjectionSet(_indicator(v_of, nv), _indicator(e_of, ne), *back, h_r)


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
    from the pair arrays as w_e P_v P_v^T + w_v P_e P_e^T, with P_v and P_e
    |V| and |E| columns wide, and degree D(v, e) = w_e d(v) + w_v delta(e)
    (see the module docstring), and returned in that factored form:
    training applies it without the explicit matrix, which ``.matrix``
    builds on first use.
    """
    if le.num_nodes == 0:
        raise HypergraphError("line expansion is empty")
    v_of, e_of = le.pair_arrays
    d = np.bincount(v_of)[v_of]
    delta = np.bincount(e_of)[e_of]
    return FactoredOperator(
        _indicator(v_of, le.hypergraph.num_vertices),
        _indicator(e_of, le.hypergraph.num_hyperedges),
        1.0 / np.sqrt(le.w_e * d + le.w_v * delta),
        le.w_v,
        le.w_e,
    )


def vertex_propagation(p: ProjectionSet, op: FactoredOperator) -> sp.csr_array:
    """M = P_v' op P_v, one convolution of a vertex signal and the
    back-projection, as a sparse |V| x |V| matrix. Built from the factors,
    never from ``op.matrix``: with S = diag(op.d_inv_sqrt),
    M = w_e (P_v' S P_v)(P_v^T S P_v) + w_v (P_v' S P_e)(P_e^T S P_v), which is
    (P_v' S H_r) W (H_r^T S P_v) with H_r = [P_v, P_e] and W the weight w_e of
    its |V| columns and w_v of its |E| columns: three sparse products.
    """
    w = np.repeat([op.w_e, op.w_v], [op.p_v.shape[1], op.p_e.shape[1]])
    left = p.p_v_back @ _scale(p.h_r, op.d_inv_sqrt, w)
    return left @ (_scale(p.h_r, op.d_inv_sqrt, np.ones(len(w))).T @ p.p_v)


def _scale(a: sp.csr_array, left: np.ndarray, right: np.ndarray) -> sp.csr_array:
    """diag(left) a diag(right), computed on the stored entries as
    left[row] * a * right[col]. ``a`` is not changed; the result shares its
    index arrays."""
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    return sp.csr_array((left[rows] * a.data * right[a.indices], a.indices, a.indptr), shape=a.shape)


def _symmetric_normalize(w: sp.csr_array) -> sp.csr_array:
    """D^{-1/2} w D^{-1/2} with D the row sums of w, the GCN renormalization
    (Kipf & Welling, 2017); rows and columns that sum to zero stay zero."""
    deg = w.sum(axis=1)
    inv = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    return _scale(w, inv, inv)


def clique_adjacency(h: Hypergraph) -> sp.csr_array:
    """Normalized clique-expansion adjacency with zero diagonal.

    A_c(u, v) = w_c(u, v) / sqrt(d_c(u) d_c(v)), where w_c counts shared
    hyperedges and d_c is its row sum, sum_e h(u,e)(delta(e) - 1). Vertices
    with d_c = 0 get zero rows.
    """
    H = incidence_matrix(h)
    w = sp.csr_array(H @ H.T)
    w.setdiag(0)
    w.eliminate_zeros()
    return _symmetric_normalize(w)


def star_adjacency(h: Hypergraph) -> sp.csr_array:
    """Star-expansion adjacency A_s(u,v) = sum_e h(u,e)h(v,e)/delta(e)^2,
    divided by sqrt(dw(u) dw(v)) with dw its row sum, the weighted degree
    sum_e h(u,e)/delta(e). The diagonal is kept as the formula produces it.
    An empty hyperedge is an error, as 1/delta would divide by its zero.
    """
    H = incidence_matrix(h)
    delta = hyperedge_degrees(h).as_array().astype(np.float64)
    if not delta.all():
        raise HypergraphError(f"empty hyperedges {tuple(np.flatnonzero(delta == 0).tolist())}")
    core = sp.csr_array(H @ sp.diags_array(1.0 / delta**2, format="csr") @ H.T)
    return _symmetric_normalize(core)


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
