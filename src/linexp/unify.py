"""Numerical checks that the degraded line expansion subsumes the classic
expansions: the w_e = 0 symmetric form equals the weighted-degree star
adjacency, and on 2-regular hypergraphs it is half the simple-graph GCN
adjacency. ``modified_clique_adjacency`` builds the clique adjacency with
1/(delta(e)-1)^2 weights; no check here relates it to the line expansion.

Every adjacency here is sparse and so is every comparison: the maximum
difference is read off the stored entries of ``a - b``, so the checks run
at any size."""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .expansions import (
    _symmetric_normalize,
    effective_vertex_adjacency,
    star_adjacency,
)
from .hypergraph import (
    Hypergraph,
    HypergraphError,
    hyperedge_degrees,
    incidence_matrix,
)
from .reconstruction import UnlabeledGraph

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class EquivalenceReport:
    lhs: str
    rhs: str
    max_abs_diff: float
    tolerance: float
    num_vertices: int
    num_hyperedges: int
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return self.max_abs_diff <= self.tolerance

    def to_json(self) -> str:
        return json.dumps(
            {
                "lhs": self.lhs,
                "rhs": self.rhs,
                "max_abs_diff": self.max_abs_diff,
                "tolerance": self.tolerance,
                "pass": self.passed,
                "num_vertices": self.num_vertices,
                "num_hyperedges": self.num_hyperedges,
                "seed": self.seed,
            }
        )

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.lhs} vs {self.rhs}: max|diff| = "
            f"{self.max_abs_diff:.3e} (tol {self.tolerance:g}, "
            f"|V|={self.num_vertices}, |E|={self.num_hyperedges})"
        )


def degraded_line_adjacency(h: Hypergraph) -> sp.csr_array:
    """Symmetric effective adjacency with w_e = 0: the 0-chain restriction
    A(u,v) = sum_e h(u,e)h(v,e)/delta(e)^2 over the weighted-degree norms."""
    return effective_vertex_adjacency(h, w_v=1.0, w_e=0.0, form="symmetric")


def modified_clique_adjacency(h: Hypergraph) -> sp.csr_array:
    """Clique adjacency with weights 1/(delta(e)-1)^2 and the induced degree
    d_c(u) = sum_e h(u,e)/(delta(e)-1); diagonal zero."""
    delta = hyperedge_degrees(h).as_array().astype(np.float64)
    singletons = np.flatnonzero(delta < 2)
    if len(singletons):
        raise HypergraphError(
            f"hyperedges with delta(e) = 1 not allowed: {singletons.tolist()}"
        )
    H = incidence_matrix(h)
    w = sp.csr_array(H @ sp.diags_array(1.0 / (delta - 1.0) ** 2, format="csr") @ H.T)
    w.setdiag(0)
    w.eliminate_zeros()
    return _symmetric_normalize(w, H @ (1.0 / (delta - 1.0)))


def simple_graph_adjacency(g: UnlabeledGraph) -> sp.csr_array:
    """GCN adjacency A(u,v) = 1/sqrt(d(u)d(v)) on each edge, zero diagonal."""
    n = g.num_nodes
    deg = np.zeros(n)
    for i, j in g.edges:
        deg[i] += 1
        deg[j] += 1
    rows, cols, data = [], [], []
    for i, j in g.edges:
        val = 1.0 / np.sqrt(deg[i] * deg[j])
        rows += [i, j]
        cols += [j, i]
        data += [val, val]
    return sp.csr_array((np.asarray(data), (rows, cols)), shape=(n, n))


def graph_as_hypergraph(g: UnlabeledGraph) -> Hypergraph:
    """2-regular hypergraph whose hyperedges are the graph's edges."""
    return Hypergraph(g.num_nodes, tuple((i, j) for i, j in g.edges))


def _max_abs_diff(
    a: sp.csr_array, b: sp.csr_array, skip_diagonal: bool = False
) -> float:
    """max |a - b|, read off the stored entries of the sparse difference
    (every other entry of it is 0)."""
    diff = sp.csr_array(a - b)
    data = diff.data
    if skip_diagonal:
        rows = np.repeat(np.arange(diff.shape[0]), np.diff(diff.indptr))
        data = data[rows != diff.indices]
    return float(np.abs(data).max()) if data.size else 0.0


def check_star_equivalence(
    h: Hypergraph, seed: int | None = None
) -> EquivalenceReport:
    """Degraded LE vs the weighted-degree star adjacency, elementwise."""
    lhs = degraded_line_adjacency(h)
    rhs = star_adjacency(h, normalizer="weighted")
    return EquivalenceReport(
        "degraded-line-expansion",
        "star-adjacency(weighted-degree)",
        _max_abs_diff(lhs, rhs),
        DEFAULT_TOL,
        h.num_vertices,
        h.num_hyperedges,
        seed,
    )


def check_simple_graph_factor(
    g: UnlabeledGraph, seed: int | None = None
) -> EquivalenceReport:
    """Degraded LE of the 2-regular hypergraph vs half the GCN adjacency.

    Compared off-diagonal: the GCN adjacency is defined with a zero
    diagonal while the degraded form produces a 1/2 self-loop.
    """
    if not g.edges:
        raise HypergraphError("graph has no edges")
    h = graph_as_hypergraph(g)
    lhs = degraded_line_adjacency(h)
    rhs = sp.csr_array(simple_graph_adjacency(g) * 0.5)
    return EquivalenceReport(
        "degraded-line-expansion(2-regular)",
        "gcn-adjacency/2",
        _max_abs_diff(lhs, rhs, skip_diagonal=True),
        DEFAULT_TOL,
        g.num_nodes,
        len(g.edges),
        seed,
    )
