"""Numerical checks that the degraded line expansion subsumes the classic
expansions: the w_e = 0 symmetric form, read off the operator training
applies, equals the weighted-degree star adjacency, and on 2-regular
hypergraphs it is half the simple-graph GCN adjacency.

Every adjacency here is sparse and so is every comparison: the maximum
difference is read off the stored entries of ``a - b``, so the checks run
at any size. Each check returns a :class:`CheckResult`, the verdict record of
every check :mod:`linexp.verify` runs."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .expansions import (
    _back_projection,
    _scale,
    _stacked_incidence,
    _symmetric_normalize,
    line_expand,
    renormalized_operator,
    star_adjacency,
    vertex_propagation,
)
from .hypergraph import Hypergraph, HypergraphError
from .reconstruction import UnlabeledGraph

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    """A check's verdict. A float check sets ``max_abs_diff``, the largest
    elementwise difference it found. Over a corpus, ``instances`` counts the
    instances checked (up to and including the first failure) and
    ``seconds`` is the time they took; neither takes part in comparisons, so
    two runs of the same suite compare equal."""

    name: str
    passed: bool
    detail: str = ""
    instances: int = field(default=0, compare=False)
    seconds: float = field(default=0.0, compare=False)
    max_abs_diff: float | None = None

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"[{status}] {self.name}"
        return f"{line}: {self.detail}" if self.detail else line


def _compared(name: str, lhs: str, rhs: str, diff: float, nv: int, ne: int) -> CheckResult:
    """The verdict on ``lhs`` vs ``rhs``: they agree when ``diff``, their
    largest difference, is at most DEFAULT_TOL."""
    return CheckResult(
        name,
        diff <= DEFAULT_TOL,
        f"{lhs} vs {rhs}: max|diff| = {diff:.3e} (tol {DEFAULT_TOL:g}, |V|={nv}, |E|={ne})",
        max_abs_diff=diff,
    )


def degraded_line_adjacency(h: Hypergraph) -> sp.csr_array:
    """The degraded (w_e = 0) line expansion as a symmetric vertex adjacency,
    read off the operator training applies: D_w^{1/2} M D_w^{-1/2} with M =
    P_v' op P_v (:func:`vertex_propagation`) at (w_v, w_e) = (1, 0) and D_w =
    H (1/delta), so M = D_w^{-1} H diag(1/delta^2) H^T. A vertex of degree 0 is
    an error; with no vertex there is no operator, and the result is empty.
    Of the projections only P_v' and H_r are built, from the line expansion's
    pair arrays; P_v is the operator's."""
    nv, ne = h.num_vertices, h.num_hyperedges
    le = line_expand(h, w_v=1.0, w_e=0.0)
    v_of, e_of = le.pair_arrays
    dw = np.bincount(v_of, weights=1.0 / np.bincount(e_of)[e_of], minlength=nv)
    if not dw.all():
        raise HypergraphError(f"vertices with degree 0: {np.flatnonzero(dw == 0).tolist()}")
    if not le.num_nodes:
        return sp.csr_array((0, 0))
    m = vertex_propagation(
        _back_projection(v_of, e_of, nv),
        _stacked_incidence(v_of, e_of, nv, ne),
        renormalized_operator(le),
    )
    root = np.sqrt(dw)
    return _scale(m, root, 1.0 / root)


def simple_graph_adjacency(g: UnlabeledGraph) -> sp.csr_array:
    """GCN adjacency A(u,v) = 1/sqrt(d(u)d(v)) on each edge, zero diagonal."""
    ij = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2).T
    n = g.num_nodes
    a = sp.csr_array((np.ones(2 * ij.shape[1]), np.hstack([ij, ij[::-1]])), shape=(n, n))
    return _symmetric_normalize(a)


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


def check_star_equivalence(h: Hypergraph) -> CheckResult:
    """Degraded LE vs the weighted-degree star adjacency, elementwise. The
    star adjacency is built first, as it rejects an empty hyperedge."""
    rhs = star_adjacency(h)
    lhs = degraded_line_adjacency(h)
    return _compared(
        "star-equivalence",
        "degraded-line-expansion",
        "star-adjacency(weighted-degree)",
        _max_abs_diff(lhs, rhs),
        h.num_vertices,
        h.num_hyperedges,
    )


def check_simple_graph_factor(g: UnlabeledGraph) -> CheckResult:
    """Degraded LE of the 2-regular hypergraph vs half the GCN adjacency.

    Compared off-diagonal: the GCN adjacency is defined with a zero
    diagonal while the degraded form produces a 1/2 self-loop.
    """
    if not g.edges:
        raise HypergraphError("graph has no edges")
    h = graph_as_hypergraph(g)
    lhs = degraded_line_adjacency(h)
    rhs = sp.csr_array(simple_graph_adjacency(g) * 0.5)
    return _compared(
        "simple-graph-factor",
        "degraded-line-expansion(2-regular)",
        "gcn-adjacency/2",
        _max_abs_diff(lhs, rhs, skip_diagonal=True),
        g.num_nodes,
        len(g.edges),
    )
