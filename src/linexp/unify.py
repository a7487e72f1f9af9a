"""Numerical checks that the degraded line expansion subsumes the classic
expansions: the w_e = 0 symmetric form equals the weighted-degree star
adjacency, and on 2-regular hypergraphs it is half the simple-graph GCN
adjacency. Every adjacency is normalized by its own row sums.

Every adjacency here is sparse and so is every comparison: the maximum
difference is read off the stored entries of ``a - b``, so the checks run
at any size. Each check returns a :class:`CheckResult`, the verdict record of
every check :mod:`linexp.verify` runs."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .expansions import (
    _hyperedge_sizes,
    _scale_symmetric,
    _symmetric_normalize,
    star_adjacency,
)
from .hypergraph import Hypergraph, HypergraphError, incidence_matrix
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
    """The degraded (w_e = 0) line expansion as a symmetric vertex adjacency:
    D_w^{-1/2} B B^T D_w^{-1/2} with B = H diag(1/delta) and D_w = H (1/delta)
    the weighted degree, so A(u,v) = sum_e h(u,e)h(v,e)/delta(e)^2 over
    sqrt(dw(u) dw(v)). The form is derived by hand, not read off the
    operator training applies. A vertex of degree 0 is an error.
    """
    delta = _hyperedge_sizes(h)
    H = incidence_matrix(h)
    dw = H @ (1.0 / delta)
    if not dw.all():
        raise HypergraphError(f"vertices with degree 0: {np.flatnonzero(dw == 0).tolist()}")
    B = sp.csr_array((1.0 / delta[H.indices], H.indices, H.indptr), shape=H.shape)
    return _scale_symmetric(B @ B.T, 1.0 / np.sqrt(dw))


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
    """Degraded LE vs the weighted-degree star adjacency, elementwise."""
    lhs = degraded_line_adjacency(h)
    rhs = star_adjacency(h)
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
