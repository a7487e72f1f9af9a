"""Verification suites: projection identities, size formulas, the
line-graph-of-star-expansion equivalence, expansion unification, and
round-trip reconstruction. Every comparison is sparse, with no size cap:
``(a != b).nnz == 0`` for the integer identities, :mod:`linexp.unify` for the
float ones. Over a corpus, a check reports its first failing instance's seed.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .expansions import (
    adjacency_from_projections,
    block_gram,
    line_expand,
    line_graph,
    projections,
    size_formulas,
    star_expansion_graph,
)
from .hypergraph import (
    Hypergraph,
    hyperedge_degrees,
    incidence_matrix,
    random_hypergraph,
    vertex_degrees,
)
from .reconstruction import (
    MAX_KRAUSZ_NODES,
    NotALineExpansionError,
    back_project_labeled,
    hypergraph_isomorphic,
    krausz_reconstruct,
    strip_labels,
)
from .unify import (
    DEFAULT_TOL,
    check_simple_graph_factor,
    check_star_equivalence,
)
from .reconstruction import UnlabeledGraph


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"[{status}] {self.name}"
        return f"{line}: {self.detail}" if self.detail else line


def check_observation_identities(h: Hypergraph) -> CheckResult:
    """H_r^T H_r = [[D_v, H], [H^T, D_e]] and H_r H_r^T = 2I + A_l, both
    integer-exact, compared as sparse matrices."""
    p = projections(h)
    H = incidence_matrix(h).tocoo()
    nv, n = h.num_vertices, h.num_vertices + h.num_hyperedges
    degrees = [vertex_degrees(h).as_array(), hyperedge_degrees(h).as_array()]
    data = np.concatenate(degrees + [H.data, H.data]).astype(np.float64)
    rows = np.concatenate([np.arange(n), H.row, nv + H.col])
    cols = np.concatenate([np.arange(n), nv + H.col, H.row])
    expected = sp.csr_array((data, (rows, cols)), shape=(n, n))
    ok1 = (block_gram(p) != expected).nnz == 0
    a_direct = line_expand(h, 1.0, 1.0).adjacency()
    ok2 = (adjacency_from_projections(p) != a_direct).nnz == 0
    return CheckResult(
        "observation-identities",
        ok1 and ok2,
        f"block-gram {'ok' if ok1 else 'MISMATCH'}, "
        f"adjacency {'ok' if ok2 else 'MISMATCH'}",
    )


def check_size_formulas(h: Hypergraph) -> CheckResult:
    le = line_expand(h, 1.0, 1.0)
    expected = size_formulas(h)
    got = (le.num_nodes, le.num_edges)
    return CheckResult(
        "size-formulas", expected == got, f"closed-form {expected}, built {got}"
    )


def check_line_graph_equivalence(h: Hypergraph) -> CheckResult:
    """LE(h) equals the line graph of the star expansion under the canonical
    (v, e) labeling: star-expansion edges are exactly the incidence pairs."""
    n_star, star_edges = star_expansion_graph(h)
    lg_edges = set(line_graph(n_star, star_edges))
    le = line_expand(h, 1.0, 1.0)
    # star_expansion_graph emits edges in h.pairs() order, matching le.nodes
    le_edges = {(i, j) for i, j, _ in le.edges}
    same = lg_edges == le_edges
    return CheckResult(
        "line-graph-of-star-expansion",
        same,
        f"{len(le_edges)} LE edges vs {len(lg_edges)} line-graph edges",
    )


def check_labeled_round_trip(h: Hypergraph) -> CheckResult:
    le = line_expand(h, 1.0, 1.0)
    back = back_project_labeled(le, h.num_vertices, h.num_hyperedges)
    return CheckResult("labeled-round-trip", back == h)


def check_unlabeled_round_trip(h: Hypergraph) -> CheckResult:
    """Structure-only reconstruction recovers h or its dual (connected
    inputs)."""
    le = line_expand(h, 1.0, 1.0)
    g = strip_labels(le)
    try:
        result = krausz_reconstruct(g)
    except NotALineExpansionError as exc:
        return CheckResult("unlabeled-round-trip", False, str(exc))
    ok = any(hypergraph_isomorphic(h, cand) for cand in result.candidates)
    return CheckResult("unlabeled-round-trip", ok)


def is_connected(h: Hypergraph) -> bool:
    """Whether a breadth-first search from vertex 0 over the incidence
    reaches every vertex. So any isolated vertex disconnects h, empty
    hyperedges are ignored, and h with no incidence pair is connected iff it
    has at most one vertex."""
    if h.num_vertices == 0:
        return True
    reached = [True] + [False] * (h.num_vertices - 1)
    crossed = [False] * h.num_hyperedges
    queue = [0]
    for v in queue:
        for e in h.vertex_edges(v):
            if not crossed[e]:
                crossed[e] = True
                for u in h.edges[e]:
                    if not reached[u]:
                        reached[u] = True
                        queue.append(u)
    return len(queue) == h.num_vertices


def random_connected_hypergraph(
    nv: int, ne: int, p: float, seed: int, attempts: int = 500
) -> Hypergraph:
    """Sample until connected; isolated vertices are first repaired by
    inserting them into a random hyperedge."""
    rng = np.random.default_rng(seed)
    for k in range(attempts):
        h = random_hypergraph(nv, ne, p, seed + 1000003 * k)
        if h.num_hyperedges:
            edges = [set(e) for e in h.edges]
            for v in range(nv):
                if not h.vertex_edges(v):
                    edges[int(rng.integers(len(edges)))].add(v)
            h = Hypergraph(nv, tuple(tuple(sorted(e)) for e in edges))
        if is_connected(h):
            return h
    raise RuntimeError("could not sample a connected hypergraph")


def random_connected_graph(n: int, p: float, seed: int) -> UnlabeledGraph:
    """Random simple connected graph: a random spanning tree plus
    independent extra edges."""
    rng = np.random.default_rng(seed)
    edges = set()
    order = rng.permutation(n)
    for k in range(1, n):
        a = int(order[k])
        b = int(order[rng.integers(k)])
        edges.add((min(a, b), max(a, b)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return UnlabeledGraph.from_edges(n, edges)


def _first_failure(
    name: str, instances: list, check: Callable, pass_detail: str = ""
) -> CheckResult:
    """``check`` on each (instance, seed) in turn. The first failure is the
    result, its detail tagged with the seed; a pass reports ``pass_detail``."""
    for instance, inst_seed in instances:
        res = check(instance)
        if not res.passed:
            tag = f" (seed {inst_seed})" if inst_seed is not None else ""
            return CheckResult(name, False, res.detail + tag)
    return CheckResult(name, True, pass_detail)


def _reported(check: Callable, tol: float) -> Callable:
    """A :mod:`linexp.unify` check at ``tol``, its report as the detail."""

    def run(instance) -> CheckResult:
        report = check(instance, tol)
        return CheckResult(report.lhs, report.passed, str(report))

    return run


def run_verification(
    trials: int = 200,
    seed: int = 1,
    reconstruct: bool = False,
    hypergraph: Hypergraph | None = None,
    tol: float = DEFAULT_TOL,
) -> list[CheckResult]:
    """The full property suite; generates a corpus when no input is given."""
    if hypergraph is not None:
        corpus = [(hypergraph, None)]
    else:
        rng = np.random.default_rng(seed)
        corpus = []
        for t in range(trials):
            nv = int(rng.integers(2, 21))
            ne = int(rng.integers(1, 16))
            p = float(rng.uniform(0.15, 0.6))
            corpus.append((random_hypergraph(nv, ne, p, seed + t), seed + t))

    pass_detail = f"{len(corpus)} instance(s)"
    results = [
        _first_failure(name, corpus, check, pass_detail)
        for name, check in (
            ("observation-identities", check_observation_identities),
            ("size-formulas", check_size_formulas),
            ("line-graph-of-star-expansion", check_line_graph_equivalence),
            ("labeled-round-trip", check_labeled_round_trip),
        )
    ]

    # star equivalence needs no zero-degree vertices
    no_isolated = [
        (h, s) for h, s in corpus if all(h.vertex_edges(v) for v in range(h.num_vertices))
    ]
    star = _reported(check_star_equivalence, tol)
    results.append(_first_failure("star-equivalence", no_isolated, star))

    if hypergraph is None:
        rng2 = np.random.default_rng(seed + 7)
        graphs = []
        for t in range(min(trials, 50)):
            n, p = int(rng2.integers(2, 30)), float(rng2.uniform(0.05, 0.4))
            graphs.append((random_connected_graph(n, p, seed + t), seed + t))
        factor = _reported(check_simple_graph_factor, tol)
        results.append(_first_failure("simple-graph-factor", graphs, factor))

    if reconstruct:
        small = [
            (h, s)
            for h, s in corpus
            if h.num_vertices <= 8 and h.num_hyperedges <= 6 and is_connected(h)
        ]
        if hypergraph is not None and not small:
            small = [(h, s) for h, s in corpus if line_expand(h).num_nodes <= MAX_KRAUSZ_NODES]
        results.append(
            _first_failure("unlabeled-round-trip", small, check_unlabeled_round_trip,
                           f"{len(small)} instance(s)")
        )
    return results
