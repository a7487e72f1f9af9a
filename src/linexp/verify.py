"""Verification suites: projection identities, size formulas, the
line-graph-of-star-expansion equivalence, expansion unification, and
round-trip reconstruction."""
from __future__ import annotations

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
    integer-exact."""
    p = projections(h)
    gram = block_gram(p).toarray()
    H = incidence_matrix(h).toarray()
    expected = np.block(
        [
            [np.diag(vertex_degrees(h).as_array().astype(float)), H],
            [H.T, np.diag(hyperedge_degrees(h).as_array().astype(float))],
        ]
    )
    ok1 = np.array_equal(gram, expected)
    a_from_proj = adjacency_from_projections(p).toarray()
    a_direct = line_expand(h, 1.0, 1.0).adjacency().toarray()
    ok2 = np.array_equal(a_from_proj, a_direct)
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
    lg_edges = {tuple(sorted(e)) for e in line_graph(n_star, star_edges)}
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
    if h.num_pairs == 0:
        return h.num_vertices <= 1
    g = strip_labels(line_expand(h, 1.0, 1.0))
    comps = g.components()
    return len(comps) == 1 and h.num_vertices == sum(
        1 for v in range(h.num_vertices) if h.vertex_edges(v)
    )


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


def run_verification(
    trials: int = 200,
    seed: int = 1,
    reconstruct: bool = False,
    hypergraph: Hypergraph | None = None,
    tol: float = DEFAULT_TOL,
) -> list[CheckResult]:
    """The full property suite; generates a corpus when no input is given."""
    results: list[CheckResult] = []
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

    def all_pass(name, checker):
        for h, inst_seed in corpus:
            res = checker(h)
            if not res.passed:
                tag = f" (seed {inst_seed})" if inst_seed is not None else ""
                results.append(CheckResult(name, False, res.detail + tag))
                return
        results.append(CheckResult(name, True, f"{len(corpus)} instance(s)"))

    all_pass("observation-identities", check_observation_identities)
    all_pass("size-formulas", check_size_formulas)
    all_pass("line-graph-of-star-expansion", check_line_graph_equivalence)
    all_pass("labeled-round-trip", check_labeled_round_trip)

    # star equivalence needs no zero-degree vertices
    star_fail = None
    for h, inst_seed in corpus:
        if any(len(h.vertex_edges(v)) == 0 for v in range(h.num_vertices)):
            continue
        rep = check_star_equivalence(h, tol, inst_seed)
        if not rep.passed:
            star_fail = rep
            break
    results.append(
        CheckResult(
            "star-equivalence",
            star_fail is None,
            str(star_fail) if star_fail else "",
        )
    )

    if hypergraph is None:
        rng2 = np.random.default_rng(seed + 7)
        factor_fail = None
        for t in range(min(trials, 50)):
            g = random_connected_graph(
                int(rng2.integers(2, 30)), float(rng2.uniform(0.05, 0.4)), seed + t
            )
            rep = check_simple_graph_factor(g, tol, seed + t)
            if not rep.passed:
                factor_fail = rep
                break
        results.append(
            CheckResult(
                "simple-graph-factor",
                factor_fail is None,
                str(factor_fail) if factor_fail else "",
            )
        )

    if reconstruct:
        small = [
            (h, s)
            for h, s in corpus
            if h.num_vertices <= 8 and h.num_hyperedges <= 6 and is_connected(h)
        ]
        if hypergraph is not None and not small:
            small = [(h, s) for h, s in corpus if line_expand(h).num_nodes <= MAX_KRAUSZ_NODES]
        fail = None
        for h, inst_seed in small:
            res = check_unlabeled_round_trip(h)
            if not res.passed:
                fail = (res, inst_seed)
                break
        results.append(
            CheckResult(
                "unlabeled-round-trip",
                fail is None,
                f"{len(small)} instance(s)" if fail is None else str(fail),
            )
        )
    return results
