"""Verification suites: projection identities, size formulas, the
line-graph-of-star-expansion equivalence, expansion unification, and
round-trip reconstruction. Every comparison is of arrays, with no size cap:
``(a != b).nnz == 0`` for the integer identities, the sorted edge keys of
both sides for the line graph, :mod:`linexp.unify` for the float ones. Over
a corpus, a check reports its first failing instance's seed.

Each instance's line expansion ``le = line_expand(h)``, at unit weights, is
built once, and every ``check_*`` takes it with the hypergraph as
``(h, le)``, so the line edges are built once per instance.

A generated corpus runs four checks once each, on a disjoint union:
``observation-identities`` and ``line-graph-of-star-expansion`` on the union
of the corpus, which they share with its one ``line_expand``,
``star-equivalence`` on the union of the instances with no isolated vertex,
and ``simple-graph-factor`` on the union of the generated graphs. The union
shifts each instance's ids by the sizes before it, so its ``H`` is
block-diagonal, and so is every matrix and edge set these checks compare:
each compared entry or edge belongs to one instance, and an identity holds
on the union iff it holds on every instance. A passing union reports what
the per-instance scan would. A failing one is scanned again instance by
instance, so the result names the first failing instance, its detail and
its seed, and counts it in ``instances``. A corpus of one instance, such as
``--input``, is checked as itself, with no union.
"""
from __future__ import annotations

import dataclasses
import functools
import time
from collections.abc import Callable

import numpy as np
import scipy.sparse as sp

from .expansions import (
    LineExpansion,
    _edge_array,
    _edge_keys,
    _line_graph_keys,
    adjacency_from_projections,
    block_gram,
    line_expand,
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
    MAX_ISO_SIDE,
    NotALineExpansionError,
    UnlabeledGraph,
    back_project_labeled,
    hypergraph_isomorphic,
    krausz_reconstruct,
    strip_labels,
)
from .unify import CheckResult, check_simple_graph_factor, check_star_equivalence


def check_observation_identities(h: Hypergraph, le: LineExpansion) -> CheckResult:
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
    ok2 = (adjacency_from_projections(p) != le.adjacency()).nnz == 0
    return CheckResult(
        "observation-identities",
        ok1 and ok2,
        f"block-gram {'ok' if ok1 else 'MISMATCH'}, "
        f"adjacency {'ok' if ok2 else 'MISMATCH'}",
    )


def check_size_formulas(h: Hypergraph, le: LineExpansion) -> CheckResult:
    expected = size_formulas(h)
    got = (le.num_nodes, le.num_edges)
    return CheckResult(
        "size-formulas", expected == got, f"closed-form {expected}, built {got}"
    )


def check_line_graph_equivalence(h: Hypergraph, le: LineExpansion) -> CheckResult:
    """LE(h) equals the line graph of the star expansion under the canonical
    (v, e) labeling: star-expansion edges are exactly the incidence pairs.
    Both sides are compared as the sorted distinct keys min * m + max of
    their edges, m the number of star edges."""
    n_star, star_edges = star_expansion_graph(h)
    ends = np.array(star_edges, dtype=np.int64).reshape(-1, 2)
    m = len(ends)
    lg_keys = _line_graph_keys(n_star, ends[:, 0], ends[:, 1])
    # star edge k and line node k are both the pair h.pairs()[k]
    edges = _edge_array(le.edges)
    le_keys = _edge_keys(edges["i"], edges["j"], m)
    return CheckResult(
        "line-graph-of-star-expansion",
        bool(np.array_equal(lg_keys, le_keys)),
        f"{len(le_keys)} LE edges vs {len(lg_keys)} line-graph edges",
    )


def check_labeled_round_trip(h: Hypergraph, le: LineExpansion) -> CheckResult:
    back = back_project_labeled(le, h.num_vertices, h.num_hyperedges)
    return CheckResult("labeled-round-trip", back == h)


def _set_aside(h: Hypergraph) -> tuple[Hypergraph, str]:
    """h without its isolated vertices and empty hyperedges, which have no
    line node, and a note of how many were set aside ("" if none)."""
    kept = [v for v in range(h.num_vertices) if h.vertex_edges(v)]
    new_id = dict(zip(kept, range(len(kept))))
    edges = tuple(tuple(map(new_id.get, verts)) for verts in h.edges if verts)
    isolated, empty = h.num_vertices - len(kept), h.num_hyperedges - len(edges)
    if not (isolated or empty):
        return h, ""
    note = f"set aside {isolated} isolated vertex(es) and {empty} empty hyperedge(s)"
    return Hypergraph(len(kept), edges), note


def check_unlabeled_round_trip(h: Hypergraph, le: LineExpansion) -> CheckResult:
    """Structure-only reconstruction recovers h or its dual (connected
    inputs), once the isolated vertices and empty hyperedges, which leave no
    trace in the unlabeled expansion, are set aside (see :func:`_set_aside`)."""
    g = strip_labels(le)
    try:
        result = krausz_reconstruct(g)
    except NotALineExpansionError as exc:
        return CheckResult("unlabeled-round-trip", False, str(exc))
    core, note = _set_aside(h)
    ok = any(hypergraph_isomorphic(core, cand) for cand in result.candidates)
    return CheckResult("unlabeled-round-trip", ok, note)


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


def random_connected_hypergraph(nv: int, ne: int, p: float, seed: int) -> Hypergraph:
    """Sample until connected, up to 500 times; isolated vertices are first
    repaired by inserting them into a random hyperedge."""
    rng = np.random.default_rng(seed)
    for k in range(500):
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
    i, j = np.triu_indices(n, 1)
    extra = rng.random(len(i)) < p
    edges.update(zip(i[extra].tolist(), j[extra].tolist()))
    return UnlabeledGraph.from_edges(n, edges)


def _first_failure(
    name: str, instances: list, check: Callable, pass_detail: str = ""
) -> CheckResult:
    """``check(*args)`` on each instance ``(*args, seed)`` in turn. The first
    failure is the result, its detail tagged with the seed; a pass reports
    ``pass_detail``. Either way the result counts the instances checked and
    the seconds they took."""
    start = time.perf_counter()
    for k, (*args, inst_seed) in enumerate(instances, start=1):
        res = check(*args)
        if not res.passed:
            tag = f" (seed {inst_seed})" if inst_seed is not None else ""
            return CheckResult(name, False, res.detail + tag, k, time.perf_counter() - start)
    return CheckResult(name, True, pass_detail, len(instances), time.perf_counter() - start)


def _disjoint_union(cls, parts):
    """``cls(n, edges)``, the disjoint union of ``parts``, each a pair
    ``(size, edges)``: a part's ids are shifted by the sizes before it, so
    the union's incidence matrix is block-diagonal, in the parts' order."""
    edges, offset = [], 0
    for size, part_edges in parts:
        edges += [tuple(v + offset for v in verts) for verts in part_edges]
        offset += size
    return cls(offset, tuple(edges))


def _union_first(
    name: str, instances: list, check: Callable, union: Callable, pass_detail: str = ""
) -> CheckResult:
    """``check(*union())`` once, on the instances' disjoint union, whose
    verdict is every instance's: each entry the check compares lies in one
    instance's block. A pass reports what :func:`_first_failure` would. A
    failure, and a corpus of at most one instance, is left to
    :func:`_first_failure`, which names the failing instance and its seed.
    ``seconds`` counts the union, if this call builds it, and any scan after
    it."""
    start = time.perf_counter()
    if len(instances) > 1 and check(*union()).passed:
        return CheckResult(name, True, pass_detail, len(instances), time.perf_counter() - start)
    res = _first_failure(name, instances, check, pass_detail)
    return dataclasses.replace(res, seconds=time.perf_counter() - start)


def _hypergraph_union(instances: list) -> tuple[Hypergraph]:
    return (_disjoint_union(Hypergraph, ((h.num_vertices, h.edges) for h, *_ in instances)),)


def _expanded_union(instances: list) -> tuple[Hypergraph, LineExpansion]:
    (u,) = _hypergraph_union(instances)
    return u, line_expand(u)


def _graph_union(instances: list) -> tuple[UnlabeledGraph]:
    return (_disjoint_union(UnlabeledGraph, ((g.num_nodes, g.edges) for g, _ in instances)),)


def run_verification(
    trials: int = 200,
    seed: int = 1,
    reconstruct: bool = False,
    hypergraph: Hypergraph | None = None,
) -> list[CheckResult]:
    """The full property suite; generates a corpus when no input is given."""
    if hypergraph is not None:
        corpus = [(hypergraph, line_expand(hypergraph), None)]
    else:
        rng = np.random.default_rng(seed)
        corpus = []
        for t in range(trials):
            nv = int(rng.integers(2, 21))
            ne = int(rng.integers(1, 16))
            p = float(rng.uniform(0.15, 0.6))
            h = random_hypergraph(nv, ne, p, seed + t)
            corpus.append((h, line_expand(h), seed + t))

    pass_detail = f"{len(corpus)} instance(s)"
    # one union of the corpus and its line expansion, for both checks on it
    expanded = functools.cache(lambda: _expanded_union(corpus))
    results = [
        _union_first(
            "observation-identities", corpus, check_observation_identities, expanded, pass_detail
        ),
        _first_failure("size-formulas", corpus, check_size_formulas, pass_detail),
        _union_first(
            "line-graph-of-star-expansion", corpus, check_line_graph_equivalence, expanded,
            pass_detail,
        ),
        _first_failure("labeled-round-trip", corpus, check_labeled_round_trip, pass_detail),
    ]

    # star equivalence needs no zero-degree vertices
    no_isolated = [
        (h, s) for h, _, s in corpus if all(h.vertex_edges(v) for v in range(h.num_vertices))
    ]
    skipped = len(corpus) - len(no_isolated)
    compared = f"{len(no_isolated)} of {len(corpus)} instance(s) compared" + (
        f", {skipped} skipped with an isolated vertex" if skipped else ""
    )
    results.append(
        _union_first(
            "star-equivalence", no_isolated, check_star_equivalence,
            lambda: _hypergraph_union(no_isolated), compared,
        )
    )

    if hypergraph is None:
        rng2 = np.random.default_rng(seed + 7)
        graphs = []
        for t in range(min(trials, 50)):
            n, p = int(rng2.integers(2, 30)), float(rng2.uniform(0.05, 0.4))
            graphs.append((random_connected_graph(n, p, seed + t), seed + t))
        results.append(
            _union_first(
                "simple-graph-factor", graphs, check_simple_graph_factor,
                lambda: _graph_union(graphs),
            )
        )

    if reconstruct:
        if hypergraph is None:
            small = [
                (h, le, s)
                for h, le, s in corpus
                if h.num_vertices <= 8 and h.num_hyperedges <= 6 and is_connected(h)
            ]
            why, note = "none is connected with |V| <= 8 and |E| <= 6", ""
        else:
            core, note = _set_aside(hypergraph)
            side = min(core.num_vertices, core.num_hyperedges)
            small = corpus if side <= MAX_ISO_SIDE else []
            why = f"min(|V|, |E|) = {side} exceeds the isomorphism test's limit of {MAX_ISO_SIDE}"
        detail = f"{len(small)} instance(s)" + (f", {note}" if note else "")
        detail += "" if small else f": {why}"
        results.append(
            _first_failure("unlabeled-round-trip", small, check_unlabeled_round_trip, detail)
        )
    return results
