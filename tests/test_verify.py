import dataclasses
import json
import re

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import linexp as lx
from linexp import unify, verify
from linexp.cli import main
from linexp.reconstruction import NotALineExpansionError, UnlabeledGraph
from linexp.unify import CheckResult, check_star_equivalence
from linexp.verify import run_verification

from conftest import WORKED_EXAMPLE_TEXT

COVERING_CHECKS = [
    "observation-identities",
    "size-formulas",
    "line-graph-of-star-expansion",
    "labeled-round-trip",
]


def above_old_cap() -> lx.Hypergraph:
    """4,099 vertices in overlapping triples (i, i+1, i+2), i even: no
    isolated vertex and 6,147 incidence pairs."""
    return lx.Hypergraph(4099, tuple((i, i + 1, i + 2) for i in range(0, 4097, 2)))


def test_analysis_and_verification_above_old_cap(tmp_path):
    h = above_old_cap()
    nv = h.num_vertices
    for a in (
        lx.clique_adjacency(h),
        lx.star_adjacency(h),
        lx.degraded_line_adjacency(h),
    ):
        assert a.shape == (nv, nv) and a.nnz > 0
    assert check_star_equivalence(h).passed
    results = run_verification(hypergraph=h)
    assert all(r.passed for r in results), results
    path = tmp_path / "h.hg"
    path.write_text(lx.render_hypergraph(h))
    out = tmp_path / "star.txt"
    assert main(["expand", "--mode", "star", "--input", str(path),
                 "--out", str(out)]) == 0
    assert out.read_text().startswith(f"{nv + h.num_hyperedges} {h.num_pairs}\n")


@pytest.mark.parametrize(
    "target, detail",
    [
        ("block_gram", "block-gram MISMATCH, adjacency ok"),
        ("adjacency_from_projections", "block-gram ok, adjacency MISMATCH"),
    ],
)
@pytest.mark.parametrize("entry", [(0, 1), (0, 3)])
def test_observation_identities_catch_one_changed_entry(
    monkeypatch, worked, target, detail, entry
):
    # (0, 1) is stored in both matrices; (0, 3) in neither.
    real = getattr(verify, target)

    def perturbed(p):
        a = real(p).tolil()
        a[entry] += 1.0
        return sp.csr_array(a)

    monkeypatch.setattr(verify, target, perturbed)
    res = verify.check_observation_identities(worked, lx.line_expand(worked))
    assert not res.passed
    assert res.detail == detail


@pytest.mark.parametrize(
    "kwargs, instances",
    [
        (dict(trials=40, seed=1), 40 + 1),  # the union's, for observation-identities
        (dict(trials=40, seed=5), 40 + 1),
        (dict(hypergraph=lx.parse_hypergraph(WORKED_EXAMPLE_TEXT)), 1),  # --input
    ],
    ids=["seed-1", "seed-5", "input"],
)
def test_one_line_expansion_per_instance(monkeypatch, groups_builds, kwargs, instances):
    """Every check reads the instance's one line expansion, whose line edges
    are built once; a corpus adds one for the disjoint union of its
    instances."""
    expansions = []
    real_expand = verify.line_expand

    def counted_expand(h, *args):
        expansions.append(h)
        return real_expand(h, *args)

    monkeypatch.setattr(verify, "line_expand", counted_expand)
    results = run_verification(reconstruct=True, **kwargs)
    assert all(r.passed for r in results), results
    assert not results[-1].detail.startswith("0 instance(s)")  # the round trip ran
    assert len(expansions) == instances
    assert len(groups_builds) == instances


def _failing_report(x):
    detail = "lhs vs rhs: max|diff| = 1.000e+00 (tol 1e-12, |V|=0, |E|=0)"
    return CheckResult("lhs", False, detail, max_abs_diff=1.0)


def _not_a_line_expansion(graph):
    raise NotALineExpansionError("boom")


@pytest.mark.parametrize(
    "target, replacement, name, detail",
    [
        ("krausz_reconstruct", _not_a_line_expansion, "unlabeled-round-trip", "boom"),
        ("check_star_equivalence", _failing_report, "star-equivalence",
         "lhs vs rhs: max|diff| = 1.000e+00 (tol 1e-12, |V|=0, |E|=0)"),
        ("check_simple_graph_factor", _failing_report, "simple-graph-factor",
         "lhs vs rhs: max|diff| = 1.000e+00 (tol 1e-12, |V|=0, |E|=0)"),
    ],
)
def test_failure_detail_names_the_seed(monkeypatch, target, replacement, name, detail):
    monkeypatch.setattr(verify, target, replacement)
    # this corpus has one instance small enough for the round trip
    results = {r.name: r for r in run_verification(40, 1_000_000, reconstruct=True)}
    res = results[name]
    assert not res.passed
    seed = re.fullmatch(re.escape(detail) + r" \(seed (\d+)\)", res.detail)
    assert seed is not None, res.detail
    assert 1_000_000 <= int(seed.group(1)) < 1_000_000 + 40
    assert str(res) == f"[FAIL] {name}: {res.detail}"


def test_a_failing_float_check_says_fail_once(monkeypatch):
    monkeypatch.setattr(unify, "star_adjacency", lambda h: 2 * lx.star_adjacency(h))
    res = {r.name: r for r in run_verification(40, 1)}["star-equivalence"]
    assert not res.passed
    assert str(res).count("[FAIL]") == 1
    assert str(res).startswith(
        "[FAIL] star-equivalence: degraded-line-expansion vs "
        "star-adjacency(weighted-degree): max|diff| = "
    )


def test_failure_detail_of_one_input_has_no_seed(monkeypatch, worked):
    monkeypatch.setattr(verify, "krausz_reconstruct", _not_a_line_expansion)
    res = run_verification(hypergraph=worked, reconstruct=True)[-1]
    assert str(res) == "[FAIL] unlabeled-round-trip: boom"


@pytest.mark.parametrize("trials", [40, 60])
def test_exactly_four_checks_report_every_instance(trials):
    results = run_verification(trials, 1_000_000 + trials, reconstruct=True)
    assert all(r.passed for r in results), results
    covering = [r.name for r in results if r.detail == f"{trials} instance(s)"]
    assert covering == COVERING_CHECKS


def test_results_count_and_time_their_instances(monkeypatch, tmp_path):
    """A result counts the instances it checked, up to and including the
    first failure, and the seconds they took; neither is compared, and
    ``verify --json`` writes both."""
    results = {r.name: r for r in run_verification(40, 1_000_000, reconstruct=True)}
    assert [results[name].instances for name in COVERING_CHECKS] == [40] * 4
    assert results["unlabeled-round-trip"].instances == 1
    assert all(r.seconds > 0 for r in results.values())
    first = results["size-formulas"]
    assert dataclasses.replace(first, instances=0, seconds=0.0) == first

    checked = []

    def third_fails(h, le):
        checked.append(h)
        return verify.CheckResult("size-formulas", len(checked) < 3)

    monkeypatch.setattr(verify, "check_size_formulas", third_fails)
    failed = {r.name: r for r in run_verification(40, 1_000_000)}["size-formulas"]
    assert (failed.passed, failed.instances) == (False, 3)

    report = tmp_path / "verify.jsonl"
    main(["verify", "--trials", "20", "--seed", "3", "--json", str(report)])
    records = [json.loads(ln) for ln in report.read_text().splitlines()]
    assert records[0]["instances"] == 20 and records[0]["seconds"] > 0
    assert {tuple(r) for r in records} == {("name", "pass", "detail", "instances", "seconds")}


def test_a_round_trip_over_no_instance_says_why():
    # no instance of this corpus is connected with |V| <= 8 and |E| <= 6
    res = run_verification(40, 3, reconstruct=True)[-1]
    assert str(res) == (
        "[PASS] unlabeled-round-trip: 0 instance(s): "
        "none is connected with |V| <= 8 and |E| <= 6"
    )


def test_a_round_trip_sets_aside_what_has_no_line_node():
    h = lx.Hypergraph(4, ((0, 1), (), (1, 2)))  # vertex 3 and hyperedge 1
    results = run_verification(hypergraph=h, reconstruct=True)
    assert all(r.passed for r in results), results
    assert str(results[-1]) == (
        "[PASS] unlabeled-round-trip: 1 instance(s), "
        "set aside 1 isolated vertex(es) and 1 empty hyperedge(s)"
    )
    core, note = verify._set_aside(h)
    assert core == lx.Hypergraph(3, ((0, 1), (1, 2)))
    assert verify._set_aside(core) == (core, "")


@st.composite
def hypergraphs_with_gaps(draw):
    """0 to 9 vertices, some isolated, and up to 8 hyperedges, some empty."""
    nv = draw(st.integers(0, 9))
    edge = st.sets(st.integers(0, nv - 1)).map(lambda vs: tuple(sorted(vs))) if nv else st.just(())
    return lx.Hypergraph(nv, tuple(draw(st.lists(edge, max_size=8))))


@settings(max_examples=400, deadline=None)
@given(hypergraphs_with_gaps())
def test_is_connected_matches_star_graph_oracle(h):
    """With no incidence pair, connected iff at most one vertex; otherwise
    iff the star graph over all vertices and the non-empty hyperedges is
    connected, so an isolated vertex disconnects."""
    if h.num_pairs == 0:
        expected = h.num_vertices <= 1
    else:
        g = nx.Graph()
        g.add_nodes_from(("v", v) for v in range(h.num_vertices))
        g.add_edges_from((("v", v), ("e", e)) for e, verts in enumerate(h.edges) for v in verts)
        expected = nx.is_connected(g)
    assert verify.is_connected(h) == expected


def _recording_corpus(monkeypatch) -> dict:
    """Record, in order, every hypergraph and graph ``run_verification``
    generates, each with its seed."""
    recorded = {"hypergraphs": [], "graphs": []}
    for name, key in (("random_hypergraph", "hypergraphs"), ("random_connected_graph", "graphs")):
        def recording(*args, real=getattr(verify, name), key=key):
            x = real(*args)
            recorded[key].append((x, args[-1]))
            return x

        monkeypatch.setattr(verify, name, recording)
    return recorded


def _no_isolated(h: lx.Hypergraph) -> bool:
    return all(map(h.vertex_edges, range(h.num_vertices)))


# name -> (its instances in a recorded corpus, as (instance, seed); the
# check; one instance's check arguments; the pass detail over `trials`, of
# which `n` are its instances)
UNION_CHECKS = {
    "observation-identities": (
        lambda rec: rec["hypergraphs"],
        verify.check_observation_identities,
        lambda h: (h, lx.line_expand(h)),
        lambda trials, n: f"{trials} instance(s)",
    ),
    "star-equivalence": (
        lambda rec: [(h, s) for h, s in rec["hypergraphs"] if _no_isolated(h)],
        check_star_equivalence,
        lambda h: (h,),
        lambda trials, n: f"{n} of {trials} instance(s) compared"
        + (f", {trials - n} skipped with an isolated vertex" if trials - n else ""),
    ),
    "simple-graph-factor": (
        lambda rec: rec["graphs"],
        unify.check_simple_graph_factor,
        lambda g: (g,),
        lambda trials, n: "",
    ),
}


def _scan(name: str, members: list, trials: int) -> CheckResult:
    """The per-instance scan of check ``name`` over ``members``."""
    _, check, args, pass_detail = UNION_CHECKS[name]
    instances = [(*args(x), s) for x, s in members]
    return verify._first_failure(name, instances, check, pass_detail(trials, len(members)))


CORPORA = [(40, 11), (40, 2_000_000), (60, 12), (60, 3), (200, 13)]


@pytest.mark.parametrize("trials, seed", CORPORA)
@pytest.mark.parametrize("name", UNION_CHECKS)
def test_a_union_check_agrees_with_the_per_instance_scan(monkeypatch, name, trials, seed):
    recorded = _recording_corpus(monkeypatch)
    unions = []
    real_union = verify._disjoint_union

    def counted_union(cls, parts):
        unions.append(cls)
        return real_union(cls, parts)

    monkeypatch.setattr(verify, "_disjoint_union", counted_union)
    res = {r.name: r for r in run_verification(trials, seed, reconstruct=True)}[name]
    assert unions == [lx.Hypergraph, lx.Hypergraph, UnlabeledGraph]  # one per union check
    members = UNION_CHECKS[name][0](recorded)
    scan = _scan(name, members, trials)
    assert scan.passed
    assert (res, res.instances) == (scan, scan.instances)


def _add_one(a: sp.csr_array, i: int, j: int) -> sp.csr_array:
    a = a.tolil()
    a[i, j] += 1.0
    return sp.csr_array(a)


def _size(x) -> int:
    return x.num_vertices if isinstance(x, lx.Hypergraph) else x.num_nodes


# name -> (where the planted fault goes, and what it does to the result at
# instance vertex `i`, shifted into the instance's block, of instance `x`)
PLANTS = {
    "observation-identities": (
        verify, "vertex_degrees",
        lambda d, i, h: lx.DegreeVector(d.values[:i] + (d.values[i] + 1,) + d.values[i + 1:]),
    ),
    "star-equivalence": (unify, "star_adjacency", lambda a, i, h: _add_one(a, i, i)),
    "simple-graph-factor": (
        unify, "simple_graph_adjacency",
        lambda a, i, g: _add_one(a, g.edges[0][0] + i, g.edges[0][1] + i),
    ),
}


@pytest.mark.parametrize("trials, seed", CORPORA)
@pytest.mark.parametrize("name", UNION_CHECKS)
def test_a_fault_in_instance_k_fails_as_instance_k(monkeypatch, name, trials, seed):
    """One entry of instance k's block is changed, whether the check sees
    instance k alone or the union's block of it. The union fails, and the
    result names instance k, its seed and its detail, as the per-instance
    scan does."""
    members_of = UNION_CHECKS[name][0]
    module, attr, perturb = PLANTS[name]
    real = getattr(module, attr)
    with monkeypatch.context() as m:
        recorded = _recording_corpus(m)
        run_verification(trials, seed)
        n = len(members_of(recorded))
    for k in sorted({1, n // 2 + 1, n}):
        with monkeypatch.context() as m:
            recorded = _recording_corpus(m)

            def planted(x):
                out = real(x)
                insts = [y for y, _ in members_of(recorded)]
                if x is insts[k - 1]:
                    return perturb(out, 0, x)
                if _size(x) == sum(map(_size, insts)):  # their union
                    return perturb(out, sum(map(_size, insts[: k - 1])), insts[k - 1])
                return out

            m.setattr(module, attr, planted)
            res = {r.name: r for r in run_verification(trials, seed)}[name]
            members = members_of(recorded)
            assert len(members) == n
            assert (res.passed, res.instances) == (False, k)
            assert res.detail.endswith(f" (seed {members[k - 1][1]})")
            scan = _scan(name, members, trials)
            assert (res, res.instances) == (scan, scan.instances)


def test_no_union_of_at_most_one_instance(monkeypatch):
    """An empty corpus builds nothing; a corpus of one instance checks it
    as itself, with its own line expansion and no union."""
    expansions, unions = [], []
    for name, calls in (("line_expand", expansions), ("_disjoint_union", unions)):
        def counted(*args, real=getattr(verify, name), calls=calls):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(verify, name, counted)

    empty = run_verification(0, 1, reconstruct=True)
    assert [(r.passed, r.instances) for r in empty] == [(True, 0)] * 7
    assert (expansions, unions) == ([], [])

    one = run_verification(1, 3, reconstruct=True)
    assert all(r.passed for r in one), one
    assert [r.instances for r in one] == [1, 1, 1, 1, 0, 1, 0]
    assert one[4].name == "star-equivalence"
    assert (len(expansions), unions) == (1, [])


def _scalar_random_connected_graph(n: int, p: float, seed: int) -> UnlabeledGraph:
    """random_connected_graph with one ``rng.random()`` per candidate extra
    edge, i < j in row order: the reference for its one-call draw."""
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


def test_random_connected_graph_matches_the_scalar_draws():
    rng = np.random.default_rng(2024)
    for seed in range(600):
        n, p = int(rng.integers(0, 31)), float(rng.uniform(0.0, 1.0))
        assert verify.random_connected_graph(n, p, seed) == _scalar_random_connected_graph(
            n, p, seed
        ), (n, p, seed)
