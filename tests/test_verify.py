import dataclasses
import json
import re

import networkx as nx
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import linexp as lx
from linexp import verify
from linexp.cli import main
from linexp.reconstruction import NotALineExpansionError
from linexp.unify import DEFAULT_TOL, EquivalenceReport, check_star_equivalence
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
        lx.effective_vertex_adjacency(h, 1.0, 1.0),
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
        (dict(trials=40, seed=1), 40),
        (dict(trials=40, seed=5), 40),
        (dict(hypergraph=lx.parse_hypergraph(WORKED_EXAMPLE_TEXT)), 1),  # --input
    ],
    ids=["seed-1", "seed-5", "input"],
)
def test_one_line_expansion_per_instance(monkeypatch, kwargs, instances):
    """Every check reads the instance's one line expansion, whose line edges
    are built once."""
    expansions, groups = [], []
    real_expand, real_groups = verify.line_expand, lx.expansions.pair_groups

    def counted_expand(h, *args):
        expansions.append(h)
        return real_expand(h, *args)

    def counted_groups(nodes):
        groups.append(nodes)
        return real_groups(nodes)

    monkeypatch.setattr(verify, "line_expand", counted_expand)
    monkeypatch.setattr(lx.expansions, "pair_groups", counted_groups)
    results = run_verification(reconstruct=True, **kwargs)
    assert all(r.passed for r in results), results
    assert not results[-1].detail.startswith("0 instance(s)")  # the round trip ran
    assert len(expansions) == instances
    assert len(groups) == instances


def _failing_report(x):
    return EquivalenceReport("lhs", "rhs", 1.0, DEFAULT_TOL, 0, 0)


def _not_a_line_expansion(graph):
    raise NotALineExpansionError("boom")


@pytest.mark.parametrize(
    "target, replacement, name, detail",
    [
        ("krausz_reconstruct", _not_a_line_expansion, "unlabeled-round-trip", "boom"),
        ("check_star_equivalence", _failing_report, "star-equivalence",
         "[FAIL] lhs vs rhs: max|diff| = 1.000e+00 (tol 1e-12, |V|=0, |E|=0)"),
        ("check_simple_graph_factor", _failing_report, "simple-graph-factor",
         "[FAIL] lhs vs rhs: max|diff| = 1.000e+00 (tol 1e-12, |V|=0, |E|=0)"),
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
