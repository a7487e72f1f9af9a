import re

import networkx as nx
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import linexp as lx
from linexp import verify
from linexp.cli import main
from linexp.reconstruction import NotALineExpansionError
from linexp.unify import EquivalenceReport, check_star_equivalence
from linexp.verify import run_verification

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
    assert out.read_text().startswith(f"{nv} ")


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
    res = verify.check_observation_identities(worked)
    assert not res.passed
    assert res.detail == detail


def _failing_report(x, tol):
    return EquivalenceReport("lhs", "rhs", 1.0, tol, 0, 0)


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
