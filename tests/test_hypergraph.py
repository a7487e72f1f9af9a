import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import linexp as lx
from linexp.hypergraph import render_hypergraph

from test_expansions import messy_hypergraphs


class TestParse:
    def test_worked_example(self, worked):
        assert worked.num_vertices == 5
        assert worked.num_hyperedges == 3
        assert worked.edges == ((0, 1), (0, 1, 2), (2, 3, 4))

    def test_isolated_vertex_allowed(self):
        h = lx.parse_hypergraph("1 0\n")
        assert h.num_vertices == 1
        assert h.num_hyperedges == 0

    def test_duplicate_vertex_in_hyperedge(self):
        with pytest.raises(lx.ParseError) as exc:
            lx.parse_hypergraph("3 1\n0 0 1\n")
        assert exc.value.line == 2

    def test_vertex_out_of_range(self):
        with pytest.raises(lx.ParseError):
            lx.parse_hypergraph("2 1\n0 5\n")

    def test_malformed_header(self):
        with pytest.raises(lx.ParseError):
            lx.parse_hypergraph("banana\n")

    def test_comments_and_blank_lines(self):
        h = lx.parse_hypergraph("# hg\n\n2 1\n\n0 1\n")
        assert h.edges == ((0, 1),)

    def test_crlf(self):
        h = lx.parse_hypergraph("2 1\r\n0 1\r\n")
        assert h.edges == ((0, 1),)


class TestDegrees:
    def test_worked_example(self, worked):
        assert lx.vertex_degrees(worked).values == (2, 2, 2, 1, 1)
        assert lx.hyperedge_degrees(worked).values == (2, 3, 3)

    def test_no_hyperedges(self):
        h = lx.parse_hypergraph("4 0\n")
        assert lx.vertex_degrees(h).values == (0, 0, 0, 0)
        assert lx.hyperedge_degrees(h).values == ()

    def test_brute_force_oracle(self):
        for seed in range(30):
            h = lx.random_hypergraph(12, 8, 0.3, seed)
            pairs = [(v, e) for e, verts in enumerate(h.edges) for v in verts]
            for v in range(h.num_vertices):
                assert lx.vertex_degrees(h).values[v] == sum(
                    1 for pv, _ in pairs if pv == v
                )
            for e in range(h.num_hyperedges):
                assert lx.hyperedge_degrees(h).values[e] == sum(
                    1 for _, pe in pairs if pe == e
                )

    def test_handshake(self):
        for seed in range(30):
            h = lx.random_hypergraph(10, 7, 0.25, seed)
            assert sum(lx.vertex_degrees(h).values) == sum(
                lx.hyperedge_degrees(h).values
            )


class TestIncidenceMatrix:
    def test_worked_example(self, worked):
        expected = np.array(
            [
                [1, 1, 0],
                [1, 1, 0],
                [0, 1, 1],
                [0, 0, 1],
                [0, 0, 1],
            ],
            dtype=float,
        )
        assert np.array_equal(lx.incidence_matrix(worked).toarray(), expected)

    def test_isolated_vertex_row(self):
        h = lx.parse_hypergraph("3 1\n0 1\n")
        assert np.array_equal(lx.incidence_matrix(h).toarray()[2], [0.0])

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs(), st.booleans())
    def test_matches_row_column_loop(self, h, empty):
        if empty:
            h = lx.Hypergraph(h.num_vertices, h.edges + ((),))
        rows, cols = [], []
        for e, verts in enumerate(h.edges):
            for v in verts:
                rows.append(v)
                cols.append(e)
        shape = (h.num_vertices, h.num_hyperedges)
        expected = sp.csr_array((np.ones(len(rows)), (rows, cols)), shape=shape)
        got = lx.incidence_matrix(h)
        assert got.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_parse_render_round_trip(self):
        for seed in range(50):
            h = lx.random_hypergraph(9, 6, 0.3, seed)
            assert lx.parse_hypergraph(render_hypergraph(h)) == h


class TestValidate:
    def test_worked_example_ok(self, worked):
        rep = lx.validate(worked)
        assert rep.ok
        assert not rep.empty_hyperedges
        assert not rep.isolated_vertices
        assert not rep.duplicate_hyperedges

    def test_empty_hyperedge_flagged(self):
        h = lx.Hypergraph(2, ((0,), ()))
        rep = lx.validate(h)
        assert not rep.ok
        assert rep.empty_hyperedges == (1,)

    def test_duplicate_hyperedges_warn_only(self):
        h = lx.Hypergraph(2, ((0, 1), (0, 1)))
        rep = lx.validate(h)
        assert rep.ok
        assert rep.duplicate_hyperedges == ((0, 1),)


class TestRandomHypergraph:
    def test_p_one_is_complete(self):
        h = lx.random_hypergraph(5, 3, 1.0, 42)
        assert all(len(e) == 5 for e in h.edges)

    def test_deterministic(self):
        a = lx.random_hypergraph(15, 10, 0.3, 9)
        b = lx.random_hypergraph(15, 10, 0.3, 9)
        assert a == b

    def test_no_empty_hyperedges(self):
        for seed in range(50):
            h = lx.random_hypergraph(10, 8, 0.05, seed)
            assert all(e for e in h.edges)

    def test_bad_arguments(self):
        with pytest.raises(lx.HypergraphError):
            lx.random_hypergraph(0, 3, 0.5, 1)
        with pytest.raises(lx.HypergraphError):
            lx.random_hypergraph(3, -1, 0.5, 1)
        with pytest.raises(lx.HypergraphError):
            lx.random_hypergraph(3, 3, 0.0, 1)

    def test_density_within_binomial_interval(self):
        # 100 seeds at (20, 15, 0.2): total pairs ~ Binomial(30000, 0.2)
        # up to the empty-hyperedge retry bias (< 0.3% here); 99% interval.
        total = sum(
            lx.random_hypergraph(20, 15, 0.2, seed).num_pairs
            for seed in range(100)
        )
        n = 100 * 20 * 15
        mean, sd = n * 0.2, np.sqrt(n * 0.2 * 0.8)
        assert abs(total - mean) < 2.9 * sd
