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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 1\n0 +1\n", "line 2: non-integer vertex id"),
            ("2 1\n0 1_0\n", "line 2: non-integer vertex id"),
            ("2 1\n\u0661 0\n", "line 2: non-integer vertex id"),
            ("1_1 1\n0\n", "line 1: non-integer header"),
            ("+2 1\n0 1\n", "line 1: non-integer header"),
            ("\u0662 1\n0 1\n", "line 1: non-integer header"),
            ("-2 1\n0 1\n", "line 1: negative counts in header"),
            ("2 1\n0 -1\n", "line 2: vertex id -1 out of range"),
            ("3 1\n5 0 -1\n", "line 2: vertex id -1 out of range"),
            ("3 1\n2 2 1 1\n", "line 2: duplicate vertex 1 within hyperedge"),
            ("3 2\n0 1\n1 9 1\n", "line 3: duplicate vertex 1 within hyperedge"),
            pytest.param("2 1\n0 -" + "9" * 5000 + "\n",
                         "line 2: vertex id -" + "9" * 5000 + " out of range", id="long-id"),
            pytest.param("9" * 5000 + " 0\n", "line 1: header count does not fit in int64",
                         id="long-count"),
        ],
    )
    def test_integer_is_an_optional_minus_and_ascii_digits(self, text, message):
        with pytest.raises(lx.ParseError) as exc:
            lx.parse_hypergraph(text)
        assert str(exc.value) == message

    def test_integers_may_be_split_by_any_whitespace(self):
        """A non-ASCII line is judged field by field, and "-0" and leading
        zeros are integers under the rule."""
        assert lx.parse_hypergraph("02 1\n-0\u00a001\n") == lx.Hypergraph(2, ((0, 1),))

    def test_leading_zeros_do_not_count_as_digits(self):
        zeros = "0" * 5000
        edge = f"-{zeros} {zeros}1"
        assert lx.parse_hypergraph(f"{zeros}2 1\n{edge}\n") == lx.Hypergraph(2, ((0, 1),))
        with pytest.raises(lx.ParseError, match="^line 2: duplicate vertex 0 within hyperedge$"):
            lx.parse_hypergraph(f"2 1\n{edge} {zeros}\n")


def breaks_member_rule(t, n):
    """The member rule, stated directly: ids distinct, ascending, in 0..n-1."""
    return list(t) != sorted(set(t)) or any(not 0 <= v < n for v in t)


class TestMemberRule:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-3, 8), max_size=6).map(tuple), st.integers(0, 7))
    def test_constructor_and_parser_judge_the_rule(self, t, n):
        try:
            lx.Hypergraph(n, (t,))
        except lx.HypergraphError:
            rejected = True
        else:
            rejected = False
        assert rejected == breaks_member_rule(t, n)
        try:
            lx.parse_hypergraph(f"{n} 1\n{' '.join(map(str, t))}\n")
        except lx.ParseError as exc:
            line = exc.line
        else:
            line = None
        # an empty t leaves no hyperedge line, so the parser fails at line 1
        assert (line == 2) == breaks_member_rule(sorted(t), n)

    @pytest.mark.parametrize(
        "edge, message",
        [
            ((0, 5), "hyperedge 0: vertex id 5 out of range"),
            ((1, 1), "hyperedge 0: duplicate vertex 1 within hyperedge"),
            ((2, 1), "hyperedge 0: vertex 1 after 2"),
        ],
    )
    def test_constructor_names_the_first_fault(self, edge, message):
        with pytest.raises(lx.HypergraphError, match=f"^{message}$"):
            lx.Hypergraph(3, (edge,))


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
