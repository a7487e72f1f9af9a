import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import linexp as lx
from linexp import formats
from linexp.expansions import size_formulas
from linexp.hypergraph import ParseError, _read_header
from linexp.reconstruction import UnlabeledGraph, _hypergraph_from_pairs

from test_expansions import messy_hypergraphs

# Node lines (0,1), (0,0), (1,0) as listed: (0,1)-(0,0) share vertex 0 and
# (0,0)-(1,0) share hyperedge 0, while (0,1)-(1,0) share nothing.
VALID_UNSORTED_DUMP = "3 2\n0 1\n0 0\n1 0\n0 1\n1 2\n"
UNRELATED_EDGE_DUMP = "3 2\n0 1\n0 0\n1 0\n0 1\n0 2\n"


class TestLabeledDump:
    def test_edges_index_node_lines_as_listed(self):
        h = formats.hypergraph_from_labeled_dump(VALID_UNSORTED_DUMP)
        assert h == lx.Hypergraph(2, ((0, 1), (0,)))

    def test_edge_joining_unrelated_labels_rejected(self):
        with pytest.raises(ParseError, match=r"edge \(0, 2\) joins labels"):
            formats.hypergraph_from_labeled_dump(UNRELATED_EDGE_DUMP)

    def test_missing_edge_rejected(self, worked):
        lines = formats.render_line_expansion(lx.line_expand(worked)).splitlines()
        n, m = (int(x) for x in lines[0].split())
        text = "\n".join([f"{n} {m - 1}"] + lines[1:-1]) + "\n"
        with pytest.raises(ParseError, match="9 distinct edges, but the labels have 10"):
            formats.hypergraph_from_labeled_dump(text)

    def test_negative_label_rejected(self):
        with pytest.raises(ParseError, match=r"line 2: negative label \(0, -1\)"):
            formats.hypergraph_from_labeled_dump("2 1\n0 -1\n1 -1\n0 1\n")

    def test_duplicate_label_rejected(self):
        with pytest.raises(lx.HypergraphError, match="duplicate"):
            formats.hypergraph_from_labeled_dump("2 1\n0 0\n0 0\n0 1\n")

    def test_leading_zeros_do_not_count_as_digits(self):
        """Fields of thousands of characters, almost all leading zeros, are
        read by value, in the writer's form and in any other."""
        zeros = "0" * 5000
        text = f"2 1\n0 {zeros}\n{zeros}1 -{zeros}\n0 {zeros}1\n"
        for form in (text, text.replace(" ", "\t")):
            assert formats.hypergraph_from_labeled_dump(form) == lx.Hypergraph(2, ((0, 1),))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_node_permutation_reads_back_the_same(self, data):
        nv = data.draw(st.integers(1, 7))
        edge = st.sets(st.integers(0, nv - 1), min_size=1).map(lambda vs: tuple(sorted(vs)))
        h = lx.Hypergraph(nv, tuple(data.draw(st.lists(edge, min_size=1, max_size=6))))
        le = lx.line_expand(h)
        expected = formats.hypergraph_from_labeled_dump(formats.render_line_expansion(le))
        perm = data.draw(st.permutations(range(le.num_nodes)))  # new line of node i
        nodes = [None] * le.num_nodes
        for i, pair in enumerate(le.nodes):
            nodes[perm[i]] = pair
        edges = [(perm[i], perm[j]) for i, j, _ in le.edges]
        edges = data.draw(st.permutations(edges))
        text = "\n".join(
            [f"{le.num_nodes} {le.num_edges}"]
            + [f"{v} {e}" for v, e in nodes]
            + [f"{j} {i}" if data.draw(st.booleans()) else f"{i} {j}" for i, j in edges]
        ) + "\n"
        assert formats.hypergraph_from_labeled_dump(text) == expected


@st.composite
def hypergraphs_with_empty_hyperedges(draw):
    """:func:`messy_hypergraphs` with empty hyperedges put in, or a
    hypergraph with no incidence pairs at all."""
    if draw(st.booleans()):
        return lx.Hypergraph(draw(st.integers(0, 3)), ((),) * draw(st.integers(0, 2)))
    h = draw(messy_hypergraphs())
    edges = list(h.edges)
    for _ in range(draw(st.integers(0, 2))):
        edges.insert(draw(st.integers(0, len(edges))), ())
    return lx.Hypergraph(h.num_vertices, tuple(edges))


def large_random_hypergraph(seed=7, num_vertices=5000, num_hyperedges=2000, p=0.005):
    """About 50,000 incidence pairs and 850,000 line edges."""
    rng = np.random.default_rng(seed)
    rows = rng.random((num_hyperedges, num_vertices)) < p
    return lx.Hypergraph(num_vertices, tuple(tuple(np.flatnonzero(r).tolist()) for r in rows))


class TestRenderLineExpansion:
    """The writer formats the pairs of ``le.groups``; the reference is
    :func:`formats._render_dump` over the ``le.edges`` triples."""

    @settings(max_examples=300, deadline=None)
    @given(hypergraphs_with_empty_hyperedges(), st.booleans())
    def test_matches_the_edge_triples(self, h, labeled):
        le = lx.line_expand(h)
        expected = formats._render_dump(le.num_nodes, le.edges, le.nodes if labeled else None)
        assert formats.render_line_expansion(lx.line_expand(h), labeled) == expected

    def test_matches_the_edge_triples_at_scale(self):
        h = large_random_hypergraph()
        le = lx.line_expand(h)
        assert 45_000 < le.num_nodes < 55_000
        for labeled in (True, False):
            expected = formats._render_dump(le.num_nodes, le.edges, le.nodes if labeled else None)
            assert formats.render_line_expansion(lx.line_expand(h), labeled) == expected

    def test_writer_and_strip_labels_read_the_groups_once(self, groups_builds, worked):
        le = lx.line_expand(worked)
        formats.render_line_expansion(le)
        formats.render_line_expansion(le, labeled=False)
        lx.strip_labels(le)
        assert "edges" not in vars(le)
        assert len(groups_builds) == 1


def parse_dump(text):
    """A dump read by ``formats._read_dump`` as the topology and the labels
    (None if stripped)."""
    n, labels, lo, hi = formats._read_dump(text)
    graph = UnlabeledGraph(n, tuple(zip(lo.tolist(), hi.tolist())))
    return graph, None if labels is None else list(map(tuple, labels.tolist()))


def loop_parse(text):
    """The line-by-line dump reader that the array reader replaced, kept as
    the reference: (graph, labels) like :func:`parse_dump`."""
    line_no, n, m, lines, numbers = _read_header(text, "<num_line_nodes> <num_edges>")
    if len(lines) != n + m:
        raise ParseError(f"expected {n} node lines and {m} edge lines", line_no)
    labels = []
    edges = []
    try:
        for line_no, ln in zip(numbers[:n], lines[:n]):
            toks = ln.split()
            if len(toks) != 2:
                raise ParseError("node line must have two fields", line_no)
            if toks[0] == "?":
                labels = None
            elif labels is not None:
                v, e = int(toks[0]), int(toks[1])
                if v < 0 or e < 0:
                    raise ParseError(f"negative label ({v}, {e})", line_no)
                labels.append((v, e))
        for line_no, ln in zip(numbers[n:], lines[n:]):
            toks = ln.split()
            if len(toks) != 2:
                raise ParseError("edge line must have two fields", line_no)
            i, j = int(toks[0]), int(toks[1])
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ParseError(f"bad edge ({i}, {j})", line_no)
            edges.append((i, j))
    except ParseError:
        raise
    except ValueError:
        raise ParseError("non-integer field", line_no) from None
    return UnlabeledGraph.from_edges(n, edges), labels


def loop_hypergraph(graph, labels):
    """The per-edge label check that the array check replaced."""
    nv, ne = (max((pair[k] for pair in labels), default=-1) + 1 for k in (0, 1))
    h = _hypergraph_from_pairs(nv, ne, labels)
    for i, j in graph.edges:
        (v, e), (u, f) = labels[i], labels[j]
        if v != u and e != f:
            raise ParseError(f"edge ({i}, {j}) joins labels ({v}, {e}) and ({u}, {f})"
                             ", which share neither vertex nor hyperedge")
    expected = size_formulas(h)[1]
    if len(graph.edges) != expected:
        raise ParseError(f"{len(graph.edges)} distinct edges, but the labels have {expected}")
    return h


def outcome(read, *args):
    try:
        return read(*args)
    except lx.HypergraphError as exc:
        return f"{type(exc).__name__}: {exc}"


MIXED = "node lines must be all '? ?' or all '<v> <e>'"
TOO_LARGE = 99999999999999999999
FAULTS = ["drop", "duplicate", "swap", "token", "fields", "edge", "noise"]


@st.composite
def corrupted_dumps(draw):
    """Rendered dumps, labeled or not, with up to three faults in the lines
    below the header: a line dropped, duplicated or swapped, a token
    replaced, added or dropped, an edge line made out of range or a
    self-loop, or a comment or blank line put in. The header keeps its
    counts or takes the edge count that the lines now make; LF or CRLF."""
    le = lx.line_expand(draw(messy_hypergraphs()))
    n = le.num_nodes
    header, *lines = formats.render_line_expansion(le, labeled=draw(st.booleans())).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        fault = draw(st.sampled_from(FAULTS))
        if fault == "drop":
            del lines[k]
        elif fault == "duplicate":
            lines.insert(k, lines[k])
        elif fault == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        elif fault == "token" and lines[k].split():
            toks = lines[k].split()
            toks[draw(st.integers(0, len(toks) - 1))] = draw(
                st.sampled_from(["x", "-1", "?", str(TOO_LARGE)])
            )
            lines[k] = " ".join(toks)
        elif fault == "fields":
            lines[k] = draw(st.sampled_from([lines[k] + " 0", lines[k].rpartition(" ")[0]]))
        elif fault == "edge":
            i = draw(st.integers(0, n))
            lines[k] = draw(st.sampled_from([f"{i} {i}", f"{i} {n}"]))
        elif fault == "noise":
            lines.insert(k, draw(st.sampled_from(["# comment", "", "  \t"])))
    content = sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))
    if content >= n and draw(st.booleans()):
        header = f"{n} {content - n}"
    sep = draw(st.sampled_from(["\n", "\r\n"]))
    return sep.join([header] + lines) + sep


def node_lines_break_new_rules(text):
    """Whether the node lines, as the line loop reads them, mix "? ?" and
    labels (or hold a lone "?") or carry a label beyond int64. The line
    loop read the first as unlabeled; it accepted the second and then
    allocated that many vertices, so the reference stops there."""
    try:
        _, n, _, lines, _ = _read_header(text, "")
    except ParseError:
        return False
    toks = [tok for ln in lines[:n] for tok in ln.split()]
    mixed = "?" in toks and toks.count("?") != len(toks)
    return mixed or any(tok.lstrip("-").isdigit() and int(tok) >= 1 << 63 for tok in toks)


class TestArrayReader:
    @settings(max_examples=400, deadline=None)
    @given(corrupted_dumps())
    def test_matches_line_loop(self, text):
        """Same graph, labels and hypergraph as the line loop, or the same
        error text, except where the node lines break the all-or-none "?"
        rule or the int64 range, which the line loop did not enforce."""
        parsed = outcome(parse_dump, text)
        read = outcome(formats.hypergraph_from_labeled_dump, text)
        loop_parsed = outcome(loop_parse, text)
        if node_lines_break_new_rules(text):
            for got in (parsed, read):
                assert isinstance(got, str)
                assert got == loop_parsed or got.endswith((MIXED, "does not fit in int64")), got
            return
        if isinstance(loop_parsed, str):
            loop_read = loop_parsed
        elif loop_parsed[1] is None:
            loop_read = "ParseError: line 1: dump is unlabeled"
        else:
            loop_read = outcome(loop_hypergraph, *loop_parsed)
        assert parsed == loop_parsed
        assert read == loop_read

    def test_large_dump_reads_back(self):
        """A few thousand line nodes, as rendered and with the node lines
        shuffled and every edge line reversed."""
        h = lx.random_hypergraph(2000, 800, 0.003, 7)
        le = lx.line_expand(h)
        assert le.num_nodes > 4000 and le.num_edges > 20000
        text = formats.render_line_expansion(le)
        assert formats.hypergraph_from_labeled_dump(text) == h
        perm = np.random.default_rng(7).permutation(le.num_nodes)  # new line of node i
        nodes = [None] * le.num_nodes
        for i, (v, e) in enumerate(le.nodes):
            nodes[perm[i]] = f"{v} {e}"
        edges = [f"{perm[j]} {perm[i]}" for i, j, _ in le.edges]
        shuffled = "\n".join([f"{le.num_nodes} {le.num_edges}"] + nodes + edges) + "\n"
        assert formats.hypergraph_from_labeled_dump(shuffled) == h

    def test_peak_memory_is_a_small_multiple_of_the_dump(self):
        """The traced peak of a read above the memory in use before it, per
        dump byte, on a 1.86 MB dump: about 4. The bound leaves room for
        other NumPy and allocator versions, and a reader that keeps every
        field-position array alive at once, and its parsed integers through
        the labels, reads 10.9."""
        h = lx.random_hypergraph(3000, 1500, 0.004, 3)
        text = formats.render_line_expansion(lx.line_expand(h))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert formats.hypergraph_from_labeled_dump(text) == h
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert (peak - before) / len(text) < 7


def read(text):
    """``_read_dump``'s result as lists."""
    n, labels, lo, hi = formats._read_dump(text)
    return n, None if labels is None else labels.tolist(), lo.tolist(), hi.tolist()


INT64_MAX = (1 << 63) - 1
UNLABELED_DUMP = "3 2\n? ?\n? ?\n? ?\n0 1\n2 1\n"
NORMALIZED_FORMS = {
    "comments": lambda t: "# a dump\n" + t.replace("\n", "\n# note\n", 2),
    "blank lines": lambda t: "\n" + t.replace("\n", "\n\n"),
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "tabs": lambda t: t.replace(" ", "\t"),
    "runs of spaces": lambda t: t.replace(" ", "   "),
    "leading and trailing spaces": lambda t: "".join(f"  {ln} \n" for ln in t.splitlines()),
    "no final line end": lambda t: t[:-1],
}


class TestByteReader:
    @settings(max_examples=200, deadline=None)
    @given(messy_hypergraphs(), st.booleans())
    def test_rendered_dumps_read_as_they_are(self, h, labeled):
        """A rendered dump is read in the writer's form: neither split into
        lines for normalizing nor walked by ``_first_fault``."""
        text = formats.render_line_expansion(lx.line_expand(h), labeled=labeled)
        with mock.patch.object(formats, "_read_header", side_effect=AssertionError), \
                mock.patch.object(formats, "_first_fault", side_effect=AssertionError):
            parsed = parse_dump(text)
        assert parsed == loop_parse(text)

    @pytest.mark.parametrize(
        "text, h",
        [
            ("2 1\n-0 0\n1 -0\n-0 1\n", lx.Hypergraph(2, ((0, 1),))),
            ("3 4\n0 1\n0 0\n1 0\n1 2\n0 1\n2 1\n1 0\n", lx.Hypergraph(2, ((0, 1), (0,)))),
        ],
        ids=["signed-zeros", "repeated-and-reversed-edges"],
    )
    def test_read_in_the_writers_form(self, text, h):
        """"-0" is a field of value 0, on node and edge lines; an edge listed
        twice or either way round is one edge."""
        with mock.patch.object(formats, "_read_header", side_effect=AssertionError), \
                mock.patch.object(formats, "_first_fault", side_effect=AssertionError):
            assert formats.hypergraph_from_labeled_dump(text) == h

    @pytest.mark.parametrize("clean", [VALID_UNSORTED_DUMP, UNLABELED_DUMP])
    @pytest.mark.parametrize("form", NORMALIZED_FORMS)
    def test_normalized_form_reads_as_clean_text(self, clean, form):
        text = NORMALIZED_FORMS[form](clean)
        assert text != clean
        assert read(text) == read(clean)

    @pytest.mark.parametrize("label", [str(INT64_MAX - 1), str(INT64_MAX), f"000{INT64_MAX}"])
    def test_long_labels_in_int64_are_read_exactly(self, label):
        text = f"2 1\n0 {label}\n1 {INT64_MAX}\n0 1\n"
        assert read(text) == (2, [[0, int(label)], [1, INT64_MAX]], [0], [1])

    @pytest.mark.parametrize(
        "text, message",
        [
            (f"2 1\n0 {1 << 63}\n1 0\n0 1\n",
             f"line 2: label (0, {1 << 63}) does not fit in int64"),
            (f"2 1\n0 0\n1 {1 << 64}\n0 1\n",
             f"line 3: label (1, {1 << 64}) does not fit in int64"),
            (f"2 1\n0 -{1 << 64}\n1 0\n0 1\n", f"line 2: negative label (0, -{1 << 64})"),
            (f"2 1\n0 0\n1 0\n{1 << 63} 1\n", f"line 4: bad edge ({1 << 63}, 1)"),
            (f"2 1\n? ?\n? ?\n1 {1 << 63}\n", f"line 4: bad edge (1, {1 << 63})"),
            ("2 1\n0 \n1 0\n0 1\n", "line 2: node line must have two fields"),
            ("2 1\n0 0\n1 0\n 1\n", "line 4: edge line must have two fields"),
            ("2 1\n? ?\n? ?\n1 \n", "line 4: edge line must have two fields"),
        ],
    )
    def test_faulty_line_is_named(self, text, message):
        """Fields beyond int64, and a line of one field and a space, which
        the byte reader must not read as two fields."""
        with pytest.raises(ParseError) as exc:
            read(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("field", ["+1", "1_0", "\u0663", "1.0", "0x1", "--1", "-"])
    @pytest.mark.parametrize("line", [2, 4])
    def test_field_other_than_ascii_digits_rejected(self, field, line):
        lines = ["2 1", "0 0", "1 0", "0 1"]
        lines[line - 1] = f"0 {field}"
        with pytest.raises(ParseError) as exc:
            read("\n".join(lines) + "\n")
        assert str(exc.value) == f"line {line}: non-integer field"

    @pytest.mark.parametrize("count", ["+2", "0_2", "\u0662"])
    def test_header_other_than_ascii_digits_rejected(self, count):
        with pytest.raises(ParseError) as exc:
            read(f"{count} 1\n0 0\n1 0\n0 1\n")
        assert str(exc.value) == "line 1: non-integer header"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadLabels:
    def test_reads_labels(self, tmp_path):
        path = write(tmp_path, "l.txt", "# comment\n0 1\n\n3 2\n")
        assert formats.load_labels(path, 5).tolist() == [1, -1, -1, 2, -1]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1\n9 1\n", "line 2: vertex id 9 out of range for 5 vertices"),
            ("-1 1\n", "line 1: vertex id -1 out of range for 5 vertices"),
            ("0 1 2\n", "line 1: label line must be '<vertex_id> <class_id>'"),
            ("0\n", "line 1: label line must be '<vertex_id> <class_id>'"),
            ("0 x\n", "line 1: label line must be '<vertex_id> <class_id>'"),
            ("+1 1_0\n", "line 1: label line must be '<vertex_id> <class_id>'"),
            ("0 1\n+1 1\n", "line 2: label line must be '<vertex_id> <class_id>'"),
            ("1 1_0\n", "line 1: label line must be '<vertex_id> <class_id>'"),
            ("\u0661 0\n", "line 1: label line must be '<vertex_id> <class_id>'"),
            ("2 -3\n", "line 1: class id -3 out of range for 5 vertices"),
            ("0 1\n2 -1\n", "line 2: class id -1 out of range for 5 vertices"),
            ("2 5\n", "line 1: class id 5 out of range for 5 vertices"),
            ("2 1000000000000\n",
             "line 1: class id 1000000000000 out of range for 5 vertices"),
        ],
    )
    def test_bad_line_rejected(self, tmp_path, text, message):
        with pytest.raises(ParseError) as exc:
            formats.load_labels(write(tmp_path, "l.txt", text), 5)
        assert str(exc.value) == message


class TestLoadSplits:
    def test_reads_masks(self, tmp_path):
        path = write(tmp_path, "s.json", json.dumps({"train": [0, 2], "test": [4]}))
        tr, va, te = formats.load_splits(path, 5)
        assert tr.tolist() == [True, False, True, False, False]
        assert not va.any()
        assert te.tolist() == [False, False, False, False, True]

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"train": [0], "test": [9]}, "split 'test' must list vertex ids in 0..4"),
            ({"test": [-1]}, "split 'test' must list vertex ids in 0..4"),
            ({"val": [1.5]}, "split 'val' must list vertex ids in 0..4"),
            ({"val": [True]}, "split 'val' must list vertex ids in 0..4"),
            ({"train": 3}, "split 'train' must list vertex ids in 0..4"),
            ([0, 1], "splits must be a JSON object"),
        ],
    )
    def test_bad_split_rejected(self, tmp_path, obj, message):
        with pytest.raises(ParseError) as exc:
            formats.load_splits(write(tmp_path, "s.json", json.dumps(obj)), 5)
        assert str(exc.value) == message

    def test_invalid_json_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="line 2: invalid JSON"):
            formats.load_splits(write(tmp_path, "s.json", '{"train": [0],\n ]'), 5)


class TestLoadFeatures:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, tmp_path, value):
        path = write(tmp_path, "f.csv", f"1,2\n3,{value}\n")
        with pytest.raises(ParseError, match="feature of vertex 1, column 1 is .*, not finite"):
            formats.load_features(path)

    def test_non_numeric_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="features: could not convert"):
            formats.load_features(write(tmp_path, "f.csv", "1,abc\n"))

    def test_reads_rows(self, tmp_path):
        x = formats.load_features(write(tmp_path, "f.csv", "1,2\n3,4.5\n"))
        assert np.array_equal(x, [[1.0, 2.0], [3.0, 4.5]])


class TestLoadTrainConfig:
    def test_reads_values(self, tmp_path):
        cfg = formats.load_train_config(
            write(tmp_path, "c.cfg", "layers = 3\nactivation = leaky-relu\nlr = 0.5\n")
        )
        assert (cfg.layers, cfg.activation, cfg.lr) == (3, "leaky-relu", 0.5)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("layers = abc\n", "line 1: layers must be int, got 'abc'"),
            ("layers = 1_0\n", "line 1: layers must be int, got '1_0'"),
            ("seed = +1\n", "line 1: seed must be int, got '+1'"),
            ("epochs = \u0663\n", "line 1: epochs must be int, got '\u0663'"),
            ("hidden = 2 3\n", "line 1: hidden must be int, got '2 3'"),
            ("epochs = 10\nlr = fast\n", "line 2: lr must be float, got 'fast'"),
            ("lr = 1_0\n", "line 1: lr must be float, got '1_0'"),
            ("w_v = \u0663\n", "line 1: w_v must be float, got '\u0663'"),
            ("activation = tanh\n", "line 1: activation must be one of ('relu', 'leaky-relu'), got 'tanh'"),
            ("layers = 0\n", "line 1: layers must be at least 1, got 0"),
            ("hidden = 0\n", "line 1: hidden must be at least 1, got 0"),
            ("epochs = -3\n", "line 1: epochs must be at least 1, got -3"),
            ("delta_v = 0\n", "line 1: delta_v must be at least 1, got 0"),
            ("delta_e = -1\n", "line 1: delta_e must be at least 1, got -1"),
        ],
    )
    def test_bad_value_rejected(self, tmp_path, text, message):
        with pytest.raises(ParseError) as exc:
            formats.load_train_config(write(tmp_path, "c.cfg", text))
        assert str(exc.value) == message
