import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import linexp as lx
from linexp import formats
from linexp.hypergraph import ParseError

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
            ("epochs = 10\nlr = fast\n", "line 2: lr must be float, got 'fast'"),
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
