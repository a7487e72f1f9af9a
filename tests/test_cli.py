import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import linexp as lx
from linexp import formats
from linexp.cli import main
from linexp.verify import random_connected_hypergraph

from conftest import WORKED_EXAMPLE_TEXT
from test_expansions import messy_hypergraphs
from test_formats import parse_dump

MIXED = "node lines must be all '? ?' or all '<v> <e>'"


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.hg"
    path.write_text(WORKED_EXAMPLE_TEXT)
    return path


class TestExpand:
    def test_line_labeled_round_trip(self, tmp_path, worked_file, worked):
        out = tmp_path / "le.txt"
        code = main(
            ["expand", "--mode", "line", "--input", str(worked_file),
             "--out", str(out)]
        )
        assert code == 0
        h = formats.hypergraph_from_labeled_dump(out.read_text())
        assert h == worked

    def test_line_unlabeled(self, tmp_path, worked_file):
        out = tmp_path / "le.txt"
        main(["expand", "--mode", "line", "--input", str(worked_file),
              "--out", str(out), "--unlabeled"])
        graph, labels = parse_dump(out.read_text())
        assert labels is None
        assert graph.num_nodes == 8
        assert len(graph.edges) == 10

    def test_clique_dump(self, tmp_path, worked_file, worked):
        out = tmp_path / "clique.txt"
        assert main(["expand", "--mode", "clique", "--input", str(worked_file),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        n, m = (int(x) for x in lines[0].split())
        assert n == 5
        edges = {tuple(int(x) for x in ln.split()) for ln in lines[1 + n:]}
        expected = set()
        for verts in worked.edges:
            for a in range(len(verts)):
                for b in range(a + 1, len(verts)):
                    expected.add((verts[a], verts[b]))
        assert edges == expected

    @staticmethod
    def comprehension_dump(h, mode):
        """The clique dump written from a set of every stored (r, c), r < c,
        of the adjacency's COO form, sorted; the star dump is the bipartite
        star expansion, vertices 0..|V|-1 then hyperedges, one edge per
        incidence pair, sorted."""
        if mode == "star":
            nv = h.num_vertices
            edges = sorted((v, nv + e) for e, verts in enumerate(h.edges) for v in verts)
            return formats._render_dump(nv + h.num_hyperedges, edges)
        coo = sp.coo_array(lx.clique_adjacency(h))
        edges = sorted({(int(r), int(c)) for r, c in zip(coo.row, coo.col) if r < c})
        return formats._render_dump(h.num_vertices, edges)

    def expand_text(self, h, mode):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "h.hg", Path(tmp) / "out.txt"
            path.write_text(lx.render_hypergraph(h))
            assert main(["expand", "--mode", mode, "--input", str(path),
                         "--out", str(out)]) == 0
            return out.read_bytes()

    @pytest.mark.parametrize("mode", ["clique", "star"])
    def test_dump_matches_comprehension_on_worked_example(self, worked, mode):
        assert self.expand_text(worked, mode) == (
            self.comprehension_dump(worked, mode).encode()
        )

    @settings(max_examples=100, deadline=None)
    @given(messy_hypergraphs(), st.sampled_from(["clique", "star"]))
    def test_dump_matches_comprehension(self, h, mode):
        assert self.expand_text(h, mode) == self.comprehension_dump(h, mode).encode()

    def test_line_unlabeled_is_labeled_without_labels(self, tmp_path, worked_file):
        """``--unlabeled`` writes the labeled dump with every node line
        "? ?"."""
        out = tmp_path / "out.txt"
        dumps = []
        for flags in ([], ["--unlabeled"]):
            assert main(["expand", "--mode", "line", "--input", str(worked_file),
                         "--out", str(out), *flags]) == 0
            dumps.append(out.read_text())
        labeled, unlabeled = dumps
        header, *lines = labeled.splitlines(keepends=True)
        assert header == "8 10\n"
        assert unlabeled == "".join([header] + ["? ?\n"] * 8 + lines[8:])

    def test_missing_input_is_usage_error(self, tmp_path):
        assert main(["expand", "--mode", "line",
                     "--input", str(tmp_path / "nope.hg"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_malformed_input_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.hg"
        bad.write_text("not a header\n")
        assert main(["expand", "--mode", "line", "--input", str(bad),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [("1_1 1\n0\n", "line 1: non-integer header"),
         ("2 1\n0 +1\n", "line 2: non-integer vertex id"),
         pytest.param("2 1\n0 " + "9" * 5000 + "\n",
                      "line 2: vertex id " + "9" * 5000 + " out of range", id="long-id")],
    )
    def test_integer_outside_the_rule_is_parse_error(self, capsys, tmp_path, text, message):
        bad = tmp_path / "bad.hg"
        bad.write_text(text, encoding="utf-8")
        assert main(["expand", "--mode", "line", "--input", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"

    def test_unknown_mode_is_usage_error(self, tmp_path, worked_file):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--mode", "banana", "--input", str(worked_file),
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--wv", "--we"])
    def test_weight_flag_is_usage_error(self, capsys, tmp_path, worked_file, flag):
        """A dump carries no weights, so expand takes none."""
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--mode", "line", "--input", str(worked_file),
                  "--out", str(tmp_path / "o"), flag, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


class TestStats:
    def test_table(self, capsys, worked_file):
        assert main(["stats", "--input", str(worked_file)]) == 0
        out = capsys.readouterr().out
        assert "vertices            5" in out
        assert "hyperedges          3" in out
        assert "line nodes          8" in out
        assert "line edges          10" in out
        assert "operator nnz        28" in out

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs(), st.integers(1, 4), st.integers(1, 4))
    def test_counts_match_loop_definitions(self, h, delta_v, delta_e):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "h.hg"
            path.write_text(lx.render_hypergraph(h))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["stats", "--input", str(path), "--delta-v", str(delta_v),
                             "--delta-e", str(delta_e)]) == 0
        table = {ln[:20].strip(): int(ln[20:].split()[0])
                 for ln in out.getvalue().splitlines() if "density" not in ln}
        clique_pairs = {(a, b) for verts in h.edges
                        for i, a in enumerate(verts) for b in verts[i + 1:]}
        bound = sum(len(h.vertex_edges(v)) * min(len(h.vertex_edges(v)) - 1, delta_v)
                    for v in range(h.num_vertices))
        bound += sum(len(verts) * min(len(verts) - 1, delta_e) for verts in h.edges)
        assert table["clique edges"] == len(clique_pairs)
        assert table["sampled edge bound"] == bound
        op = lx.renormalized_operator(lx.line_expand(h))
        assert table["operator nnz"] == op.matrix.nnz

    @pytest.mark.parametrize("flag", ["--delta-v", "--delta-e"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_delta_is_usage_error(self, capsys, worked_file,
                                               flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--input", str(worked_file), flag, value])
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("error, line", [
        (MemoryError(), "error: out of memory"),
        (MemoryError("Unable to allocate 64.0 EiB"),
         "error: out of memory: Unable to allocate 64.0 EiB"),
    ], ids=["bare", "with-message"])
    def test_out_of_memory_is_a_one_line_error(self, capsys, monkeypatch, worked_file,
                                               error, line):
        def exhausted(text):
            raise error

        monkeypatch.setattr("linexp.cli.parse_hypergraph", exhausted)
        assert main(["stats", "--input", str(worked_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line + "\n"


class TestVerify:
    def test_default_suite_passes(self, capsys, tmp_path):
        report = tmp_path / "verify.jsonl"
        code = main(["verify", "--trials", "20", "--seed", "3",
                     "--json", str(report)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] observation-identities" in out
        assert "[PASS] size-formulas" in out
        records = [json.loads(ln) for ln in report.read_text().splitlines()]
        assert all(r["pass"] for r in records)

    def test_single_input(self, capsys, worked_file):
        assert main(["verify", "--input", str(worked_file),
                     "--reconstruct"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] unlabeled-round-trip" in out

    def test_input_above_the_isomorphism_limit_skips_reconstruction(
        self, capsys, tmp_path
    ):
        # a 12-vertex path: 22 incidence pairs, but min(|V|, |E|) = 11
        path = tmp_path / "path.hg"
        path.write_text("12 11\n" + "".join(f"{i} {i + 1}\n" for i in range(11)))
        assert main(["verify", "--input", str(path), "--reconstruct"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert lines[-1] == (
            "[PASS] unlabeled-round-trip: 0 instance(s): min(|V|, |E|) = 11 "
            "exceeds the isomorphism test's limit of 10"
        )

    def test_isolated_vertex_is_set_aside(self, capsys, tmp_path):
        # vertex 2 has no line node, so no candidate has it
        path = tmp_path / "isolated.hg"
        path.write_text("3 1\n0 1\n")
        assert main(["verify", "--input", str(path), "--reconstruct"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(line.startswith("[PASS] ") for line in lines)
        assert lines[-2:] == [
            "[PASS] star-equivalence: 0 of 1 instance(s) compared, "
            "1 skipped with an isolated vertex",
            "[PASS] unlabeled-round-trip: 1 instance(s), "
            "set aside 1 isolated vertex(es) and 0 empty hyperedge(s)",
        ]

    def test_empty_hypergraph(self, capsys, tmp_path):
        path = tmp_path / "empty.hg"
        path.write_text("0 0\n")
        assert main(["verify", "--input", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5 and all(line.startswith("[PASS] ") for line in lines)
        assert lines[-1] == "[PASS] star-equivalence: 1 of 1 instance(s) compared"

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_non_positive_trials_is_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--trials", value])
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed: must be a non-negative integer, got -1" in capsys.readouterr().err


class TestTrain:
    def write_toy(self, tmp_path):
        h, ds = lx.separable_toy(vertices_per_class=6, seed=0)
        hg = tmp_path / "toy.hg"
        hg.write_text(lx.render_hypergraph(h))
        feats = tmp_path / "feats.csv"
        np.savetxt(feats, ds.features, delimiter=",")
        labels = tmp_path / "labels.txt"
        labels.write_text(
            "".join(f"{v} {c}\n" for v, c in enumerate(ds.labels))
        )
        splits = tmp_path / "splits.json"
        splits.write_text(json.dumps({
            "train": np.flatnonzero(ds.train_mask).tolist(),
            "val": [],
            "test": np.flatnonzero(ds.test_mask).tolist(),
        }))
        return hg, feats, labels, splits

    def test_train_toy(self, capsys, tmp_path):
        hg, feats, labels, splits = self.write_toy(tmp_path)
        out = tmp_path / "report.json"
        code = main(["train", "--hypergraph", str(hg), "--features", str(feats),
                     "--labels", str(labels), "--splits", str(splits),
                     "--epochs", "150", "--seed", "0", "--out", str(out)])
        assert code == 0
        assert "test accuracy 1.0000" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["test_accuracy"] == 1.0
        assert len(report["losses"]) == 150

    def test_train_with_config_file(self, tmp_path):
        hg, feats, labels, splits = self.write_toy(tmp_path)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs = 10\nlr = 0.05\nsampling = off\nearly_stopping = on\npatience = 3\n")
        out = tmp_path / "report.json"
        assert main(["train", "--hypergraph", str(hg), "--features", str(feats),
                     "--labels", str(labels), "--splits", str(splits),
                     "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["losses"]) == 10
        assert report["config"]["lr"] == 0.05
        assert (report["config"]["early_stopping"], report["config"]["patience"]) == (True, 3)

    def test_bad_config_key(self, tmp_path):
        hg, feats, labels, splits = self.write_toy(tmp_path)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("bogus = 1\n")
        assert main(["train", "--hypergraph", str(hg), "--features", str(feats),
                     "--labels", str(labels), "--splits", str(splits),
                     "--config", str(cfg),
                     "--out", str(tmp_path / "r.json")]) == 2

    def run_with(self, tmp_path, labels=None, splits=None, config=None,
                 features=None, extra=()):
        """Train on the toy with one input file replaced by bad text."""
        hg, feats, lab, spl = self.write_toy(tmp_path)
        for text, path in ((labels, lab), (splits, spl), (features, feats)):
            if text is not None:
                path.write_text(text)
        args = ["train", "--hypergraph", str(hg), "--features", str(feats),
                "--labels", str(lab), "--splits", str(spl),
                "--epochs", "2", "--out", str(tmp_path / "r.json"), *extra]
        if config is not None:
            cfg = tmp_path / "train.cfg"
            cfg.write_text(config)
            args += ["--config", str(cfg)]
        return main(args)

    @pytest.mark.parametrize(
        "kind, text, message",
        [
            ("labels", "0 0\n99 1\n", "line 2: vertex id 99 out of range for 12 vertices"),
            ("labels", "-1 1\n", "line 1: vertex id -1 out of range for 12 vertices"),
            ("labels", "0 0 0\n", "line 1: label line must be '<vertex_id> <class_id>'"),
            ("labels", "+1 1_0\n", "line 1: label line must be '<vertex_id> <class_id>'"),
            ("labels", "2 -3\n", "line 1: class id -3 out of range for 12 vertices"),
            ("labels", "2 1000000000000\n",
             "line 1: class id 1000000000000 out of range for 12 vertices"),
            ("splits", '{"train": [0], "test": [99]}',
             "split 'test' must list vertex ids in 0..11"),
            ("splits", '{"train": [0], "test": [-1]}',
             "split 'test' must list vertex ids in 0..11"),
            ("config", "layers = abc\n", "line 1: layers must be int, got 'abc'"),
            ("config", "seed = +1\n", "line 1: seed must be int, got '+1'"),
            ("config", "lr = 1_0\n", "line 1: lr must be float, got '1_0'"),
            ("config", "w_v = \u0663\n", "line 1: w_v must be float, got '\u0663'"),
            ("config", "activation = tanh\n",
             "line 1: activation must be one of ('relu', 'leaky-relu'), got 'tanh'"),
            ("config", "layers = 0\n", "line 1: layers must be at least 1, got 0"),
            ("config", "hidden = 0\n", "line 1: hidden must be at least 1, got 0"),
            ("config", "epochs = -3\n", "line 1: epochs must be at least 1, got -3"),
            ("config", "weight_decay = -5\n",
             "line 1: weight_decay must not be negative, got -5.0"),
            ("config", "lr = -1\n", "line 1: lr must not be negative, got -1.0"),
            ("config", "activation = leaky-relu\nleaky_slope = -1\n",
             "line 2: leaky_slope must not be negative, got -1.0"),
            ("config", "w_v = 0\nw_e = 0\n", "line 2: w_v and w_e must not both be zero"),
            ("config", "seed = -3\n", "line 1: seed must not be negative, got -3"),
            ("config", "seed = 9223372036854775808\n", "line 1: seed does not fit in int64"),
            ("config", "patience = -1\n", "line 1: patience must not be negative, got -1"),
            ("config", "early_stopping = yes\n", "line 1: early_stopping must be on or off"),
            pytest.param("config", "seed = " + "9" * 5000 + "\n",
                         "line 1: seed does not fit in int64", id="config-long-seed"),
            pytest.param("labels", "0 " + "9" * 5000 + "\n",
                         "line 1: class id " + "9" * 5000 + " out of range for 12 vertices",
                         id="labels-long-class"),
        ],
    )
    def test_bad_input_is_parse_error(self, capsys, tmp_path, kind, text, message):
        assert self.run_with(tmp_path, **{kind: text}) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"

    @pytest.mark.parametrize(
        "labels, splits, message",
        [
            (None, '{"train": [0, 1], "test": [1, 2]}',
             "the train, val and test splits must be disjoint"),
            ("1 0\n2 1\n", '{"train": [0, 1], "test": [2]}',
             "every train vertex needs a label"),
            (None, '{"train": [], "test": [2]}', "the train split is empty"),
        ],
        ids=["overlapping-splits", "unlabeled-train-vertex", "empty-train-split"],
    )
    def test_bad_split_or_label_is_parse_error(self, capsys, tmp_path, labels,
                                               splits, message):
        assert self.run_with(tmp_path, labels=labels, splits=splits) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"

    @pytest.mark.parametrize(
        "config", ["w_v = nan", "w_e = -inf", "lr = nan", "lr = inf",
                   "weight_decay = nan", "leaky_slope = nan"],
    )
    def test_non_finite_config_is_parse_error(self, capsys, tmp_path, config):
        key, value = (s.strip() for s in config.split("="))
        assert self.run_with(tmp_path, config=f"seed = 1\n{config}\n") == 2
        assert capsys.readouterr().err == (
            f"parse error: line 2: {key} must be finite, got {value!r}\n"
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "config, message",
        [("lr = 1e300\n", "error: non-finite values in layer "),
         ("lr = 10\nweight_decay = 1e10\n", "error: training diverged at epoch ")],
        ids=["overflow", "unstable-weight-decay"],
    )
    def test_divergence_is_one_line_error(self, capsys, tmp_path, config, message):
        assert self.run_with(tmp_path, config=config, extra=("--epochs", "50")) == 1
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_features_are_parse_error(self, capsys, tmp_path, value):
        features = "1,0\n" * 11 + f"0,{value}\n"
        assert self.run_with(tmp_path, features=features) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: feature of vertex 11, column 1 is ")

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_epochs_is_usage_error(self, capsys, tmp_path, value):
        with pytest.raises(SystemExit) as exc:
            self.run_with(tmp_path, extra=("--epochs", value))
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            self.run_with(tmp_path, extra=("--seed", "-1"))
        assert exc.value.code == 2
        assert "--seed: must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_invalid_hypergraph_fails_check(self, tmp_path):
        hg = tmp_path / "bad.hg"
        hg.write_text("2 1\n\n")  # blank line is skipped -> short edge count
        # an explicit empty hyperedge cannot be written in the text format,
        # so exercise the row-count mismatch path instead
        feats = tmp_path / "f.csv"
        np.savetxt(feats, np.ones((3, 1)), delimiter=",")
        labels = tmp_path / "l.txt"
        labels.write_text("0 0\n")
        splits = tmp_path / "s.json"
        splits.write_text(json.dumps({"train": [0], "val": [], "test": [1]}))
        code = main(["train", "--hypergraph", str(hg), "--features", str(feats),
                     "--labels", str(labels), "--splits", str(splits),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2  # parse error: missing hyperedge line


class TestReconstruct:
    def test_labeled_dump(self, tmp_path, worked_file, worked):
        le_dump = tmp_path / "le.txt"
        main(["expand", "--mode", "line", "--input", str(worked_file),
              "--out", str(le_dump)])
        out = tmp_path / "back.hg"
        assert main(["reconstruct", "--input", str(le_dump),
                     "--out", str(out)]) == 0
        assert lx.parse_hypergraph(out.read_text()) == worked

    def test_unlabeled_dump_writes_dual_candidates(
        self, tmp_path, worked_file, worked
    ):
        le_dump = tmp_path / "le.txt"
        main(["expand", "--mode", "line", "--input", str(worked_file),
              "--out", str(le_dump), "--unlabeled"])
        out = tmp_path / "back"
        assert main(["reconstruct", "--input", str(le_dump),
                     "--out", str(out)]) == 0
        cands = [
            lx.parse_hypergraph((tmp_path / f"back{sfx}").read_text())
            for sfx in (".a", ".b")
        ]
        assert any(lx.hypergraph_isomorphic(worked, c) for c in cands)

    def test_unlabeled_dump_above_64_nodes(self, tmp_path):
        h = random_connected_hypergraph(40, 20, 0.1, 3)  # 94 incidence pairs
        path = tmp_path / "h.hg"
        path.write_text(lx.render_hypergraph(h))
        le_dump = tmp_path / "le.txt"
        assert main(["expand", "--mode", "line", "--input", str(path),
                     "--out", str(le_dump), "--unlabeled"]) == 0
        out = tmp_path / "back"
        assert main(["reconstruct", "--input", str(le_dump),
                     "--out", str(out)]) == 0
        a, b = (lx.parse_hypergraph((tmp_path / f"back{sfx}").read_text())
                for sfx in (".a", ".b"))
        assert a.num_pairs == b.num_pairs == 94
        assert {(c.num_vertices, c.num_hyperedges) for c in (a, b)} == {(40, 20), (20, 40)}

    def test_labeled_dump_with_an_empty_hyperedge_is_an_error(self, capsys, tmp_path):
        # labels name hyperedge 2, so hyperedge 1 holds no pair
        dump = tmp_path / "gap.txt"
        dump.write_text("2 0\n0 0\n1 2\n")
        out = tmp_path / "back.hg"
        assert main(["reconstruct", "--input", str(dump), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: hyperedge 1 is empty; the .hg format cannot hold it\n"
        )
        assert not out.exists()

    def test_non_line_graph_fails_check(self, tmp_path):
        dump = tmp_path / "claw.txt"
        dump.write_text("4 3\n? ?\n? ?\n? ?\n? ?\n0 1\n0 2\n0 3\n")
        assert main(["reconstruct", "--input", str(dump),
                     "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a b\n", "line 1: non-integer header"),
            ("-1 0\n", "line 1: negative counts in header"),
            ("2 1\n0 0\n1 0\n0 x\n", "line 4: non-integer field"),
            ("2 1\n0 z\n1 0\n0 1\n", "line 2: non-integer field"),
            ("2 1\n0 0\n? ?\n0 1\n", f"line 3: {MIXED}"),
            ("2 1\n? ?\nx y\n0 1\n", f"line 3: {MIXED}"),
            ("2 1\n? 5\n? ?\n0 1\n", f"line 2: {MIXED}"),
            ("2 1\n? ?\n? ?\n1 ?\n", "line 4: non-integer field"),
            ("2 1\n0 0\n1 0\n0 99999999999999999999\n",
             "line 4: bad edge (0, 99999999999999999999)"),
            ("2 1\n0 0\n99999999999999999999 0\n0 1\n",
             "line 3: label (99999999999999999999, 0) does not fit in int64"),
            ("2 1\n0 -9223372036854775808\n1 0\n0 1\n",
             "line 2: negative label (0, -9223372036854775808)"),
            ("2 1\n0 0\n1 0\n-9223372036854775808 1\n",
             "line 4: bad edge (-9223372036854775808, 1)"),
            ("2 1\n0 0\n1 0\n0 +1\n", "line 4: non-integer field"),
            ("2 1\n0 0\n1 1_0\n0 1\n", "line 3: non-integer field"),
            pytest.param("2 1\n0 " + "9" * 5000 + "\n1 0\n0 1\n",
                         "line 2: label (0, " + "9" * 5000 + ") does not fit in int64",
                         id="long-label"),
            pytest.param("2 1\n0 0\n1 0\n0 -" + "9" * 5000 + "\n",
                         "line 4: bad edge (0, -" + "9" * 5000 + ")", id="long-edge"),
            pytest.param("9" * 5000 + " 1\n", "line 1: header count does not fit in int64",
                         id="long-count"),
        ],
    )
    def test_malformed_dump_is_parse_error(self, capsys, tmp_path, text,
                                           message):
        dump = tmp_path / "bad.txt"
        dump.write_text(text)
        assert main(["reconstruct", "--input", str(dump),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"parse error: {message}\n"

    def test_labeled_dump_is_parsed_once(self, monkeypatch, tmp_path, worked_file):
        le_dump = tmp_path / "le.txt"
        main(["expand", "--mode", "line", "--input", str(worked_file),
              "--out", str(le_dump)])
        read, calls = formats._read_dump, []

        def counting_read(text):
            calls.append(text)
            return read(text)

        monkeypatch.setattr(formats, "_read_dump", counting_read)
        assert main(["reconstruct", "--input", str(le_dump),
                     "--out", str(tmp_path / "back.hg")]) == 0
        assert len(calls) == 1

    def test_dump_edges_index_node_lines_as_listed(self, tmp_path):
        dump = tmp_path / "le.txt"
        dump.write_text("3 2\n0 1\n0 0\n1 0\n0 1\n1 2\n")
        out = tmp_path / "back.hg"
        assert main(["reconstruct", "--input", str(dump), "--out", str(out)]) == 0
        assert lx.parse_hypergraph(out.read_text()) == lx.Hypergraph(2, ((0, 1), (0,)))

    def test_edge_joining_unrelated_labels_is_parse_error(self, capsys, tmp_path):
        dump = tmp_path / "le.txt"
        dump.write_text("3 2\n0 1\n0 0\n1 0\n0 1\n0 2\n")
        assert main(["reconstruct", "--input", str(dump),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "parse error: edge (0, 2) joins labels (0, 1) and (1, 0), "
            "which share neither vertex nor hyperedge\n"
        )


@pytest.mark.parametrize(
    "argv, message",
    [(["verify", "--seed", "1_0"], "argument --seed: must be int, got '1_0'"),
     (["verify", "--trials", "+3"], "argument --trials: must be int, got '+3'"),
     (["train", "--epochs", " \u0663 "], "argument --epochs: must be int, got ' \u0663 '"),
     (["verify", "--seed", "9223372036854775808"], "argument --seed: does not fit in int64"),
     (["stats", "--delta-e", "1" * 5000], "argument --delta-e: does not fit in int64")],
    ids=["underscore", "plus", "non-ascii", "beyond-int64", "long"],
)
def test_integer_option_outside_the_rule_is_usage_error(capsys, argv, message):
    """Integer options follow the file formats' integer rule."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"linexp {argv[0]}: error: {message}"


def test_networkx_is_not_a_runtime_dependency():
    """networkx serves the tests as an oracle only; the library and the CLI
    must import without it."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    ))
    subprocess.run(
        [sys.executable, "-c",
         "import linexp, linexp.cli, sys; assert 'networkx' not in sys.modules"],
        env=env, check=True,
    )
