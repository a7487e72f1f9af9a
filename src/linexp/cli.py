"""Command-line interface: expand, stats, verify, train, reconstruct.

Exit codes: 0 success, 1 check/validation failure, 2 usage or I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np
import scipy.sparse as sp

from . import formats
from .expansions import clique_adjacency, line_expand, size_formulas, star_adjacency
from .hypergraph import (
    Hypergraph,
    HypergraphError,
    ParseError,
    hyperedge_degrees,
    incidence_matrix,
    parse_hypergraph,
    render_hypergraph,
    vertex_degrees,
)
from .learn import TrainConfig, TrainingError, train
from .reconstruction import NotALineExpansionError, UnlabeledGraph, krausz_reconstruct
from .verify import run_verification

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _read_hypergraph(path: str) -> Hypergraph:
    with open(path, encoding="utf-8") as f:
        return parse_hypergraph(f.read())


def _int_at_least(low: int, kind: str):
    """argparse type for ints of at least ``low``, named ``kind`` in the
    error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "non-negative")


def cmd_expand(args) -> int:
    h = _read_hypergraph(args.input)
    if args.mode == "line":
        text = formats.render_line_expansion(line_expand(h), labeled=not args.unlabeled)
    else:
        adj = (
            clique_adjacency(h)
            if args.mode == "clique"
            else star_adjacency(h)
        )
        # Canonical CSR: each row's columns sorted and distinct, so its
        # upper triangle lists the edges (r, c), r < c, in sorted order.
        adj.sum_duplicates()
        rows = np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))
        upper = rows < adj.indices
        edges = list(zip(rows[upper].tolist(), adj.indices[upper].tolist()))
        text = formats._render_dump(h.num_vertices, edges)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(text)
    return EXIT_OK


def cmd_stats(args) -> int:
    h = _read_hypergraph(args.input)
    nv, ne = h.num_vertices, h.num_hyperedges
    d = vertex_degrees(h).as_array()
    delta = hyperedge_degrees(h).as_array()
    # H H^T is nonzero off the diagonal exactly on the clique edges, each
    # twice, and on the diagonal at every vertex of nonzero degree.
    H = incidence_matrix(h)
    clique_edges = (sp.csr_array(H @ H.T).nnz - np.count_nonzero(d)) // 2
    n_l, m_l = size_formulas(h)

    def density(edges: int, nodes: int) -> float:
        return 2.0 * edges / (nodes * (nodes - 1)) if nodes > 1 else 0.0

    # per-node kept-neighbor cap under sampling
    sample_bound = int((d * np.minimum(d - 1, args.delta_v)).sum()
                       + (delta * np.minimum(delta - 1, args.delta_e)).sum())

    print(f"vertices            {nv}")
    print(f"hyperedges          {ne}")
    print(f"incidence pairs     {h.num_pairs}")
    print(f"clique edges        {clique_edges}")
    print(f"clique density      {density(clique_edges, nv):.6g}")
    print(f"line nodes          {n_l}")
    print(f"line edges          {m_l}")
    print(f"line density        {density(m_l, n_l):.6g}")
    # the explicit renormalized operator at w_v, w_e > 0: the diagonal and
    # both directions of every line edge
    print(f"operator nnz        {n_l + 2 * m_l}")
    print(
        f"sampled edge bound  {sample_bound} "
        f"(arcs kept at delta_v={args.delta_v}, delta_e={args.delta_e})"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    h = _read_hypergraph(args.input) if args.input else None
    results = run_verification(
        trials=args.trials,
        seed=args.seed,
        reconstruct=args.reconstruct,
        hypergraph=h,
    )
    for res in results:
        print(res)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            for res in results:
                f.write(
                    json.dumps(
                        {"name": res.name, "pass": res.passed, "detail": res.detail}
                    )
                    + "\n"
                )
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def cmd_train(args) -> int:
    h = _read_hypergraph(args.hypergraph)
    features = formats.load_features(args.features)
    if features.shape[0] != h.num_vertices:
        print("feature rows do not match vertex count", file=sys.stderr)
        return EXIT_CHECK_FAILED
    labels = formats.load_labels(args.labels, h.num_vertices)
    tr, va, te = formats.load_splits(args.splits, h.num_vertices)
    cfg = formats.load_train_config(args.config) if args.config else TrainConfig()
    if args.epochs is not None:
        cfg.epochs = args.epochs
    if args.seed is not None:
        cfg.seed = args.seed
    dataset = formats.make_dataset(features, labels, tr, va, te)
    # training raises TrainingError on non-finite values; numpy's warnings
    # on the way there would only repeat it
    with np.errstate(all="ignore"):
        model, rep = train(h, dataset, cfg)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(rep.to_dict(), f, indent=2)
        f.write("\n")
    print(f"test accuracy {rep.test_accuracy:.4f}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    with open(args.input, encoding="utf-8") as f:
        text = f.read()
    n, labels, lo, hi = formats._read_dump(text)
    if labels is not None:
        rendered = render_hypergraph(formats._hypergraph_from_label_arrays(labels, lo, hi))
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(rendered)
        return EXIT_OK
    try:
        result = krausz_reconstruct(UnlabeledGraph(n, tuple(zip(lo.tolist(), hi.tolist()))))
    except NotALineExpansionError as exc:
        print(f"not a line expansion: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    for suffix, cand in zip((".a", ".b"), result.candidates):
        with open(args.out + suffix, "w", encoding="utf-8") as f:
            f.write(render_hypergraph(cand))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linexp", description="Hypergraph line-expansion toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="write a clique/star/line expansion")
    p.add_argument("--mode", choices=("clique", "star", "line"), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--unlabeled", action="store_true")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("stats", help="size and density table")
    p.add_argument("--input", required=True)
    p.add_argument("--delta-v", type=_positive_int, default=16, dest="delta_v")
    p.add_argument("--delta-e", type=_positive_int, default=16, dest="delta_e")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--input")
    p.add_argument("--trials", type=_positive_int, default=200)
    p.add_argument("--seed", type=_nonnegative_int, default=1)
    p.add_argument("--reconstruct", action="store_true")
    p.add_argument("--json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("train", help="train the line-expansion GCN")
    p.add_argument("--hypergraph", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--config")
    p.add_argument("--epochs", type=_positive_int)
    p.add_argument("--seed", type=_nonnegative_int)
    p.add_argument("--out", default="train_report.json")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reconstruct", help="invert a line-expansion dump")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (HypergraphError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
