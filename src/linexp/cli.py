"""Command-line interface: expand, stats, verify, train, reconstruct.

Exit codes: 0 success, 1 check/validation failure or out of memory, 2 usage
or I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np
import scipy.sparse as sp

from . import formats
from .expansions import line_expand, size_formulas, star_expansion_graph
from .hypergraph import (
    Hypergraph,
    HypergraphError,
    ParseError,
    _int_setting,
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
    error, read by the rule of :func:`_int_setting`."""

    def parse(text: str) -> int:
        try:
            value = _int_setting(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "non-negative")


def _clique_edges(h: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    """The clique-expansion edges (r, c), r < c, as the arrays of their r
    and of their c, sorted: the upper triangle of H H^T, which is nonzero
    exactly where two vertices share a hyperedge."""
    H = incidence_matrix(h)
    shared = sp.csr_array(H @ H.T)
    # Canonical CSR: each row's columns sorted and distinct.
    shared.sum_duplicates()
    rows = np.repeat(np.arange(shared.shape[0]), np.diff(shared.indptr))
    upper = rows < shared.indices
    return rows[upper], shared.indices[upper]


def cmd_expand(args) -> int:
    h = _read_hypergraph(args.input)
    if args.mode == "line":
        text = formats.render_line_expansion(line_expand(h), labeled=not args.unlabeled)
    elif args.mode == "star":
        text = formats._render_dump(*star_expansion_graph(h))
    else:
        rows, cols = _clique_edges(h)
        text = formats._render_dump(h.num_vertices, list(zip(rows.tolist(), cols.tolist())))
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(text)
    return EXIT_OK


def cmd_stats(args) -> int:
    h = _read_hypergraph(args.input)
    nv, ne = h.num_vertices, h.num_hyperedges
    d = vertex_degrees(h).as_array()
    delta = hyperedge_degrees(h).as_array()
    clique_edges = len(_clique_edges(h)[0])
    n_l, m_l = size_formulas(h)

    def density(edges: int, nodes: int) -> float:
        return 2.0 * edges / (nodes * (nodes - 1)) if nodes > 1 else 0.0

    # per-node kept-neighbor cap under sampling
    sample_bound = ((d * np.minimum(d - 1, args.delta_v)).sum()
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
    print(f"dump bytes          {formats.labeled_dump_bytes(line_expand(h))}")
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
                record = {"name": res.name, "pass": res.passed, "detail": res.detail,
                          "instances": res.instances, "seconds": res.seconds}
                f.write(json.dumps(record) + "\n")
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
    p.add_argument("--delta-v", type=_positive_int, default=TrainConfig.delta_v, dest="delta_v")
    p.add_argument("--delta-e", type=_positive_int, default=TrainConfig.delta_e, dest="delta_e")
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
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
