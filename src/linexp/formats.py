"""On-disk formats: line-expansion dumps, features, labels, splits, and
key = value config files."""
from __future__ import annotations

import json

import numpy as np

from .expansions import LineExpansion, line_expand
from .hypergraph import Hypergraph, ParseError
from .learn import Dataset, TrainConfig
from .reconstruction import UnlabeledGraph, back_project_labeled


def render_line_expansion(le: LineExpansion, labeled: bool = True) -> str:
    """Dump format: "<n> <m>"; one "<v> <e>" line per node ("? ?" when
    unlabeled); one "<i> <j>" line per edge."""
    out = [f"{le.num_nodes} {le.num_edges}"]
    for v, e in le.nodes:
        out.append(f"{v} {e}" if labeled else "? ?")
    for i, j, _kind in le.edges:
        out.append(f"{i} {j}")
    return "\n".join(out) + "\n"


def parse_line_expansion_dump(
    text: str,
) -> tuple[UnlabeledGraph, list[tuple[int, int]] | None]:
    """Read a dump; returns the topology and the labels (None if stripped)."""
    lines = [
        (i, ln.strip())
        for i, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise ParseError("missing header", 1)
    line_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError("header must be '<num_line_nodes> <num_edges>'", line_no)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("non-integer header", line_no) from None
    if n < 0 or m < 0:
        raise ParseError("negative counts in header", line_no)
    if len(lines) - 1 != n + m:
        raise ParseError(f"expected {n} node lines and {m} edge lines", line_no)
    labels: list[tuple[int, int]] | None = []
    edges = []
    try:
        for line_no, ln in lines[1 : 1 + n]:
            toks = ln.split()
            if len(toks) != 2:
                raise ParseError("node line must have two fields", line_no)
            if toks[0] == "?":
                labels = None
            elif labels is not None:
                labels.append((int(toks[0]), int(toks[1])))
        for line_no, ln in lines[1 + n :]:
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


def hypergraph_from_labeled_dump(text: str) -> Hypergraph:
    graph, labels = parse_line_expansion_dump(text)
    if labels is None:
        raise ParseError("dump is unlabeled", 1)
    le = line_expand(back_project_labeled_from_pairs(labels))
    # sanity: dumped topology must match the labels
    dumped = set(graph.edges)
    rebuilt = {(i, j) for i, j, _ in le.edges}
    if dumped != rebuilt:
        raise ParseError("edge list inconsistent with labels", 1)
    return back_project_labeled(le)


def back_project_labeled_from_pairs(pairs: list[tuple[int, int]]) -> Hypergraph:
    nv = max((v for v, _ in pairs), default=-1) + 1
    ne = max((e for _, e in pairs), default=-1) + 1
    members: list[list[int]] = [[] for _ in range(ne)]
    for v, e in pairs:
        members[e].append(v)
    return Hypergraph(nv, tuple(tuple(sorted(m)) for m in members))


def load_features(path: str) -> np.ndarray:
    """CSV, one row per vertex, numeric columns, no header."""
    return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)


def load_labels(path: str, num_vertices: int) -> np.ndarray:
    """Text lines "<vertex_id> <class_id>"; unlisted vertices get -1."""
    labels = np.full(num_vertices, -1, dtype=np.int64)
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            v, c = line.split()
            labels[int(v)] = int(c)
    return labels


def load_splits(path: str, num_vertices: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """JSON object with "train", "val", "test" arrays of vertex ids."""
    with open(path, encoding="utf-8") as f:
        obj = json.load(f)
    masks = []
    for key in ("train", "val", "test"):
        mask = np.zeros(num_vertices, dtype=bool)
        mask[np.asarray(obj.get(key, []), dtype=np.int64)] = True
        masks.append(mask)
    return masks[0], masks[1], masks[2]


_CONFIG_TYPES = {
    "w_v": float,
    "w_e": float,
    "layers": int,
    "hidden": int,
    "lr": float,
    "epochs": int,
    "weight_decay": float,
    "delta_v": int,
    "delta_e": int,
    "seed": int,
    "activation": str,
    "leaky_slope": float,
    "sampling": None,  # on/off
}


def load_train_config(path: str) -> TrainConfig:
    """"key = value" lines; unknown keys rejected."""
    cfg = TrainConfig()
    with open(path, encoding="utf-8") as f:
        for i, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError("expected 'key = value'", i)
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_TYPES:
                raise ParseError(f"unknown config key {key!r}", i)
            if key == "sampling":
                if value not in ("on", "off"):
                    raise ParseError("sampling must be on or off", i)
                cfg.sampling = value == "on"
            else:
                setattr(cfg, key, _CONFIG_TYPES[key](value))
    return cfg


def make_dataset(
    features: np.ndarray,
    labels: np.ndarray,
    train_mask: np.ndarray,
    val_mask: np.ndarray,
    test_mask: np.ndarray,
) -> Dataset:
    num_classes = int(labels.max()) + 1
    return Dataset(features, labels, train_mask, val_mask, test_mask, num_classes)
