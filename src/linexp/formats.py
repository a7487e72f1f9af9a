"""On-disk formats: line-expansion dumps, features, labels, splits, and
key = value config files."""
from __future__ import annotations

import json
import math

import numpy as np

from .expansions import LineExpansion, size_formulas
from .hypergraph import Hypergraph, ParseError
from .learn import ACTIVATIONS, Dataset, TrainConfig
from .reconstruction import UnlabeledGraph, back_project_labeled


def render_line_expansion(le: LineExpansion, labeled: bool = True) -> str:
    """Dump format: "<n> <m>"; one "<v> <e>" line per node ("? ?" when
    unlabeled); one "<i> <j>" line per edge, indexing the node lines as
    listed (from 0)."""
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
                v, e = int(toks[0]), int(toks[1])
                if v < 0 or e < 0:
                    raise ParseError(f"negative label ({v}, {e})", line_no)
                labels.append((v, e))
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
    """The hypergraph whose incidence pairs are the dump's node labels."""
    graph, labels = parse_line_expansion_dump(text)
    if labels is None:
        raise ParseError("dump is unlabeled", 1)
    return hypergraph_from_labels(graph, labels)


def hypergraph_from_labels(graph: UnlabeledGraph, labels: list[tuple[int, int]]) -> Hypergraph:
    """The hypergraph whose incidence pairs are ``labels``, the node labels
    of a parsed dump whose topology is ``graph``.

    Each edge must join two labels that share a vertex or a hyperedge, and
    the distinct edges must number ``size_formulas``: then they are exactly
    the line edges of the labels.
    """
    h = back_project_labeled(LineExpansion(tuple(labels), 1.0, 1.0))
    for i, j in graph.edges:
        (v, e), (u, f) = labels[i], labels[j]
        if v != u and e != f:
            raise ParseError(f"edge ({i}, {j}) joins labels ({v}, {e}) and ({u}, {f})"
                             ", which share neither vertex nor hyperedge")
    expected = size_formulas(h)[1]
    if len(graph.edges) != expected:
        raise ParseError(f"{len(graph.edges)} distinct edges, but the labels have {expected}")
    return h


def load_features(path: str) -> np.ndarray:
    """CSV, one row per vertex, finite numeric columns, no header."""
    try:
        x = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise ParseError(f"features: {exc}") from None
    if not np.isfinite(x).all():
        v, c = np.argwhere(~np.isfinite(x))[0]
        raise ParseError(f"feature of vertex {v}, column {c} is {x[v, c]}, not finite")
    return x


def load_labels(path: str, num_vertices: int) -> np.ndarray:
    """Text lines "<vertex_id> <class_id>"; unlisted vertices get -1."""
    labels = np.full(num_vertices, -1, dtype=np.int64)
    with open(path, encoding="utf-8") as f:
        for i, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                v, c = map(int, line.split())
            except ValueError:
                raise ParseError("label line must be '<vertex_id> <class_id>'", i) from None
            if not 0 <= v < num_vertices:
                raise ParseError(f"vertex id {v} out of range for {num_vertices} vertices", i)
            labels[v] = c
    return labels


def load_splits(path: str, num_vertices: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """JSON object with "train", "val", "test" arrays of vertex ids."""
    with open(path, encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    if not isinstance(obj, dict):
        raise ParseError("splits must be a JSON object")
    masks = []
    for key in ("train", "val", "test"):
        ids = obj.get(key, [])
        if not isinstance(ids, list) or not all(
            type(v) is int and 0 <= v < num_vertices for v in ids
        ):
            raise ParseError(f"split {key!r} must list vertex ids in 0..{num_vertices - 1}")
        mask = np.zeros(num_vertices, dtype=bool)
        mask[ids] = True
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
_CONFIG_AT_LEAST_ONE = ("layers", "hidden", "epochs", "delta_v", "delta_e")


def load_train_config(path: str) -> TrainConfig:
    """"key = value" lines; unknown keys, values of the wrong type, NaN or
    infinite floats, an unknown activation and sizes or counts below 1 are
    rejected."""
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
                kind = _CONFIG_TYPES[key]
                try:
                    parsed = kind(value)
                except ValueError:
                    raise ParseError(f"{key} must be {kind.__name__}, got {value!r}", i) from None
                if kind is float and not math.isfinite(parsed):
                    raise ParseError(f"{key} must be finite, got {value!r}", i)
                if key in _CONFIG_AT_LEAST_ONE and parsed < 1:
                    raise ParseError(f"{key} must be at least 1, got {parsed}", i)
                if key == "activation" and parsed not in ACTIVATIONS:
                    raise ParseError(f"activation must be one of {ACTIVATIONS}, got {value!r}", i)
                setattr(cfg, key, parsed)
    return cfg


def make_dataset(
    features: np.ndarray,
    labels: np.ndarray,
    train_mask: np.ndarray,
    val_mask: np.ndarray,
    test_mask: np.ndarray,
) -> Dataset:
    """The training set; overlapping splits, an empty train split and an
    unlabeled train vertex are parse errors."""
    num_classes = int(labels.max()) + 1
    try:
        return Dataset(features, labels, train_mask, val_mask, test_mask, num_classes)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
