"""On-disk formats: line-expansion dumps, features, labels, splits, and
key = value config files."""
from __future__ import annotations

import dataclasses
import json
from collections.abc import Sequence

import numpy as np

from .expansions import LineExpansion, size_formulas
from .hypergraph import Hypergraph, ParseError, _read_header
from .learn import Dataset, TrainConfig
from .reconstruction import UnlabeledGraph, back_project_labeled


def _render_dump(
    num_nodes: int, edges: Sequence[tuple], labels: Sequence[tuple[int, int]] | None = None
) -> str:
    """Dump format: "<n> <m>"; one "<v> <e>" line per node from ``labels``
    ("? ?" when None); one "<i> <j>" line per edge, indexing the node lines
    as listed (from 0). Each edge is an (i, j, ...) tuple."""
    out = [f"{num_nodes} {len(edges)}"]
    out += ["? ?"] * num_nodes if labels is None else [f"{v} {e}" for v, e in labels]
    out += [f"{edge[0]} {edge[1]}" for edge in edges]
    return "\n".join(out) + "\n"


def render_line_expansion(le: LineExpansion, labeled: bool = True) -> str:
    """The line expansion as a dump (see :func:`_render_dump`), its nodes
    labeled by their (vertex, hyperedge) pairs unless ``labeled`` is False."""
    return _render_dump(le.num_nodes, le.edges, le.nodes if labeled else None)


def _read_dump(text: str) -> tuple[int, np.ndarray | None, np.ndarray, np.ndarray]:
    """Read a dump (see :func:`_render_dump`) as integer arrays.

    Returns the node count, the labels as an (n, 2) array (None when the
    node lines are "? ?"), and the distinct edges (i < j), ascending, as the
    arrays of their i and of their j. Fields are base-10 int64. Whole-array
    checks decide whether any line is faulty; only then does
    :func:`_first_fault` walk the lines to find the first faulty one.
    """
    header, n, m, lines, numbers = _read_header(text, "<num_line_nodes> <num_edges>")
    if len(lines) != n + m:
        raise ParseError(f"expected {n} node lines and {m} edge lines", header)
    tokens = " ".join(lines).split()
    first = n if n > 0 and lines[0].split() == ["?", "?"] else 0  # the first line of integers
    fields = list(map(len, map(str.split, lines)))
    clean = fields.count(2) == len(lines) and tokens.count("?") == 2 * first
    if clean:
        try:
            values = np.array(tokens[2 * first:], dtype=np.int64)
        except (ValueError, OverflowError):
            clean = False
    if clean:
        pairs = values.reshape(-1, 2)
        edges = pairs[n - first:]
        i, j = edges.T
        clean = values.min(initial=0) >= 0 and edges.max(initial=-1) < n and not (i == j).any()
    if not clean:
        raise _first_fault(lines, numbers, n)
    keys = np.sort(np.minimum(i, j) * n + np.maximum(i, j))
    distinct = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    lo, hi = np.divmod(keys[distinct], max(n, 1))
    return n, None if first else pairs[:n], lo, hi


def _first_fault(lines: list[str], numbers: Sequence[int], n: int) -> ParseError:
    """The error for the first faulty line of a dump body whose first ``n``
    lines are node lines, with the first of that line's faults in this
    order: field count, then "?", then integer, then range. Node lines must
    be all "? ?" or all "<v> <e>", as the first one sets."""
    unlabeled = False
    for k, (line, line_no) in enumerate(zip(lines, numbers)):
        toks = line.split()
        if len(toks) != 2:
            return ParseError(f"{'node' if k < n else 'edge'} line must have two fields", line_no)
        if k < n:
            if k == 0:
                unlabeled = toks == ["?", "?"]
            if (toks != ["?", "?"]) if unlabeled else ("?" in toks):
                return ParseError("node lines must be all '? ?' or all '<v> <e>'", line_no)
            if unlabeled:
                continue
        try:
            a, b = int(toks[0]), int(toks[1])
        except ValueError:
            return ParseError("non-integer field", line_no)
        if k >= n:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                return ParseError(f"bad edge ({a}, {b})", line_no)
        elif a < 0 or b < 0:
            return ParseError(f"negative label ({a}, {b})", line_no)
        elif max(a, b) >= 1 << 63:
            return ParseError(f"label ({a}, {b}) does not fit in int64", line_no)


def parse_line_expansion_dump(
    text: str,
) -> tuple[UnlabeledGraph, list[tuple[int, int]] | None]:
    """Read a dump; returns the topology and the labels (None if stripped)."""
    n, labels, lo, hi = _read_dump(text)
    graph = UnlabeledGraph(n, tuple(zip(lo.tolist(), hi.tolist())))
    return graph, None if labels is None else list(map(tuple, labels.tolist()))


def hypergraph_from_labeled_dump(text: str) -> Hypergraph:
    """The hypergraph whose incidence pairs are the dump's node labels."""
    _, labels, lo, hi = _read_dump(text)
    if labels is None:
        raise ParseError("dump is unlabeled", 1)
    return _hypergraph_from_label_arrays(labels, lo, hi)


def _hypergraph_from_label_arrays(
    labels: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> Hypergraph:
    """The hypergraph whose incidence pairs are ``labels``, the (n, 2) node
    labels of a read dump whose edge k joins nodes ``lo[k]`` and ``hi[k]``.

    Each edge must join two labels that share a vertex or a hyperedge, and
    the distinct edges must number ``size_formulas``: then they are exactly
    the line edges of the labels.
    """
    h = back_project_labeled(LineExpansion(tuple(map(tuple, labels.tolist())), 1.0, 1.0))
    v_of, e_of = labels.T
    unrelated = (v_of[lo] != v_of[hi]) & (e_of[lo] != e_of[hi])
    if unrelated.any():
        k = int(unrelated.argmax())
        (v, e), (u, f) = labels[lo[k]].tolist(), labels[hi[k]].tolist()
        raise ParseError(f"edge ({lo[k]}, {hi[k]}) joins labels ({v}, {e}) and ({u}, {f})"
                         ", which share neither vertex nor hyperedge")
    expected = size_formulas(h)[1]
    if len(lo) != expected:
        raise ParseError(f"{len(lo)} distinct edges, but the labels have {expected}")
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
    """Text lines "<vertex_id> <class_id>", both in 0..num_vertices-1 (there
    are no more classes than vertices); unlisted vertices get -1."""
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
            if not 0 <= c < num_vertices:
                raise ParseError(f"class id {c} out of range for {num_vertices} vertices", i)
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


def load_train_config(path: str) -> TrainConfig:
    """"key = value" lines; unknown keys, values of the wrong type and values
    that TrainConfig rejects are parse errors at the line that sets them."""
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
                parsed = value == "on"
            else:
                kind = _CONFIG_TYPES[key]
                try:
                    parsed = kind(value)
                except ValueError:
                    raise ParseError(f"{key} must be {kind.__name__}, got {value!r}", i) from None
            try:
                cfg = dataclasses.replace(cfg, **{key: parsed})
            except ValueError as exc:
                raise ParseError(str(exc), i) from None
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
