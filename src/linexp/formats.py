"""On-disk formats: line-expansion dumps, features, labels, splits, and
key = value config files."""
from __future__ import annotations

import dataclasses
import json
import re
import typing
from collections.abc import Sequence

import numpy as np

from .expansions import LineExpansion, size_formulas
from .hypergraph import Hypergraph, ParseError, _DIGITS, _int_field, _int_fields, _int_setting, _read_header
from .learn import Dataset, TrainConfig
from .reconstruction import UnlabeledGraph, _hypergraph_from_pairs


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


_HEADER = re.compile(r"([0-9]{1,18}) ([0-9]{1,18})\n")  # the writer's header; counts < 10**18
_UNLABELED = b"? ?\n"


def _read_dump(text: str) -> tuple[int, np.ndarray | None, np.ndarray, np.ndarray]:
    """Read a dump (see :func:`_render_dump`) as integer arrays.

    Returns the node count, the labels as an (n, 2) array (None when the
    node lines are "? ?"), and the distinct edges (i < j), ascending, as the
    arrays of their i and of their j. Fields are base-10 int64: an optional
    "-" and ASCII digits. Text in the writer's form is read by
    :func:`_read_body` as it is. Any other text (comments, blank lines,
    CRLF, tabs, runs of spaces) is split into lines once, each line's
    fields are joined by one space, and the result is read the same way;
    only if that fails too does :func:`_first_fault` walk the lines to name
    the first faulty one.
    """
    header = _HEADER.match(text)
    if header:
        n, m = int(header[1]), int(header[2])
        read = _read_body(n, m, text[header.end():])
        if read is not None:
            return read
    header_no, n, m, lines, numbers = _read_header(text, "<num_line_nodes> <num_edges>")
    if len(lines) != n + m:
        raise ParseError(f"expected {n} node lines and {m} edge lines", header_no)
    read = _read_body(n, m, "".join(" ".join(line.split()) + "\n" for line in lines))
    if read is None:
        raise _first_fault(lines, numbers, n)
    return read


def _read_body(
    n: int, m: int, body: str
) -> tuple[int, np.ndarray | None, np.ndarray, np.ndarray] | None:
    """:func:`_read_dump`'s result for the ``n`` node lines and ``m`` edge
    lines of ``body`` in the writer's form, or None if they are not in it
    or break a rule of the format.

    The writer's form is checked on the bytes: every line ends in "\n";
    the node lines are all "? ?" or none is; every other line is two
    fields with one space between; a field is an optional "-" and digits.
    Only then are the integers converted, once, in C. A field of
    ``_DIGITS`` characters or more is judged by :func:`_int_field`, as
    ``np.fromstring`` clamps what does not fit in int64.
    """
    if not body.isascii():
        return None
    raw = body.encode("ascii")
    if raw.count(b"\n") != n + m or raw and raw[-1] != ord("\n"):
        return None
    first = n if n and raw.startswith(_UNLABELED) else 0  # the first line of integers
    if first and not raw.startswith(_UNLABELED * n):
        return None
    ints = raw[len(_UNLABELED) * first:]
    rows = n - first + m
    a = np.frombuffer(ints, dtype=np.uint8)
    if a.max(initial=0) > ord("9"):
        return None
    ends = np.flatnonzero(a < ord("0"))  # field ends, signs and any other low byte
    if len(ends) != 2 * rows:
        signs = a[ends] == ord("-")
        # a sign opens a field (a[-1] is the last line end) and a digit follows it
        before, after = a[ends[signs] - 1], a[ends[signs] + 1]
        if not (((before == ord(" ")) | (before == ord("\n"))) & (after >= ord("0"))).all():
            return None
        ends = ends[~signs]
    if a[ends].tobytes() != b" \n" * rows:
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    width = ends - starts
    if width.min(initial=1) < 1:
        return None
    values = np.fromstring(ints, dtype=np.int64, sep=" ")
    for k in np.flatnonzero(width >= _DIGITS).tolist():
        if not -(1 << 63) <= _int_field(ints[starts[k]:ends[k]].decode()) < 1 << 63:
            return None
    pairs = values.reshape(rows, 2)
    edges = pairs[n - first:]
    i, j = edges.T
    if values.min(initial=0) < 0 or edges.max(initial=-1) >= n or (i == j).any():
        return None
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
            a, b = _int_fields(line)
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
    nv, ne = (labels.max(axis=0, initial=-1) + 1).tolist()
    h = _hypergraph_from_pairs(nv, ne, labels.tolist())
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
                v, c = _int_fields(line)
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


def load_train_config(path: str) -> TrainConfig:
    """"key = value" lines, one per :class:`TrainConfig` field, read by its
    type: an int by :func:`_int_setting`, a bool as on/off. Unknown keys,
    values of the wrong type and values that TrainConfig rejects are parse
    errors at the line that sets them."""
    kinds = typing.get_type_hints(TrainConfig)
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
            kind = kinds.get(key)
            if kind is None:
                raise ParseError(f"unknown config key {key!r}", i)
            if kind is bool:
                if value not in ("on", "off"):
                    raise ParseError(f"{key} must be on or off", i)
                parsed = value == "on"
            else:
                try:
                    parsed = _int_setting(value) if kind is int else kind(value)
                except ValueError as exc:
                    why = exc if kind is int else f"must be {kind.__name__}, got {value!r}"
                    raise ParseError(f"{key} {why}", i) from None
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
