"""Hypergraph container, text format, degrees, random generation.

A hypergraph is stored as per-hyperedge sorted vertex tuples plus a derived
per-vertex list of incident hyperedges. Both directions always describe the
same incidence relation. Instances are immutable after construction.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
from operator import lt

import numpy as np
import scipy.sparse as sp


class HypergraphError(ValueError):
    """Invalid hypergraph data."""


class ParseError(HypergraphError):
    """Malformed input text; carries the offending line number, if any."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Hypergraph:
    """Immutable hypergraph with 0-based dense vertex/hyperedge ids.

    ``edges[e]`` holds the vertices of hyperedge ``e``; the constructor
    judges them by the member rule of :func:`_member_fault`. Empty hyperedges
    are representable, though every formula that divides by delta(e)
    rejects them; duplicates stay distinct.
    """

    num_vertices: int
    edges: tuple[tuple[int, ...], ...]
    _vertex_edges: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_vertices < 0:
            raise HypergraphError("negative vertex count")
        by_vertex: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for e, verts in enumerate(self.edges):
            if fault := _member_fault(verts, self.num_vertices):
                raise HypergraphError(f"hyperedge {e}: {fault}")
            for v in verts:
                by_vertex[v].append(e)
        object.__setattr__(self, "_vertex_edges", tuple(tuple(es) for es in by_vertex))

    @property
    def num_hyperedges(self) -> int:
        return len(self.edges)

    def vertex_edges(self, v: int) -> tuple[int, ...]:
        """Sorted hyperedge ids incident to vertex ``v``."""
        return self._vertex_edges[v]

    def pairs(self) -> list[tuple[int, int]]:
        """All incidence pairs (v, e), sorted by (v, e)."""
        return [(v, e) for v in range(self.num_vertices) for e in self._vertex_edges[v]]

    @property
    def num_pairs(self) -> int:
        return sum(map(len, self.edges))


def _member_fault(verts: Sequence[int], num_vertices: int) -> str | None:
    """The member rule of a hyperedge: its vertex ids are strictly ascending
    and lie in 0..num_vertices-1. None if ``verts`` keeps it, else its first
    fault in the order of ``verts``."""
    if not verts or all(map(lt, verts, verts[1:])) and 0 <= verts[0] and verts[-1] < num_vertices:
        return None
    for prev, v in zip((-1, *verts), verts):
        if not 0 <= v < num_vertices:
            return f"vertex id {v} out of range"
        if v <= prev:
            return f"duplicate vertex {v} within hyperedge" if v == prev else f"vertex {v} after {prev}"


@dataclass(frozen=True)
class DegreeVector:
    """Per-vertex d(v) or per-hyperedge delta(e) counts."""

    values: tuple[int, ...]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.int64)


def vertex_degrees(h: Hypergraph) -> DegreeVector:
    """d(v) = number of hyperedges containing v."""
    return DegreeVector(tuple(len(h.vertex_edges(v)) for v in range(h.num_vertices)))


def hyperedge_degrees(h: Hypergraph) -> DegreeVector:
    """delta(e) = number of vertices in hyperedge e."""
    return DegreeVector(tuple(len(e) for e in h.edges))


def incidence_matrix(h: Hypergraph) -> sp.csr_array:
    """|V| x |E| binary incidence matrix. Row v is ``h.vertex_edges(v)``, so
    the rows are read off the stored per-vertex lists, already sorted."""
    indptr = np.concatenate(([0], np.cumsum(vertex_degrees(h).as_array())))
    indices = np.fromiter(chain.from_iterable(h._vertex_edges), np.int64, h.num_pairs)
    return sp.csr_array(
        (np.ones(len(indices)), indices, indptr), shape=(h.num_vertices, h.num_hyperedges)
    )


_DIGITS = 19  # significant digits of the largest int64


def _int_fields(line: str) -> list[int]:
    """The whitespace-separated fields of ``line`` as integers, ValueError
    unless each is an optional "-" and ASCII digits: the one rule for every
    integer read from a file. Of ASCII fields ``int`` also takes "+", "_"."""
    fields = line.split()
    if "+" in line or "_" in line or not (line.isascii() or all(map(str.isascii, fields))):
        raise ValueError(f"not base-10 integer fields: {line!r}")
    short = len(line) <= _DIGITS or max(map(len, fields), default=0) <= _DIGITS
    return list(map(int if short else _int_field, fields))


def _int_setting(text: str) -> int:
    """``text`` as one integer setting: one field by the rule of
    :func:`_int_fields`, within int64. The ValueError says which it breaks."""
    try:
        (value,) = _int_fields(text)
    except ValueError:
        raise ValueError(f"must be int, got {text!r}") from None
    if not -(1 << 63) <= value < 1 << 63:
        raise ValueError("does not fit in int64")
    return value


def _int_field(field: str) -> int:
    """``int(field)``, its sign and leading zeros stripped first so that at
    most ``_DIGITS`` digits are converted: a field of more is a :class:`_Huge`."""
    sign, digits = ("-", field[1:]) if field[:1] == "-" else ("", field)
    digits = digits.lstrip("0") or digits[-1:]
    if len(digits) <= _DIGITS or not digits.isdigit():
        return int(sign + digits)
    huge = _Huge(sign + "1" + "0" * _DIGITS)
    huge.text = sign + digits
    return huge


class _Huge(int):
    """An integer of more than ``_DIGITS`` digits, never converted: it equals
    ±10**_DIGITS, the least magnitude it can have, beyond int64, so every
    range check judges it as it would its value, and it prints as written."""

    def __repr__(self) -> str:
        return self.text


def _read_header(text: str, fields: str) -> tuple[int, int, int, list[str], Sequence[int]]:
    """Split a text file into its content lines, skipping blank lines and
    ``#`` comments, and read the first as a header of two counts.

    Returns the header's line number, both counts, the remaining lines
    (stripped) and their line numbers. ``fields`` names the two counts in
    the error for a malformed header.
    """
    raw = text.splitlines()
    lines = [s for s in map(str.strip, raw) if s and s[0] != "#"]
    if len(lines) == len(raw):
        numbers: Sequence[int] = range(1, len(raw) + 1)
    else:
        numbers = [i for i, s in enumerate(map(str.strip, raw), start=1) if s and s[0] != "#"]
    if not lines:
        raise ParseError("missing header", 1)
    line_no = numbers[0]
    if len(lines[0].split()) != 2:
        raise ParseError(f"header must be '{fields}'", line_no)
    try:
        a, b = _int_fields(lines[0])
    except ValueError:
        raise ParseError("non-integer header", line_no) from None
    if a < 0 or b < 0:
        raise ParseError("negative counts in header", line_no)
    if max(a, b) >= 1 << 63:
        raise ParseError("header count does not fit in int64", line_no)
    return line_no, a, b, lines[1:], numbers[1:]


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the hypergraph text format.

    Line 1: ``<num_vertices> <num_hyperedges>``; then one line per hyperedge
    with its space-separated 0-based vertex ids. Blank lines and ``#``
    comments are ignored. LF or CRLF. :class:`Hypergraph` judges the sorted
    lines; only if it rejects them are they walked to name the first fault.
    """
    line_no, nv, ne, body, numbers = _read_header(text, "<num_vertices> <num_hyperedges>")
    if len(body) != ne:
        raise ParseError(
            f"expected {ne} hyperedge lines, found {len(body)}",
            numbers[-1] if body else line_no,
        )
    edges = []
    for line_no, line in zip(numbers, body):
        try:
            edges.append(tuple(sorted(_int_fields(line))))
        except ValueError:
            raise ParseError("non-integer vertex id", line_no) from None
    try:
        return Hypergraph(nv, tuple(edges))
    except HypergraphError:
        line_no, fault = next((k, f) for k, e in zip(numbers, edges) if (f := _member_fault(e, nv)))
        raise ParseError(fault, line_no) from None


def render_hypergraph(h: Hypergraph) -> str:
    """Serialize to the text format; inverse of :func:`parse_hypergraph`."""
    out = [f"{h.num_vertices} {h.num_hyperedges}"]
    for e, verts in enumerate(h.edges):
        if not verts:
            raise HypergraphError(f"hyperedge {e} is empty; the .hg format cannot hold it")
        out.append(" ".join(str(v) for v in verts))
    return "\n".join(out) + "\n"


# PRNG used for the whole artifact: NumPy's default_rng (PCG64), 64-bit seed.
def random_hypergraph(nv: int, ne: int, p: float, seed: int) -> Hypergraph:
    """Each (v, e) pair included independently with probability p.

    A hyperedge left empty is redrawn (up to 64 times), then assigned one
    uniform vertex, so delta(e) >= 1 always. Deterministic for a fixed seed.
    """
    if nv <= 0:
        raise HypergraphError("nv must be positive")
    if ne < 0:
        raise HypergraphError("ne must be nonnegative")
    if not 0 < p <= 1:
        raise HypergraphError("p must be in (0, 1]")
    rng = np.random.default_rng(seed)
    edges = []
    for _ in range(ne):
        verts: tuple[int, ...] = ()
        for _ in range(64):
            mask = rng.random(nv) < p
            if mask.any():
                verts = tuple(int(v) for v in np.flatnonzero(mask))
                break
        if not verts:
            verts = (int(rng.integers(nv)),)
        edges.append(verts)
    return Hypergraph(nv, tuple(edges))
