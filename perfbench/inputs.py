"""Seeded input generators for the benchmark.

Everything here uses NumPy's PCG64 generator directly and never the
program's own ``random_hypergraph``, so a change to the program cannot change
the inputs. A hypergraph is a pair ``(num_vertices, edges)`` where ``edges``
is a list of sorted vertex tuples; the benchmark renders it to the program's
text format itself.

Every input has no empty hyperedge and no isolated vertex: the labeled dump
carries no vertex count, so an isolated last vertex could not survive the
dump round trip, and back-projection is only defined on covered vertices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Streams are keyed by (seed, workload tag) so the workloads never share draws.
UNIFORM_TAG, SKEWED_TAG, CORPUS_TAG, SIDE_TAG = 1, 2, 3, 4

# The disconnected block of the small corpus is drawn from this fixed stream,
# independent of --seed, so the reconstructions it makes fail (see
# CHANGES.md) are the same instances in every run.
DISCONNECTED_SEED = 2005_04843

LARGE_VERTICES = 5000  # vertex count of both large workloads


@dataclass
class Planted:
    """Vertex features carrying a planted class signal, and the splits."""

    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    num_classes: int


def render(num_vertices: int, edges) -> str:
    """The program's hypergraph text format, written independently of it."""
    lines = [f"{num_vertices} {len(edges)}"]
    lines += [" ".join(map(str, verts)) for verts in edges]
    return "\n".join(lines) + "\n"


def _cover_isolated(rng: np.random.Generator, num_vertices: int, members: list[set]):
    """Put every vertex no hyperedge drew into one uniformly chosen hyperedge."""
    covered = np.zeros(num_vertices, dtype=bool)
    for verts in members:
        covered[list(verts)] = True
    for v in np.flatnonzero(~covered):
        members[int(rng.integers(len(members)))].add(int(v))
    return [tuple(sorted(int(v) for v in verts)) for verts in members]


def uniform_hypergraph(seed: int, labels: np.ndarray, num_hyperedges=2000, p=0.005):
    """Each (vertex, hyperedge) pair drawn independently with probability p,
    whatever the labels (they only give the vertex count); a hyperedge that
    drew no vertex is drawn again."""
    rng = np.random.default_rng((seed, UNIFORM_TAG))
    num_vertices = len(labels)
    members = []
    for _ in range(num_hyperedges):
        k = 0
        while k == 0:
            k = int(rng.binomial(num_vertices, p))
        members.append(set(rng.choice(num_vertices, size=k, replace=False).tolist()))
    return num_vertices, _cover_isolated(rng, num_vertices, members)


def skewed_hypergraph(
    seed: int, labels: np.ndarray, homophily=0.7, num_small=1300, small_range=(2, 60),
    large_sizes=(300, 400, 500, 550, 650),
):
    """Heavy-tailed hyperedge sizes: ``num_small`` sizes from a discrete power
    law (exponent 1.5) on ``small_range`` plus one hyperedge of each of
    ``large_sizes``. The large sizes are fixed because they alone set most of
    the line-edge count. Each hyperedge picks a class; a Binomial(size,
    homophily) share of its members is drawn from that class of ``labels``,
    the rest uniformly, all without replacement."""
    rng = np.random.default_rng((seed, SKEWED_TAG))
    num_vertices = len(labels)
    ks = np.arange(small_range[0], small_range[1] + 1)
    weights = ks ** -1.5
    sizes = rng.choice(ks, size=num_small, p=weights / weights.sum()).tolist()
    sizes += list(large_sizes)
    by_class = [np.flatnonzero(labels == c) for c in range(int(labels.max()) + 1)]
    members = []
    for k in sizes:
        own = by_class[int(rng.integers(len(by_class)))]
        chosen = set(rng.choice(own, size=int(rng.binomial(k, homophily)), replace=False).tolist())
        while len(chosen) < k:
            chosen.add(int(rng.integers(num_vertices)))
        members.append(chosen)
    return num_vertices, _cover_isolated(rng, num_vertices, members)


def planted_labels(
    seed: int, tag: int, num_vertices: int, num_classes: int, dims: int,
    separation: float = 8.0, noise: float = 0.7, train=0.2, val=0.1,
) -> Planted:
    """Uniform labels; features are the label's class mean plus Gaussian
    noise. The class means are orthogonal, ``separation`` long, in a random
    orientation, so every seed plants a signal of the same strength. The
    vertices, shuffled, split train/val/test."""
    rng = np.random.default_rng((seed, tag, 7))
    labels = rng.integers(num_classes, size=num_vertices)
    basis, _ = np.linalg.qr(rng.normal(size=(dims, num_classes)))
    means = separation * basis.T
    features = means[labels] + noise * rng.normal(size=(num_vertices, dims))
    order = rng.permutation(num_vertices)
    n_train, n_val = int(train * num_vertices), int(val * num_vertices)
    masks = [np.zeros(num_vertices, dtype=bool) for _ in range(3)]
    masks[0][order[:n_train]] = True
    masks[1][order[n_train : n_train + n_val]] = True
    masks[2][order[n_train + n_val :]] = True
    return Planted(features, labels, *masks, num_classes)


def connected_instance(rng: np.random.Generator, num_vertices: int, num_hyperedges: int, p: float):
    """A connected hypergraph: a random spanning tree of the bipartite
    vertex/hyperedge graph, plus every other pair with probability p."""
    verts = rng.permutation(num_vertices).tolist()
    hyps = rng.permutation(num_hyperedges).tolist()
    pairs = {(verts[0], hyps[0])}
    placed_v, placed_e = [verts[0]], [hyps[0]]
    rest = [(0, v) for v in verts[1:]] + [(1, e) for e in hyps[1:]]
    for k in rng.permutation(len(rest)).tolist():
        side, x = rest[k]
        if side == 0:
            pairs.add((x, placed_e[int(rng.integers(len(placed_e)))]))
            placed_v.append(x)
        else:
            pairs.add((placed_v[int(rng.integers(len(placed_v)))], x))
            placed_e.append(x)
    extra = np.argwhere(rng.random((num_vertices, num_hyperedges)) < p)
    pairs.update((int(v), int(e)) for v, e in extra)
    members = [[] for _ in range(num_hyperedges)]
    for v, e in sorted(pairs):
        members[e].append(v)
    return num_vertices, [tuple(m) for m in members]


def _small_connected(rng, max_vertices=10, max_hyperedges=8, max_pairs=64):
    while True:
        nv = int(rng.integers(2, max_vertices + 1))
        ne = int(rng.integers(1, max_hyperedges + 1))
        inst = connected_instance(rng, nv, ne, float(rng.uniform(0.05, 0.4)))
        if sum(map(len, inst[1])) <= max_pairs:
            return inst


def _small_disconnected(rng):
    """Disjoint union of two or three connected components, at most 10
    vertices and 8 hyperedges in all."""
    while True:
        parts = int(rng.integers(2, 4))
        comps = [
            connected_instance(
                rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)),
                float(rng.uniform(0.1, 0.5)),
            )
            for _ in range(parts)
        ]
        nv = sum(c[0] for c in comps)
        if nv <= 10 and sum(len(c[1]) for c in comps) <= 8:
            break
    edges, offset = [], 0
    for c_nv, c_edges in comps:
        edges += [tuple(v + offset for v in verts) for verts in c_edges]
        offset += c_nv
    return nv, edges


def small_corpus(seed: int, num_connected: int, num_disconnected: int):
    """``num_connected`` seeded connected instances followed by the fixed
    block of ``num_disconnected`` disconnected ones."""
    rng = np.random.default_rng((seed, CORPUS_TAG))
    corpus = [_small_connected(rng) for _ in range(num_connected)]
    fixed = np.random.default_rng(DISCONNECTED_SEED)
    corpus += [_small_disconnected(fixed) for _ in range(num_disconnected)]
    return corpus


def side_corpus(seed: int, count: int):
    """Connected small instances for the reconstruction stage of the large
    workloads."""
    rng = np.random.default_rng((seed, SIDE_TAG))
    return [_small_connected(rng) for _ in range(count)]


def disjoint_union(instances):
    """Pack instances into one hypergraph with shifted vertex ids."""
    edges, offset = [], 0
    for nv, inst_edges in instances:
        edges += [tuple(v + offset for v in verts) for verts in inst_edges]
        offset += nv
    return offset, edges


def incidence_arrays(edges):
    """(vertex ids, hyperedge ids) of every pair, sorted by (vertex, hyperedge):
    the program's line-node order."""
    v = np.fromiter((x for verts in edges for x in verts), dtype=np.int64)
    e = np.repeat(np.arange(len(edges)), [len(verts) for verts in edges])
    order = np.lexsort((e, v))
    return v[order], e[order]


def line_sizes(num_vertices: int, edges) -> tuple[int, int]:
    """(nnz(H), sum C(d,2) + sum C(delta,2)) from the incidences."""
    v, e = incidence_arrays(edges)
    d = np.bincount(v, minlength=num_vertices)
    delta = np.bincount(e, minlength=len(edges))
    return len(v), int((d * (d - 1) // 2).sum() + (delta * (delta - 1) // 2).sum())
