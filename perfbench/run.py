"""Benchmark of the linexp pipeline: build the line expansion, train a GCN on
it, and invert it back to a hypergraph.

    python3 perfbench/run.py --workload uniform-full --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A run is whole rounds of the workload's operations: at least one, and
another only while the last one would still end within ``--seconds``; a
round is never cut. A round is two passes of the same operations, each
opened by a set-up (``setup_s`` is their median). A metric's work is split
into pieces spread over the pass and averaged over the passes, and every
region is calibrated by a fixed reference task timed around it
(``Reference``), so a slow phase of the shared machine does not decide it.
The first pass checks the program's outputs and later passes must repeat
them. The last line of standard output is one JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics from spans with
``--trace 1``. See ``perfbench/README.md``.
"""
from __future__ import annotations

import os

# One thread for every BLAS/OpenMP pool, set before NumPy is imported.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import networkx as nx
import numpy as np
import scipy.sparse as sp

import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

REFERENCE_S = 0.035   # the reference task's time at calibration speed
CHANCE_MARGIN = 0.25  # test accuracy must beat 1/classes by this much
LOSS_DROP = 0.9       # last-epoch loss at most this share of the first

# Per workload: input shape, training settings, and the make-up of a round.
# A round is ``passes`` passes of the same operations. Every pass sets up
# once and splits the reconstruction, verification (and, on the corpus, the
# round trip) work into ``pieces`` that sit between the large operations, so
# each metric is sampled from the start of the round to its end. The large
# workloads train in the first pass only, as a second ``train()`` call would
# add 8-13 s to every run. Every run reports
# every end-to-end metric, so the two large workloads also reconstruct a side
# corpus of small connected instances and run a smaller verification.
WORKLOADS = {
    "uniform-full": dict(
        make=inputs.uniform_hypergraph, tag=inputs.UNIFORM_TAG, classes=4, dims=32,
        train=dict(epochs=20, lr=0.3, hidden=32, sampling=False),
        passes=2, pieces=3, side=1800, verify_trials=120,
    ),
    "skewed-sampled": dict(
        make=inputs.skewed_hypergraph, tag=inputs.SKEWED_TAG, classes=4, dims=32,
        train=dict(epochs=8, lr=0.3, hidden=32, sampling=True, delta_v=16, delta_e=16),
        passes=2, pieces=3, side=1800, verify_trials=120,
    ),
    "small-corpus": dict(
        connected=9000, disconnected=1000, train_instances=800, classes=4, dims=16,
        train=dict(epochs=12, lr=0.3, hidden=16, sampling=True, delta_v=4, delta_e=4),
        passes=2, pieces=4, verify_trials=240,
    ),
}

E2E_UNITS = {
    "setup_s": "s", "train_s": "s", "test_accuracy": "ratio", "roundtrip_s": "s",
    "reconstruct_per_s": "1/s", "verify_s": "s", "peak_rss_mb": "MB",
}

CHECKS = (
    "observation_identities", "size_formulas", "line_graph_equivalence",
    "labeled_round_trip", "unlabeled_round_trip",
)
# Per-layer time metrics: self time per pass, summed over these span names.
PER_LAYER_SELF = {
    "hypergraph.parse_s": ("hypergraph.parse_hypergraph",),
    "expansions.line_expand_s": ("expansions.line_expand",),
    "expansions.projections_s": ("expansions.projections",),
    "expansions.operator_s": ("expansions.renormalized_operator",),
    "learn.conv_forward.0_s": ("learn.conv_forward.0",),
    "learn.conv_forward.1_s": ("learn.conv_forward.1",),
    "learn.forward_s": ("learn.forward", "learn.feature_project", "learn.representation_project"),
    "learn.backward_s": ("learn.backward",),
    "learn.sampled_operator_s": ("learn.sampled_operator",),
    "formats.render_dump_s": ("formats.render_line_expansion",),
    "formats.labeled_dump_read_s": (
        "formats.hypergraph_from_labeled_dump", "formats.parse_line_expansion_dump",
        "formats.back_project_labeled_from_pairs",
    ),
    "reconstruction.strip_labels_s": ("reconstruction.strip_labels",),
    "reconstruction.back_project_labeled_s": ("reconstruction.back_project_labeled",),
    **{f"verify.{c}_s": (f"verify.check_{c}",) for c in CHECKS},
}
# Per-call latency percentiles, in ms.
PER_LAYER_LATENCY = {
    "reconstruction.krausz_ms_p50": ("reconstruction.krausz_reconstruct", 50),
    "reconstruction.krausz_ms_p99": ("reconstruction.krausz_reconstruct", 99),
    "reconstruction.isomorphic_ms_p50": ("reconstruction.hypergraph_isomorphic", 50),
    "unify.star_equivalence_ms_p50": ("unify.check_star_equivalence", 50),
    "unify.simple_graph_factor_ms_p50": ("unify.check_simple_graph_factor", 50),
}


def load_program():
    """Import ``linexp`` from this checkout's ``src/`` and nowhere else."""
    package = ROOT / "src" / "linexp"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {package}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import linexp
    import linexp.formats
    import linexp.verify

    if Path(linexp.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported linexp from {linexp.__file__}, not {package}")
    return linexp


class Reference:
    """A fixed task, independent of the program and of ``--seed``, timed
    before every timed region and once after the last: build 150,000 small
    tuples and hash them into a set, as ``line_expand`` and the dump reader
    do with the program's pairs and line edges. The machine's slow phases
    (neighbours on the shared host contending for the CPU and its caches)
    slow it as they slow the program, so each region is calibrated by the
    reference samples around it: reported seconds are seconds on a machine
    at the speed where the task takes ``REFERENCE_S``."""

    WINDOW = (3, 5)  # samples before and after a region's own sample

    def __init__(self):
        self.samples: list[float] = []

    def measure(self) -> int:
        """Time the task once; return the sample's index."""
        start = time.perf_counter()
        pairs = [(i, i + 1, 0) for i in range(150_000)]
        set(pairs)
        self.samples.append(time.perf_counter() - start)
        return len(self.samples) - 1

    def calibrate(self, seconds: float, index: int) -> float:
        """``seconds`` measured after sample ``index``, at calibration speed:
        scaled by the median of the samples from ``WINDOW[0]`` before it to
        ``WINDOW[1] - 1`` after it."""
        before, after = self.WINDOW
        window = self.samples[max(0, index - before) : index + after]
        return seconds * REFERENCE_S / statistics.median(window)


def chunks(items: list, n: int) -> list[list]:
    size = -(-len(items) // n)
    return [items[k * size : (k + 1) * size] for k in range(n)]


class Run:
    """One benchmark run: the program, the tracer, every timed region and
    the outcome of every check."""

    def __init__(self, lx, tracer, seed: int):
        self.lx = lx
        self.tracer = tracer
        self.seed = seed
        self.reference = Reference()
        self.setups: list[float] = []  # measured seconds of each set-up
        # One per timed region: (round, metric, piece, measured seconds,
        # operations, index of the reference sample taken just before).
        self.regions: list[tuple[int, str, int, float, float, int]] = []
        self.accuracies: list[float] = []
        self.num_rounds = 0
        self.passes = 1  # passes per round
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.facts: dict[str, object] = {}
        self.first: dict[tuple[str, int], object] = {}  # first pass's fingerprints
        self.failed_in: dict[int, int] = {}  # reconstruction piece -> failures

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def repeat_of(self, key: tuple[str, int], fingerprint) -> bool:
        """False the first time ``key`` is seen; afterwards, check that the
        repeated operation gave the first pass's result (compared by a
        compact ``fingerprint``), and return True."""
        if key not in self.first:
            self.first[key] = fingerprint
            return False
        self.check(fingerprint == self.first[key], f"{key[0]} piece {key[1]} gave another result")
        return True

    @contextlib.contextmanager
    def timed(self, stage: str, metric: str | None = None, piece: int = 0, operations: float = 1):
        """Time a region as one stage span, right after a reference sample,
        and record it for ``metric``'s ``piece``."""
        gc.collect()
        index = self.reference.measure()
        with self.tracer.stage(stage):
            start = time.perf_counter()
            yield
            elapsed = time.perf_counter() - start
        if metric == "setup_s":
            self.setups.append(elapsed)
        if metric is not None:
            self.regions.append((self.num_rounds, metric, piece, elapsed, operations, index))

    def rounds_loop(self, seconds: float, one_pass, passes: int) -> None:
        """Whole rounds of ``passes`` passes: at least one, and another only
        while a round as long as the last would end within ``seconds``."""
        self.passes = passes
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            for p in range(passes):
                one_pass(p)
            self.num_rounds += 1
            now = time.perf_counter()
            if now + (now - start) > deadline:
                self.reference.measure()  # the last region's window needs one after it
                return

    # -- stages shared by the workloads -----------------------------------

    def train(self, num_vertices: int, edges, planted: inputs.Planted, settings: dict):
        """One ``train()`` call. Every call of a run uses the same
        initialisation seed, so repeats do the same work and must report the
        same losses and accuracy."""
        lx = self.lx
        h = lx.Hypergraph(num_vertices, tuple(edges))
        ds = lx.Dataset(
            planted.features, planted.labels, planted.train_mask,
            planted.val_mask, planted.test_mask, planted.num_classes,
        )
        cfg = lx.TrainConfig(seed=1000 * self.seed, **settings)
        with self.timed("train", "train_s"):
            _model, report = lx.train(h, ds, cfg)
        self.attempted += 1
        self.accuracies.append(report.test_accuracy)
        if self.repeat_of(("train", 0), (tuple(report.losses), report.test_accuracy)):
            return
        losses = report.losses
        self.check(
            len(losses) == cfg.epochs and losses[-1] <= LOSS_DROP * losses[0],
            f"training loss did not fall: {losses[0]:.4f} -> {losses[-1]:.4f}",
        )
        floor = 1.0 / planted.num_classes + CHANCE_MARGIN
        self.check(
            report.test_accuracy >= floor,
            f"test accuracy {report.test_accuracy:.4f} below {floor:.2f}",
        )

    def reconstruct(self, piece: int, corpus, graphs, disconnected) -> None:
        """Structure-only reconstruction of each instance, timed as one
        region. The first pass judges every candidate by a networkx
        isomorphism test of the bipartite star graphs, and the program's own
        isomorphism test must agree with it; later passes must return the
        same candidates. A disconnected instance that no candidate matches
        counts as failed in every pass (the known fault); on a connected one
        it is a failed check."""
        lx = self.lx
        results = []
        with self.timed("reconstruct", "reconstruct_per_s", piece, len(graphs)):
            for g in graphs:
                try:
                    results.append(lx.krausz_reconstruct(g))
                except lx.NotALineExpansionError as err:
                    results.append(repr(err))
        self.attempted += len(graphs)
        if self.repeat_of(("reconstruct", piece), hash(tuple(results))):
            self.failed += self.failed_in[piece]
            return
        failed = 0
        with self.tracer.stage("reconstruct_check"):
            for (nv, edges), result, apart in zip(corpus, results, disconnected):
                h = lx.Hypergraph(nv, tuple(edges))
                if isinstance(result, str):
                    self.check(False, f"{h}: krausz_reconstruct raised {result}")
                    continue
                star = _star_graph(h)
                oracle = [_star_isomorphic(h, star, c) for c in result.candidates]
                program = [lx.hypergraph_isomorphic(h, c) for c in result.candidates]
                self.check(
                    oracle == program,
                    f"{h}: hypergraph_isomorphic says {program}, the oracle {oracle}",
                )
                if not any(oracle):
                    if apart:
                        failed += 1
                    else:
                        self.check(False, f"{h}: no candidate is isomorphic to the input")
        self.failed_in[piece] = failed
        self.failed += failed

    def verify(self, piece: int, trials: int) -> None:
        """``run_verification`` on ``trials`` instances; piece ``k`` draws
        from its own seed, the same in every pass."""
        seed = 1_000_000 * self.seed + piece * trials
        with self.timed("verify", "verify_s", piece):
            results = self.lx.verify.run_verification(trials, seed, reconstruct=True)
        self.attempted += 1
        if self.repeat_of(("verify", piece), tuple(results)):
            return
        for r in results:
            self.check(r.passed, f"verify seed {seed}: {r}")
        covered = [r for r in results if r.detail == f"{trials} instance(s)"]
        self.check(len(covered) == 4, f"verify seed {seed} covered fewer than {trials} instances")


def _star_graph(h) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(h.num_vertices), side=0)
    g.add_nodes_from(range(h.num_vertices, h.num_vertices + h.num_hyperedges), side=1)
    g.add_edges_from((v, h.num_vertices + e) for e, vs in enumerate(h.edges) for v in vs)
    return g


def _star_isomorphic(a, a_star: nx.Graph, b) -> bool:
    """Oracle: hypergraphs are isomorphic iff their star graphs are, with
    vertices matched to vertices and hyperedges to hyperedges."""
    if (a.num_vertices, a.num_hyperedges) != (b.num_vertices, b.num_hyperedges):
        return False
    return nx.is_isomorphic(
        a_star, _star_graph(b), node_match=lambda x, y: x["side"] == y["side"]
    )


def settle() -> None:
    """Move every object alive now (modules, the warm-up's leftovers, the
    run's inputs) out of the collector's reach: they live to the end of the
    run, and without this every collection inside a timed region, and the
    ``gc.collect()`` before it, would walk the benchmark's own inputs."""
    gc.collect()
    gc.freeze()


def warm_up(run: Run) -> None:
    """Run every stage once on tiny inputs, untimed and untraced, so lazy
    imports and first-call costs land outside the timed regions."""
    lx = run.lx
    nv, edges = inputs.side_corpus(0, 1)[0]
    h = lx.Hypergraph(nv, tuple(edges))
    le = lx.line_expand(h)
    lx.formats.hypergraph_from_labeled_dump(lx.formats.render_line_expansion(le))
    for c in lx.krausz_reconstruct(lx.strip_labels(le)).candidates:
        _star_isomorphic(h, _star_graph(h), c)
        lx.hypergraph_isomorphic(h, c)
    lx.verify.run_verification(3, 0, reconstruct=True)
    planted = inputs.planted_labels(0, 0, nv, 2, 2, train=0.5, val=0.0)
    ds = lx.Dataset(planted.features, planted.labels, planted.train_mask,
                    planted.val_mask, planted.test_mask, 2)
    for sampling in (False, True):
        lx.train(h, ds, lx.TrainConfig(epochs=1, sampling=sampling))


def run_large(run: Run, name: str, seconds: float) -> None:
    """uniform-full and skewed-sampled: one large hypergraph. A pass sets
    up, trains (the first pass only) and round-trips the dump; before,
    between and after these it reconstructs a piece of the side corpus and
    verifies a piece of the trials."""
    lx, spec = run.lx, WORKLOADS[name]
    planted = inputs.planted_labels(
        run.seed, spec["tag"], inputs.LARGE_VERTICES, spec["classes"], spec["dims"]
    )
    nv, edges = spec["make"](run.seed, planted.labels)
    text = inputs.render(nv, edges)
    pairs, line_edges = inputs.line_sizes(nv, edges)
    run.facts.update(pairs=pairs, line_edges=line_edges)
    side = chunks(inputs.side_corpus(run.seed, spec["side"]), spec["pieces"])
    side_graphs = [
        [lx.strip_labels(lx.line_expand(lx.Hypergraph(n, tuple(e)))) for n, e in chunk]
        for chunk in side
    ]
    trials = spec["verify_trials"] // spec["pieces"]
    state = {}
    settle()

    def setup() -> None:
        state.clear()  # release the previous set-up first
        with run.timed("setup", "setup_s"):
            h = lx.parse_hypergraph(text)
            le = lx.line_expand(h)
            p = lx.projections(h)
            op = lx.renormalized_operator(le)
        if len(run.setups) == 1:  # the later set-ups repeat the same work
            check_large_setup(run, nv, edges, h, le, p, op)
        state["le"] = le

    def roundtrip() -> None:
        with run.timed("roundtrip", "roundtrip_s"):
            dump = lx.formats.render_line_expansion(state["le"])
            back = lx.formats.hypergraph_from_labeled_dump(dump)
        run.attempted += 1
        run.check(
            back.num_vertices == nv and back.edges == tuple(edges),
            "dump round trip changed the hypergraph",
        )

    def piece(k: int) -> None:
        run.reconstruct(k, side[k], side_graphs[k], [False] * len(side[k]))
        run.verify(k, trials)

    def one_pass(p: int) -> None:
        setup()
        piece(0)
        if p == 0:
            run.train(nv, edges, planted, spec["train"])
        piece(1)
        roundtrip()
        for k in range(2, spec["pieces"]):
            piece(k)

    run.rounds_loop(seconds, one_pass, spec["passes"])


def check_large_setup(run: Run, nv, edges, h, le, p, op) -> None:
    """Counts, operator and projection identities, computed apart from the
    program from the generated incidences."""
    pairs, line_edges = run.facts["pairs"], run.facts["line_edges"]
    run.check(h.num_vertices == nv and h.edges == tuple(edges), "parse changed the input")
    run.check(
        (le.num_nodes, le.num_edges) == (pairs, line_edges),
        f"line expansion has {(le.num_nodes, le.num_edges)}, expected {(pairs, line_edges)}",
    )
    v, e = inputs.incidence_arrays(edges)
    run.check(
        np.array_equal(np.asarray(le.nodes, dtype=np.int64), np.stack([v, e], axis=1)),
        "line nodes are not the incidence pairs in (vertex, hyperedge) order",
    )
    d = np.bincount(v, minlength=nv).astype(np.float64)
    delta = np.bincount(e, minlength=len(edges)).astype(np.float64)
    sqrt_degree = np.sqrt(op.w_e * d[v] + op.w_v * delta[e])
    m = op.matrix
    asym = abs(m - m.T).max()
    run.check(asym <= 1e-12, f"operator not symmetric: {asym:.3e}")
    fixed = np.abs(m @ sqrt_degree - sqrt_degree).max()
    run.check(fixed <= 1e-10, f"op . sqrt(D) != sqrt(D): {fixed:.3e}")
    covered = np.flatnonzero(d > 0)
    gram = sp.csr_array(p.p_v_back @ p.p_v)[covered][:, covered]
    ident = abs(gram - sp.identity(len(covered), format="csr")).max()
    run.check(ident <= 1e-12, f"P_v' P_v != I on covered vertices: {ident:.3e}")


def run_small(run: Run, seconds: float) -> None:
    """small-corpus: many small hypergraphs, a fixed share disconnected.
    A pass sets up all of them, then round-trips, reconstructs and verifies
    the corpus piece by piece, and trains once on a packed hypergraph
    after piece 1."""
    lx, spec = run.lx, WORKLOADS["small-corpus"]
    corpus = inputs.small_corpus(run.seed, spec["connected"], spec["disconnected"])
    texts = [inputs.render(nv, edges) for nv, edges in corpus]
    sizes = np.array([inputs.line_sizes(nv, edges) for nv, edges in corpus])
    run.facts.update(pairs=int(sizes[:, 0].sum()), line_edges=int(sizes[:, 1].sum()))
    train_nv, train_edges = inputs.disjoint_union(corpus[: spec["train_instances"]])
    planted = inputs.planted_labels(
        run.seed, inputs.CORPUS_TAG, train_nv, spec["classes"], spec["dims"]
    )
    parts = chunks(list(range(len(corpus))), spec["pieces"])
    trials = spec["verify_trials"] // spec["pieces"]
    state = {}
    settle()

    def setup() -> None:
        state.clear()
        with run.timed("setup", "setup_s"):
            hs = [lx.parse_hypergraph(t) for t in texts]
            les = [lx.line_expand(h) for h in hs]
            graphs = [lx.strip_labels(le) for le in les]
        if len(run.setups) == 1:  # the later set-ups repeat the same work
            built = np.array([(le.num_nodes, len(g.edges)) for le, g in zip(les, graphs)])
            run.check(
                np.array_equal(built, sizes), "line expansion sizes differ from the formula"
            )
            run.check(
                all(h.num_vertices == n and h.edges == tuple(e) for h, (n, e) in zip(hs, corpus)),
                "parse changed an input",
            )
        state.update(hs=hs, les=les, graphs=graphs)

    def piece(k: int) -> None:
        ids = parts[k]
        les = [state["les"][i] for i in ids]
        with run.timed("roundtrip", "roundtrip_s", k, len(ids) / len(corpus)):
            backs = [
                lx.formats.hypergraph_from_labeled_dump(lx.formats.render_line_expansion(le))
                for le in les
            ]
        run.attempted += len(ids)
        run.check(backs == [state["hs"][i] for i in ids], "dump round trip changed an instance")
        run.reconstruct(
            k,
            [corpus[i] for i in ids],
            [state["graphs"][i] for i in ids],
            [i >= spec["connected"] for i in ids],
        )
        run.verify(k, trials)

    def one_pass(p: int) -> None:
        setup()
        for k in range(spec["pieces"]):
            piece(k)
            if k == 1:
                run.train(train_nv, train_edges, planted, spec["train"])

    run.rounds_loop(seconds, one_pass, spec["passes"])


def end_to_end(run: Run) -> dict:
    """Calibrated times, medians over rounds. Per round, from each piece's
    mean over the passes: seconds per train call, seconds per round trip of
    the whole input, instances reconstructed per second, and the seconds of
    one pass's verification. ``setup_s`` is the median of every set-up."""
    calibrated = [
        (rnd, metric, piece, run.reference.calibrate(seconds, index), operations)
        for rnd, metric, piece, seconds, operations, index in run.regions
    ]
    per_round: dict[str, list[tuple[float, float]]] = {}
    for rnd in range(run.num_rounds):
        pieces: dict[tuple[str, int], list[float]] = {}
        ops: dict[tuple[str, int], float] = {}
        for r, metric, piece, seconds, operations in calibrated:
            if r == rnd and metric != "setup_s":
                pieces.setdefault((metric, piece), []).append(seconds)
                ops[metric, piece] = operations
        totals: dict[str, list[float]] = {}
        for key, seconds in pieces.items():
            acc = totals.setdefault(key[0], [0.0, 0.0])
            acc[0] += statistics.fmean(seconds)
            acc[1] += ops[key]
        for metric, (seconds, operations) in totals.items():
            per_round.setdefault(metric, []).append((seconds, operations))

    def median_of(metric, value):
        return statistics.median(value(s, n) for s, n in per_round[metric])

    values = {
        "setup_s": statistics.median(s for _, m, _, s, _ in calibrated if m == "setup_s"),
        "train_s": median_of("train_s", lambda s, n: s / n),
        "test_accuracy": statistics.fmean(run.accuracies),
        "roundtrip_s": median_of("roundtrip_s", lambda s, n: s / n),
        "reconstruct_per_s": median_of("reconstruct_per_s", lambda s, n: n / s),
        "verify_s": median_of("verify_s", lambda s, n: s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}


def per_layer(run: Run) -> dict:
    s = tracing.Summary.of(run.tracer.spans, len(run.setups), run.num_rounds)
    out = {k: (s.self_time(*names), "s") for k, names in PER_LAYER_SELF.items()}
    for k, (name, q) in PER_LAYER_LATENCY.items():
        out[k] = (s.latency_ms(name, q), "ms")
    operator_nnz = s.mean_count("expansions.renormalized_operator", stage="train")
    sampled_nnz = s.mean_count("learn.sampled_operator")
    out.update({
        "hypergraph.pairs": (s.count("setup", "hypergraph.parse_hypergraph"), "count"),
        "expansions.line_edges": (s.count("setup", "expansions.line_expand"), "count"),
        "expansions.operator_nnz": (operator_nnz, "count"),
        "learn.sampled_nnz": (sampled_nnz, "count"),
        "learn.sampled_share": (sampled_nnz / operator_nnz, "ratio"),
        "formats.dump_bytes": (
            s.count("roundtrip", "formats.render_line_expansion") / run.passes, "count"
        ),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    lx = load_program()
    run = Run(lx, tracing.NullTracer(), args.seed)
    warm_up(run)
    if args.trace:
        run.tracer = tracing.Tracer()
        run.tracer.install()
    if args.workload == "small-corpus":
        run_small(run, args.seconds)
    else:
        run_large(run, args.workload, args.seconds)

    e2e = end_to_end(run)
    metrics = per_layer(run) if args.trace else e2e
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace} "
        f"setups {len(run.setups)} rounds {run.num_rounds} passes {run.passes} "
        f"pairs {run.facts['pairs']} line_edges {run.facts['line_edges']}"
    )
    ref = run.reference.samples
    quarter = max(1, len(ref) // 4)
    print(
        f"reference_s median {statistics.median(ref):.5f} over {len(ref)} samples "
        f"(first quarter {statistics.median(ref[:quarter]):.5f}, "
        f"last quarter {statistics.median(ref[-quarter:]):.5f})"
    )
    measured: dict[str, list[float]] = {}
    for _, metric, _, seconds, _, _ in run.regions:
        measured.setdefault(metric, []).append(seconds)
    for metric, seconds in measured.items():
        print(f"  {metric} measured seconds per region: " + " ".join(f"{x:.4f}" for x in seconds))
    for k, m in e2e.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        for k, m in metrics.items():
            print(f"  {k} = {m['value']:.6g} {m['unit']}")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        run.tracer.write(path)
        print(f"  {len(run.tracer.spans)} spans written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
