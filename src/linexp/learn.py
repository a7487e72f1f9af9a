"""GCN training on the line expansion.

Pipeline: scatter vertex features to line nodes with P_v, run K convolution
layers with the renormalized operator, fuse back to vertices with P_v', and
train against masked cross-entropy with full-batch gradient descent. All
gradients are exact reverse-mode; arithmetic is float64 throughout.

The full operator is applied in its factored form (see
:class:`FactoredOperator`), the sampled one as a CSR matrix; layers only use
``op @ h`` and ``op.T @ g``. Each layer propagates at min(d_in, d_out)
columns: a layer that narrows (d_out < d_in) multiplies by theta before the
operator, as in Kipf & Welling's GCN, the others after it. Layer 0's operand
(``op @ P_v x``, or ``P_v x`` when it narrows) holds no parameter, so
:func:`train` builds it once per operator, as SGC does (Wu et al., ICML
2019), and every forward on that operator reuses it. ``TrainReport`` records
each epoch's loss, validation accuracy, gradient norm, seconds and sampled
nnz.

With sampling on, each epoch draws every line node's neighbor sample at once,
over the line nodes grouped by vertex and by hyperedge: a node whose group
has at most delta other members takes them all, and every other node takes
delta of them in delta vectorized steps of Floyd's algorithm. An epoch so
makes at most delta_v + delta_e calls to the generator, whatever the size of
the line expansion.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .expansions import (
    FactoredOperator,
    LineExpansion,
    NormalizedOperator,
    ProjectionSet,
    _symmetric_normalize,
    line_expand,
    projections,
    renormalized_operator,
)
from .hypergraph import Hypergraph, ParseError, _int_fields


ACTIVATIONS = ("relu", "leaky-relu")
# TrainConfig fields that must be at least 1, and those that must be finite
# and nonnegative.
_AT_LEAST_ONE = ("layers", "hidden", "epochs", "delta_v", "delta_e")
_NONNEGATIVE = ("w_v", "w_e", "lr", "weight_decay", "leaky_slope", "seed", "patience")


class TrainingError(RuntimeError):
    pass


class NumericError(TrainingError):
    """Non-finite values appeared; carries the layer index."""

    def __init__(self, layer: int):
        super().__init__(f"non-finite values in layer {layer}")
        self.layer = layer


@dataclass
class Dataset:
    """Vertex features, labels (-1 where absent), and disjoint split masks."""

    features: np.ndarray       # |V| x d_i
    labels: np.ndarray         # |V| ints, -1 = unlabeled
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    num_classes: int

    def __post_init__(self):
        n = self.features.shape[0]
        for m in (self.train_mask, self.val_mask, self.test_mask):
            if m.shape != (n,):
                raise ValueError("mask shape mismatch")
        if self.labels.shape != (n,):
            raise ValueError("labels shape mismatch")
        if (
            (self.train_mask & self.val_mask).any()
            or (self.train_mask & self.test_mask).any()
            or (self.val_mask & self.test_mask).any()
        ):
            raise ValueError("the train, val and test splits must be disjoint")
        if not self.train_mask.any():
            raise ValueError("the train split is empty")
        if (self.labels[self.train_mask] < 0).any():
            raise ValueError("every train vertex needs a label")
        if self.features.ndim != 2 or self.features.shape[1] < 1:
            raise ValueError("features must be |V| x d_i with d_i >= 1")
        if self.num_classes < 1:
            raise ValueError("num_classes must be at least 1")
        if ((self.labels < -1) | (self.labels >= self.num_classes)).any():
            raise ValueError(f"every label must be -1 or in 0..{self.num_classes - 1}")


@dataclass
class SamplingConfig:
    """Neighbor-sampling thresholds: delta_v caps vertex-similar neighbor
    sets (same vertex), delta_e caps hyperedge-similar sets (same edge).

    ``seed`` is not read: the generator passed to :func:`sampled_operator`
    and :func:`sample_neighbors` (in training, the trainer's own, seeded by
    ``TrainConfig.seed``) drives every draw.
    """

    delta_v: int
    delta_e: int
    seed: int = 0

    def __post_init__(self):
        if self.delta_v < 1 or self.delta_e < 1:
            raise ValueError("sampling thresholds must be >= 1")


@dataclass
class SampledNeighborhood:
    """Per-kind neighbor sample with the |N|/threshold unbiasedness scale."""

    vertex_similar: np.ndarray
    vertex_scale: float
    hyperedge_similar: np.ndarray
    hyperedge_scale: float


@dataclass
class TrainConfig:
    w_v: float = 1.0
    w_e: float = 1.0
    layers: int = 2
    hidden: int = 16
    lr: float = 0.01
    epochs: int = 200
    weight_decay: float = 0.0
    delta_v: int = 16
    delta_e: int = 16
    seed: int = 0
    activation: str = "relu"   # one of ACTIVATIONS
    leaky_slope: float = 0.01
    sampling: bool = False
    early_stopping: bool = False
    patience: int = 20

    def __post_init__(self):
        for key in _AT_LEAST_ONE:
            value = getattr(self, key)
            if value < 1:
                raise ValueError(f"{key} must be at least 1, got {value}")
        for key in _NONNEGATIVE:
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got '{value}'")
            if value < 0:
                raise ValueError(f"{key} must not be negative, got {value!r}")
        if self.w_v == 0 and self.w_e == 0:
            raise ValueError("w_v and w_e must not both be zero")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {ACTIVATIONS}, got {self.activation!r}"
            )


@dataclass
class Model:
    thetas: list[np.ndarray]
    w_v: float
    w_e: float
    activation: str
    leaky_slope: float = 0.01

    def copy(self) -> "Model":
        return replace(self, thetas=[t.copy() for t in self.thetas])


@dataclass
class TrainReport:
    """Per-epoch records (one entry per epoch run) and the final result.

    ``grad_norms`` is the Euclidean norm of each epoch's gradient over all
    layers, sqrt(sum_k |dL/dtheta_k|^2); ``epoch_seconds`` times each
    epoch's training step and validation forward; ``sampled_arcs`` is the
    sampled operator's nnz per epoch, 0 on full-batch epochs.
    """

    losses: list[float]
    val_accuracies: list[float]
    grad_norms: list[float]
    epoch_seconds: list[float]
    sampled_arcs: list[int]
    test_accuracy: float
    wall_time_s: float
    seed: int
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _buffer(workspace: dict | None, key: tuple[str, int], shape: tuple[int, int]) -> np.ndarray:
    """The array ``workspace[key]``, allocated on first use; a new array when
    there is no workspace."""
    if workspace is None:
        return np.empty(shape)
    out = workspace.get(key)
    if out is None or out.shape != shape:
        out = workspace[key] = np.empty(shape)
    return out


def _activate(s: np.ndarray, kind: str, slope: float, out: np.ndarray) -> np.ndarray:
    """The activation of ``s``, written into ``out``."""
    if kind == "relu":
        return np.maximum(s, 0.0, out=out)
    if kind == "leaky-relu":
        np.multiply(s, slope, out=out)
        np.copyto(out, s, where=s > 0)
        return out
    raise ValueError(f"unknown activation {kind!r}")


def _activate_grad(dh: np.ndarray, s: np.ndarray, kind: str, slope: float) -> np.ndarray:
    """dh times the activation's derivative at ``s``, written into ``dh``."""
    if kind == "relu":
        return np.multiply(dh, s > 0, out=dh)
    if kind == "leaky-relu":
        return np.multiply(dh, np.where(s > 0, 1.0, slope), out=dh)
    raise ValueError(f"unknown activation {kind!r}")


def init_params(
    d_in: int, hidden: int, d_out: int, layers: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Glorot-uniform layer parameters chaining d_in -> hidden... -> d_out."""
    sizes = [d_in] + [hidden] * (layers - 1) + [d_out]
    thetas = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        thetas.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
    return thetas


def feature_project(p: ProjectionSet, x: np.ndarray) -> np.ndarray:
    """h0 = P_v x: each line node (v, e) copies the feature row of v."""
    if x.shape[0] != p.p_v.shape[1]:
        raise ValueError("feature rows must match vertex count")
    return p.p_v @ x


def representation_project(p: ProjectionSet, h: np.ndarray) -> np.ndarray:
    """y = P_v' h: convex per-vertex aggregation of line-node rows."""
    if h.shape[0] != p.p_v_back.shape[1]:
        raise ValueError("row count must match line-node count")
    return p.p_v_back @ h


def _theta_first(theta: np.ndarray) -> bool:
    """Whether the layer narrows, and so propagates after applying theta."""
    return theta.shape[1] < theta.shape[0]


def _operand(
    op: sp.csr_array | FactoredOperator, theta: np.ndarray, h: np.ndarray
) -> np.ndarray:
    """The array a layer multiplies by theta: h if the layer narrows (it
    computes op @ (h @ theta)), op @ h otherwise (it computes
    (op @ h) @ theta)."""
    return h if _theta_first(theta) else op @ h


def conv_forward(
    op: sp.csr_array | FactoredOperator,
    theta: np.ndarray,
    h: np.ndarray,
    activation: str,
    leaky_slope: float,
    apply_activation: bool,
    layer_index: int = 0,
    propagated: bool = False,
    workspace: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One convolution layer, s = op @ h @ theta. Returns (output, cached,
    preactivation), where cached is the layer's operand (see
    :func:`_operand`). With ``propagated``, ``h`` is that operand already.

    The product with theta and the activation are written into the arrays
    that ``workspace`` keeps for layer ``layer_index`` (see :func:`train`),
    so the returned output and preactivation may be those arrays. Without a
    workspace every array is new."""
    m = h if propagated else _operand(op, theta, h)
    shape = (m.shape[0], theta.shape[1])
    product = np.matmul(m, theta, out=_buffer(workspace, ("product", layer_index), shape))
    s = op @ product if _theta_first(theta) else product
    out = s
    if apply_activation:
        out = _activate(
            s, activation, leaky_slope, _buffer(workspace, ("activation", layer_index), shape)
        )
    if not np.isfinite(out).all():
        raise NumericError(layer_index)
    return out, m, s


def forward(
    model: Model,
    op: sp.csr_array | FactoredOperator,
    p: ProjectionSet,
    x: np.ndarray,
    operand: np.ndarray | None = None,
    workspace: dict | None = None,
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Full pipeline; caches conv_forward's (cached, preactivation) per
    layer. ``operand``, if given, is layer 0's operand on ``op`` for these
    features, ``_operand(op, model.thetas[0], feature_project(p, x))``.

    With a ``workspace`` every layer writes into its arrays, so the caches
    hold them until the next forward on that workspace overwrites them.
    Without one, each call's caches are new arrays."""
    h = feature_project(p, x) if operand is None else operand
    caches = []
    last = len(model.thetas) - 1
    for k, theta in enumerate(model.thetas):
        h, m, s = conv_forward(
            op, theta, h, model.activation, model.leaky_slope, k != last, k,
            k == 0 and operand is not None, workspace,
        )
        caches.append((m, s))
    return representation_project(p, h), caches


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """Mean negative log-likelihood over masked vertices."""
    if not mask.any():
        raise ValueError("empty mask")
    idx = np.flatnonzero(mask)
    probs = softmax(logits[idx])
    picked = probs[np.arange(len(idx)), labels[idx]]
    return float(-np.log(picked).mean())


def backward(
    model: Model,
    op: sp.csr_array | FactoredOperator,
    p: ProjectionSet,
    logits: np.ndarray,
    caches: list[tuple[np.ndarray, np.ndarray]],
    labels: np.ndarray,
    mask: np.ndarray,
    weight_decay: float = 0.0,
    workspace: dict | None = None,
) -> list[np.ndarray]:
    """Exact gradients of the masked cross-entropy wrt every theta.

    ``caches`` is read, never written. The activation's derivative is
    applied in place to the gradient wrt each activated layer's output, and
    the gradient wrt a narrowing layer's input is written into the array
    ``workspace`` keeps for it (see :func:`train`); without a workspace that
    array is new."""
    idx = np.flatnonzero(mask)
    d_logits = np.zeros_like(logits)
    probs = softmax(logits[idx])
    probs[np.arange(len(idx)), labels[idx]] -= 1.0
    d_logits[idx] = probs / len(idx)

    dh = p.p_v_back.T @ d_logits
    grads: list[np.ndarray] = [None] * len(model.thetas)  # type: ignore[list-item]
    last = len(model.thetas) - 1
    for k in range(last, -1, -1):
        m, s = caches[k]
        theta = model.thetas[k]
        ds = dh if k == last else _activate_grad(dh, s, model.activation, model.leaky_slope)
        if _theta_first(theta):
            # s = op @ (h @ theta): one op.T at d_out serves both gradients.
            g = op.T @ ds
            grads[k] = m.T @ g + weight_decay * theta
            if k > 0:
                dh = np.matmul(g, theta.T, out=_buffer(workspace, ("dh", k), (len(g), len(theta))))
        else:
            grads[k] = m.T @ ds + weight_decay * theta
            if k > 0:
                dh = op.T @ (ds @ theta.T)
    return grads


def accuracy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        return 0.0
    return float((logits[idx].argmax(axis=1) == labels[idx]).mean())


def _draw_arcs(
    of: np.ndarray, rows: np.ndarray, threshold: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample each of ``rows``' neighbors within its group of line nodes.

    ``of[i]`` is the group of line node i (its vertex or its hyperedge);
    the neighbors N of a row are the other members of its group. A row with
    |N| <= ``threshold`` takes N whole with scale 1. Every other row takes a
    uniform sample of ``threshold`` distinct members of N with scale
    |N|/threshold, drawn for all such rows at once by Floyd's algorithm
    (Bentley & Floyd, CACM 1987): step s draws r in [0, t] with
    t = |N| - threshold + s, and takes t instead if r was already picked.
    That is ``threshold`` calls to ``rng``, however many rows there are.
    Returns the arcs as (row, column, scale) arrays.
    """
    # Group members sit contiguously in ``order``, each group ascending.
    order = np.argsort(of, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(len(of))
    counts = np.bincount(of)
    first = (np.cumsum(counts) - counts)[of[rows]]
    size = counts[of[rows]] - 1          # |N| of each row
    own = position[rows] - first         # the row's own offset in its group

    whole = size <= threshold
    # Small groups: every offset in the group but the row's own.
    n_whole = size[whole] + 1
    starts = np.repeat(np.cumsum(n_whole) - n_whole, n_whole)
    offset = np.arange(starts.size) - starts
    keep = offset != np.repeat(own[whole], n_whole)
    small_rows = np.repeat(rows[whole], n_whole)[keep]
    small_cols = order[np.repeat(first[whole], n_whole)[keep] + offset[keep]]

    # Large groups: threshold distinct offsets in [0, |N|) per row, one
    # vectorized Floyd step per column of ``picks``.
    cut = ~whole
    m = size[cut]
    picks = np.empty((m.size, threshold), dtype=np.int64)
    # With no row cut the steps draw nothing and leave rng as it is: skip them.
    for s in range(threshold if m.size else 0):
        t = m - threshold + s
        r = rng.integers(0, t + 1)
        seen = (picks[:, :s] == r[:, None]).any(axis=1)
        picks[:, s] = np.where(seen, t, r)
    # Offsets at or past the row's own skip it.
    picks += picks >= own[cut, None]
    large_cols = order[(first[cut, None] + picks).ravel()]
    large_rows = np.repeat(rows[cut], threshold)

    return (
        np.concatenate([small_rows, large_rows]),
        np.concatenate([small_cols, large_cols]),
        np.concatenate(
            [np.ones(small_rows.size), np.repeat(m / threshold, threshold)]
        ),
    )


def sample_neighbors(
    le: LineExpansion,
    node: int,
    cfg: SamplingConfig,
    rng: np.random.Generator,
) -> SampledNeighborhood:
    """Uniform without-replacement sample of each neighbor set of one line
    node: the row ``node`` of the draw that :func:`sampled_operator` makes
    for every row.

    Sets at or under their threshold are returned whole with scale 1;
    larger sets are cut to the threshold with scale |N|/threshold, making
    the scaled sampled sum an unbiased estimator of the full sum. Each
    sample is sorted.
    """
    if not 0 <= node < le.num_nodes:
        raise IndexError(f"line node {node} out of range")
    rows = np.array([node])
    picked = []
    for of, threshold in zip(le.pair_arrays, (cfg.delta_v, cfg.delta_e)):
        _, cols, scale = _draw_arcs(of, rows, threshold, rng)
        picked += [np.sort(cols), float(scale[0]) if scale.size else 1.0]
    return SampledNeighborhood(*picked)


def sampled_operator(
    le: LineExpansion, cfg: SamplingConfig, rng: np.random.Generator
) -> NormalizedOperator:
    """Renormalized operator over a per-node sampled neighborhood.

    Every line node's vertex-similar and hyperedge-similar neighbors are
    drawn at once by :func:`_draw_arcs`: in ``delta_v`` and ``delta_e``
    vectorized Floyd steps, not one draw per node. Vertex-similar entries
    carry w_e, hyperedge-similar entries w_v, each scaled by |N|/threshold
    when cut; a kind whose weight is zero is not drawn. Self-loops weigh
    w_v + w_e, and each row is normalized by the sampled row sums.
    Row-wise sampling can make the matrix asymmetric before normalization.
    """
    v_of, e_of = le.pair_arrays
    n = le.num_nodes
    s = le.w_v + le.w_e
    nodes = np.arange(n)
    rows, cols, data = [nodes], [nodes], [np.full(n, s)]
    for of, threshold, weight in (
        (v_of, cfg.delta_v, le.w_e), (e_of, cfg.delta_e, le.w_v)
    ):
        if weight:
            r, c, scale = _draw_arcs(of, nodes, threshold, rng)
            rows.append(r)
            cols.append(c)
            data.append(weight * scale)
    a_tilde = sp.csr_array(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    a_tilde.sort_indices()
    return NormalizedOperator(_symmetric_normalize(a_tilde))


def train(
    h: Hypergraph, dataset: Dataset, config: TrainConfig
) -> tuple[Model, TrainReport]:
    """Full-batch gradient descent; deterministic given the seed.

    Returns the best-validation model when a validation mask exists,
    otherwise the final model. Early stopping only ends the loop sooner.

    The call owns one workspace: the line-node-wide arrays that an epoch
    writes, each layer's product with theta and activation and backward's
    gradient wrt a narrowing layer's input. The first epoch allocates them
    and every later one writes into them in place; they are released when
    the call returns.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    le = line_expand(h, config.w_v, config.w_e)
    p = projections(h)
    full_op = renormalized_operator(le)
    x = np.asarray(dataset.features, dtype=np.float64)

    thetas = init_params(
        x.shape[1], config.hidden, dataset.num_classes, config.layers, rng
    )
    model = Model(thetas, config.w_v, config.w_e, config.activation, config.leaky_slope)
    # Layer 0's operand holds no parameter: build it once per operator.
    h0 = feature_project(p, x)
    full_operand = _operand(full_op, thetas[0], h0)
    workspace: dict = {}

    scfg = SamplingConfig(config.delta_v, config.delta_e, config.seed)
    losses: list[float] = []
    val_accs: list[float] = []
    grad_norms: list[float] = []
    epoch_seconds: list[float] = []
    sampled_arcs: list[int] = []
    best_val = -1.0
    best_model = model.copy()
    since_best = 0
    op = full_op
    for epoch in range(config.epochs):
        epoch_start = time.perf_counter()
        # With sampling off, the previous epoch's validation forward already
        # holds the full-operator logits and caches of the current model.
        if config.sampling:
            op = sampled_operator(le, scfg, rng).matrix
            logits, caches = forward(model, op, p, x, _operand(op, thetas[0], h0), workspace)
        elif epoch == 0:
            logits, caches = forward(model, op, p, x, full_operand, workspace)
        sampled_arcs.append(op.nnz if config.sampling else 0)
        loss = cross_entropy(logits, dataset.labels, dataset.train_mask)
        if config.weight_decay:
            loss += 0.5 * config.weight_decay * sum(
                float((t**2).sum()) for t in model.thetas
            )
        if not np.isfinite(loss):
            raise TrainingError(f"training diverged at epoch {epoch}")
        grads = backward(
            model,
            op,
            p,
            logits,
            caches,
            dataset.labels,
            dataset.train_mask,
            config.weight_decay,
            workspace,
        )
        for t, g in zip(model.thetas, grads):
            t -= config.lr * g
        losses.append(loss)
        grad_norms.append(math.sqrt(sum(float((g**2).sum()) for g in grads)))

        logits, caches = forward(model, full_op, p, x, full_operand, workspace)
        val = accuracy(logits, dataset.labels, dataset.val_mask)
        val_accs.append(val)
        epoch_seconds.append(time.perf_counter() - epoch_start)
        if dataset.val_mask.any():
            if val > best_val:
                best_val = val
                best_model = model.copy()
                since_best = 0
            else:
                since_best += 1
                if config.early_stopping and since_best > config.patience:
                    break

    final = best_model if dataset.val_mask.any() else model
    final_logits, _ = forward(final, full_op, p, x, full_operand, workspace)
    test_acc = accuracy(final_logits, dataset.labels, dataset.test_mask)
    report = TrainReport(
        losses=losses,
        val_accuracies=val_accs,
        grad_norms=grad_norms,
        epoch_seconds=epoch_seconds,
        sampled_arcs=sampled_arcs,
        test_accuracy=test_acc,
        wall_time_s=time.perf_counter() - start,
        seed=config.seed,
        config=asdict(config),
    )
    return final, report


def separable_toy(
    vertices_per_class: int = 10, seed: int = 0
) -> tuple[Hypergraph, Dataset]:
    """Two disjoint hyperedge clusters whose features equal their labels;
    linearly separable, so training should reach perfect test accuracy."""
    n = 2 * vertices_per_class
    left = tuple(range(vertices_per_class))
    right = tuple(range(vertices_per_class, n))
    edges = (left, left[: max(2, vertices_per_class // 2)],
             right, right[: max(2, vertices_per_class // 2)])
    h = Hypergraph(n, edges)
    labels = np.array([0] * vertices_per_class + [1] * vertices_per_class)
    feats = np.zeros((n, 2))
    feats[np.arange(n), labels] = 1.0
    rng = np.random.default_rng(seed)
    train_mask = np.zeros(n, dtype=bool)
    for cls_verts in (left, right):
        pick = rng.choice(cls_verts, size=max(2, vertices_per_class // 3), replace=False)
        train_mask[pick] = True
    test_mask = ~train_mask
    val_mask = np.zeros(n, dtype=bool)
    ds = Dataset(feats, labels, train_mask, val_mask, test_mask, 2)
    return h, ds


def value_hypergraph(table: np.ndarray) -> Hypergraph:
    """One hyperedge per (column, value) group of a categorical table: all
    rows sharing a value of a categorical feature form a hyperedge."""
    n, cols = table.shape
    edges = []
    for c in range(cols):
        values: dict = {}
        for r in range(n):
            values.setdefault(table[r, c], []).append(r)
        for val in sorted(values, key=str):
            edges.append(tuple(sorted(values[val])))
    return Hypergraph(n, tuple(edges))


def load_zoo(path: str, seed: int = 0) -> tuple[Hypergraph, Dataset]:
    """UCI Zoo: name, 16 categorical attributes, class in 1..7. Hyperedges
    group animals sharing an attribute value; split is 66 train / 35 test.
    A row that is not a name and 17 int64 integers, or whose class is below
    1, is a ``ParseError``."""
    rows = []
    with open(path, encoding="utf-8") as f:
        for i, line in enumerate(f, start=1):
            if not line.strip():
                continue
            fields = line.strip().split(",")[1:]
            try:
                row = _int_fields(" ".join(fields))
            except ValueError:
                row = []
            if not (len(row) == len(fields) == 17 and -(1 << 63) <= min(row) <= max(row) < 1 << 63):
                raise ParseError("zoo row must be a name and 17 int64 integers", i)
            if row[16] < 1:
                raise ParseError(f"zoo class must be at least 1, got {row[16]}", i)
            rows.append(row)
    table = np.asarray(rows, dtype=np.int64)
    h = value_hypergraph(table[:, :16])
    n = len(rows)
    labels_arr = table[:, 16] - 1
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    train_mask = np.zeros(n, dtype=bool)
    train_mask[perm[:66]] = True
    test_mask = ~train_mask
    val_mask = np.zeros(n, dtype=bool)
    ds = Dataset(
        table[:, :16].astype(np.float64),
        labels_arr,
        train_mask,
        val_mask,
        test_mask,
        int(labels_arr.max()) + 1,
    )
    return h, ds
