import inspect
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import linexp as lx
from linexp.expansions import (
    line_expand,
    projections,
    renormalized_operator,
)
from linexp.learn import (
    Model,
    _draw_arcs,
    NumericError,
    accuracy,
    backward,
    conv_forward,
    cross_entropy,
    feature_project,
    forward,
    init_params,
    representation_project,
    sample_neighbors,
    sampled_operator,
    separable_toy,
    softmax,
    value_hypergraph,
)

from test_expansions import messy_hypergraphs


def recorded_problem():
    """24 vertices, 3 noisy classes, train/val/test split 10/6/8."""
    h = lx.random_hypergraph(24, 14, 0.15, seed=5)
    rng = np.random.default_rng(11)
    labels = rng.integers(3, size=24)
    feats = np.eye(3)[labels] + 0.4 * rng.normal(size=(24, 3))
    order = rng.permutation(24)
    masks = [np.zeros(24, dtype=bool) for _ in range(3)]
    masks[0][order[:10]] = True
    masks[1][order[10:16]] = True
    masks[2][order[16:]] = True
    return h, lx.Dataset(feats, labels, *masks, 3)


def recorded_config(sampling):
    return lx.TrainConfig(epochs=40, lr=2.0, hidden=8, seed=0, sampling=sampling,
                          delta_v=2, delta_e=2, early_stopping=True, patience=5)


RECORDED_FULL = {
    "losses": [
        1.1023325975493203, 1.0680749563036567, 1.0379744693020405,
        1.0076640409322113, 0.9773435657326208, 0.9482691694798676,
        0.9231301296197894, 0.9015833949848794, 0.883190361074728,
        0.867611121187176, 0.8542119847379425, 0.8430378320803605,
        0.8339874470127917, 0.8261275065044584, 0.8194662043959271,
        0.8134525442112354, 0.807953097836237, 0.8027661309102188,
        0.7978212157438092, 0.7919027189615028, 0.7839560253979106,
        0.7764240069985037,
    ],
    "val_accuracies": [0, 0, 0, 0, 0, 1 / 6, 1 / 6, 1 / 3, 1 / 3, 1 / 3, 1 / 3,
                       1 / 3, 1 / 3, 1 / 2, 1 / 2, 2 / 3, 2 / 3, 2 / 3, 2 / 3,
                       2 / 3, 1 / 2, 1 / 2],
    "test_accuracy": 0.875,
}
RECORDED_SAMPLED = {
    "losses": [
        1.1078307807203982, 1.0613454321944502, 1.0476300440448432,
        0.978917324366137, 0.9710744708958995, 0.9603231682302296,
        0.9442145482221299, 0.9422726875297063, 0.8352553047187706,
        0.9129036300945478, 0.9101917419715415, 0.8898136202943322,
        0.8396081289270496, 0.8901079507509093, 0.8797152329053336,
        0.8931501746788395, 0.8093082272702248,
    ],
    "val_accuracies": [0, 0, 1 / 6, 1 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3,
                       1 / 2, 2 / 3, 2 / 3, 2 / 3, 2 / 3, 2 / 3, 2 / 3, 2 / 3],
    "test_accuracy": 0.75,
}


# recorded_config with hidden=2: layer 0 narrows its 3 features to 2
# columns, so it multiplies by theta before the operator.
RECORDED_NARROW_FULL = {
    "losses": [
        1.3539775814019428, 1.1776842011323774, 1.1157153828238093,
        1.0851742986719137, 1.0643222766131015, 1.0429563985338117,
        1.021794503354301,
    ],
    "val_accuracies": [1 / 2, 1 / 3, 0, 0, 0, 0, 0],
    "test_accuracy": 0.25,
}
RECORDED_NARROW_SAMPLED = {
    "losses": [
        1.3400008275197384, 1.1892664240171835, 1.1159388827135264,
        1.0892054348071731, 1.0670339862086557, 1.0544089422545007,
        1.02280501036934,
    ],
    "val_accuracies": [1 / 2, 1 / 3, 0, 0, 0, 0, 0],
    "test_accuracy": 0.25,
}


# recorded_config with a leaky ReLU of slope 0.2, recorded with every
# line-node-wide array allocated afresh in every epoch.
RECORDED_LEAKY_FULL = {
    "losses": [
        1.1123240430644146, 1.0674813548060116, 1.0312169929332837,
        0.9969356355692465, 0.9639342378811684, 0.9337278504737047,
        0.9078892037736083, 0.8866018578486834, 0.8696982262901785,
        0.8567562816792333, 0.8462703181089424, 0.8374855337552605,
        0.8297665366670698, 0.8228824409709642, 0.8165919912660536,
        0.8107344652908661, 0.8052269786476026, 0.800093249189181,
        0.7951352744168811, 0.7903096817548095,
    ],
    "grad_norms": [
        0.15541411635096095, 0.1376905092240603, 0.13188027354933496,
        0.12943095634709473, 0.1252313536563824, 0.1163119871614114,
        0.10602076698242723, 0.09484051361302706, 0.08263104917303055,
        0.07417981064819379, 0.06748266116367972, 0.06312697617029657,
        0.05941184693225133, 0.056656206793502785, 0.05453092211028921,
        0.05293610091862122, 0.05091860733759755, 0.04997684372313363,
        0.04928510647750132, 0.048929474938517716,
    ],
    "val_accuracies": [0, 0, 0, 0, 1 / 6, 1 / 6, 1 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3,
                       1 / 2, 1 / 2, 2 / 3, 2 / 3, 2 / 3, 2 / 3, 2 / 3, 2 / 3, 2 / 3],
    "test_accuracy": 0.875,
}
RECORDED_LEAKY_SAMPLED = {
    "losses": [
        1.119807128970391, 1.0572208775269336, 1.0408073296857763,
        0.9657899162844454, 0.9554458347110908, 0.9473739994087044,
        0.9339197674541664, 0.9274601190448555, 0.8132642100439833,
        0.9020593315194988, 0.9009077630800448, 0.8773354542641469,
        0.8275836887285442, 0.885428599401487, 0.8747032766407983,
        0.8928527512561834,
    ],
    "grad_norms": [
        0.16708219767460136, 0.15226520133927027, 0.13117782099380101,
        0.14660725279053402, 0.1495532144168892, 0.09838555164066567,
        0.08673237590268615, 0.09294673531281095, 0.13261366299235464,
        0.10149275880717311, 0.09948740789368042, 0.07631993352295209,
        0.07653937347919758, 0.06982698737041274, 0.07327398436581477,
        0.07748101604236972,
    ],
    "val_accuracies": [0, 0, 1 / 6, 1 / 2, 1 / 2, 1 / 3, 1 / 3, 1 / 3, 1 / 3, 2 / 3,
                       2 / 3, 2 / 3, 2 / 3, 2 / 3, 2 / 3, 2 / 3],
    "test_accuracy": 0.875,
}


def uncut_loop_operator(le):
    """The sampled operator as first written, one line node at a time, when
    no neighbor set exceeds its threshold: every set taken whole."""
    by_vertex, by_edge = le.groups
    n = le.num_nodes
    rows, cols, data = [], [], []
    for i, (v, e) in enumerate(le.nodes):
        for group, weight in ((by_vertex[v], le.w_e), (by_edge[e], le.w_v)):
            pick = [j for j in group if j != i]
            rows += [i] * len(pick)
            cols += pick
            data += [weight] * len(pick)
    s = le.w_v + le.w_e
    a_tilde = sp.csr_array(
        (np.asarray(data), (rows, cols)), shape=(n, n)
    ) + s * sp.identity(n, format="csr")
    rowsum = np.asarray(a_tilde.sum(axis=1)).ravel()
    d_inv_sqrt = sp.diags_array(1.0 / np.sqrt(rowsum), format="csr")
    return sp.csr_array(d_inv_sqrt @ a_tilde @ d_inv_sqrt)


class CountingGenerator:
    """A numpy Generator that counts the methods called on it."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        self.calls += 1
        return getattr(self.rng, name)


WEIGHTS = [(1.0, 1.0), (0.0, 1.0), (2.5, 0.0), (0.3, 1.7)]


def make_model(h, d_in, hidden, d_out, layers, seed=0, w_v=1.0, w_e=1.0):
    rng = np.random.default_rng(seed)
    thetas = init_params(d_in, hidden, d_out, layers, rng)
    return Model(thetas, w_v, w_e, "relu")


class TestProjectionsInPipeline:
    def test_feature_project_copies_vertex_rows(self, worked):
        p = projections(worked)
        x = np.arange(10, dtype=float).reshape(5, 2)
        h0 = feature_project(p, x)
        le = line_expand(worked)
        for i, (v, _e) in enumerate(le.nodes):
            assert np.array_equal(h0[i], x[v])

    def test_representation_project_is_convex(self, worked):
        p = projections(worked)
        h = np.ones((8, 3))
        y = representation_project(p, h)
        assert np.allclose(y, 1.0, atol=1e-12)

    def test_shape_mismatch_raises(self, worked):
        p = projections(worked)
        with pytest.raises(ValueError):
            feature_project(p, np.ones((4, 2)))
        with pytest.raises(ValueError):
            representation_project(p, np.ones((7, 2)))


class TestDataset:
    def test_overlapping_masks_rejected(self):
        n = 4
        m = np.zeros(n, dtype=bool)
        both = m.copy()
        both[0] = True
        with pytest.raises(ValueError):
            lx.Dataset(np.ones((n, 1)), np.zeros(n, dtype=int), both, both, m, 2)

    def test_unlabeled_train_vertex_rejected(self):
        n = 3
        train = np.array([True, False, False])
        zeros = np.zeros(n, dtype=bool)
        labels = np.array([-1, 0, 1])
        with pytest.raises(ValueError):
            lx.Dataset(np.ones((n, 1)), labels, train, zeros, zeros, 2)

    def test_empty_train_split_rejected(self):
        n = 3
        zeros = np.zeros(n, dtype=bool)
        with pytest.raises(ValueError, match="train split is empty"):
            lx.Dataset(np.ones((n, 1)), np.zeros(n, dtype=int), zeros, zeros,
                       np.ones(n, dtype=bool), 2)

    @pytest.mark.parametrize(
        "labels, num_classes, message",
        [
            ([0, 1], 2, "^labels shape mismatch$"),
            ([[0], [1], [0]], 2, "^labels shape mismatch$"),
            ([0, 2, -1], 2, r"^every label must be -1 or in 0\.\.1$"),
            ([0, 1, -2], 2, r"^every label must be -1 or in 0\.\.1$"),
            ([0, 0, -1], 0, "^num_classes must be at least 1$"),
        ],
        ids=["short", "two-dimensional", "train-label-too-large", "below-minus-one",
             "no-class"],
    )
    def test_labels_checked(self, labels, num_classes, message):
        train = np.array([True, True, False])
        zeros = np.zeros(3, dtype=bool)
        with pytest.raises(ValueError, match=message):
            lx.Dataset(np.ones((3, 1)), np.array(labels), train, zeros, zeros, num_classes)


class TestForwardBackward:
    def test_softmax_rows_sum_to_one_and_shift_safe(self):
        logits = np.array([[1000.0, 1001.0], [-5.0, 3.0]])
        s = softmax(logits)
        assert np.allclose(s.sum(axis=1), 1.0)
        assert np.isfinite(s).all()

    def test_cross_entropy_uniform(self):
        logits = np.zeros((4, 3))
        labels = np.array([0, 1, 2, 0])
        mask = np.ones(4, dtype=bool)
        assert cross_entropy(logits, labels, mask) == pytest.approx(np.log(3))

    def test_cross_entropy_empty_mask(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 2)), np.zeros(2, dtype=int),
                          np.zeros(2, dtype=bool))

    def test_non_finite_forward_raises_with_layer(self, worked):
        p = projections(worked)
        op = renormalized_operator(line_expand(worked)).matrix
        theta = np.full((2, 2), np.inf)
        with pytest.raises(NumericError) as exc:
            conv_forward(op, theta, np.ones((8, 2)), "relu", 0.01, True, 3)
        assert exc.value.layer == 3

    def test_gradient_check(self, worked):
        # exact reverse-mode vs central differences on a 2-layer model
        rng = np.random.default_rng(5)
        p = projections(worked)
        op = renormalized_operator(line_expand(worked)).matrix
        model = make_model(worked, 3, 4, 2, 2, seed=5)
        x = rng.normal(size=(5, 3))
        labels = np.array([0, 1, 0, 1, 0])
        mask = np.array([True, True, True, False, True])

        logits, caches = forward(model, op, p, x)
        grads = backward(model, op, p, logits, caches, labels, mask)

        eps = 1e-6
        worst = 0.0
        for k, theta in enumerate(model.thetas):
            it = np.nditer(theta, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = theta[ix]
                theta[ix] = orig + eps
                lp = cross_entropy(forward(model, op, p, x)[0], labels, mask)
                theta[ix] = orig - eps
                lm = cross_entropy(forward(model, op, p, x)[0], labels, mask)
                theta[ix] = orig
                num = (lp - lm) / (2 * eps)
                denom = max(abs(num), abs(grads[k][ix]), 1e-8)
                worst = max(worst, abs(num - grads[k][ix]) / denom)
        assert worst < 1e-5

    @pytest.mark.parametrize("operator", ["factored", "sampled"])
    def test_gradient_check_narrowing_and_widening_layers(self, worked, operator):
        # widths 6 -> 3 -> 5 -> 2: the narrowing layers apply theta before
        # the operator, the widening one after it. The sampled operator is
        # asymmetric, so a backward pass that drops op.T fails here.
        rng = np.random.default_rng(8)
        p = projections(worked)
        le = line_expand(worked)
        if operator == "factored":
            op = renormalized_operator(le)
        else:
            op = sampled_operator(le, lx.SamplingConfig(1, 1), rng).matrix
            assert abs(op - op.T).max() > 0.1
        thetas = [rng.uniform(-1, 1, size=shape) for shape in ((6, 3), (3, 5), (5, 2))]
        model = Model(thetas, 1.0, 1.0, "leaky-relu", 0.1)
        x = rng.normal(size=(5, 6))
        labels = np.array([0, 1, 0, 1, 1])
        mask = np.array([True, True, False, True, True])

        logits, caches = forward(model, op, p, x)
        grads = backward(model, op, p, logits, caches, labels, mask)

        eps = 1e-6
        worst = 0.0
        for k, theta in enumerate(model.thetas):
            for ix in np.ndindex(theta.shape):
                orig = theta[ix]
                theta[ix] = orig + eps
                lp = cross_entropy(forward(model, op, p, x)[0], labels, mask)
                theta[ix] = orig - eps
                lm = cross_entropy(forward(model, op, p, x)[0], labels, mask)
                theta[ix] = orig
                num = (lp - lm) / (2 * eps)
                denom = max(abs(num), abs(grads[k][ix]), 1e-8)
                worst = max(worst, abs(num - grads[k][ix]) / denom)
        assert worst < 1e-5

    def test_weight_decay_gradient(self, worked):
        p = projections(worked)
        op = renormalized_operator(line_expand(worked)).matrix
        model = make_model(worked, 2, 3, 2, 2, seed=1)
        x = np.random.default_rng(1).normal(size=(5, 2))
        labels = np.zeros(5, dtype=int)
        mask = np.ones(5, dtype=bool)
        logits, caches = forward(model, op, p, x)
        g0 = backward(model, op, p, logits, caches, labels, mask, 0.0)
        g1 = backward(model, op, p, logits, caches, labels, mask, 0.1)
        for a, b, t in zip(g0, g1, model.thetas):
            assert np.allclose(b - a, 0.1 * t, atol=1e-12)

    def deep_problem(self, activation):
        # Widths 3 -> 8 -> 8 -> 3: layers 0 and 1 propagate before theta,
        # layer 2 narrows, so backward keeps its input gradient.
        h, ds = recorded_problem()
        le = line_expand(h)
        model = make_model(h, 3, 8, 3, 3, seed=2)
        model.activation, model.leaky_slope = activation, 0.2
        return model, renormalized_operator(le), projections(h), ds

    def test_forward_without_workspace_returns_new_arrays(self):
        model, op, p, ds = self.deep_problem("relu")
        first = forward(model, op, p, ds.features)
        second = forward(model, op, p, ds.features)
        for a in chain([first[0]], *first[1]):
            for b in chain([second[0]], *second[1]):
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("activation", ["relu", "leaky-relu"])
    @pytest.mark.parametrize("workspace", [None, {}], ids=["new-arrays", "workspace"])
    def test_backward_leaves_caches_unchanged(self, activation, workspace):
        model, op, p, ds = self.deep_problem(activation)
        logits, caches = forward(model, op, p, ds.features)
        before = [(m.copy(), s.copy()) for m, s in caches]
        backward(model, op, p, logits, caches, ds.labels, ds.train_mask, 0.0, workspace)
        for (m, s), (m0, s0) in zip(caches, before):
            assert np.array_equal(m, m0) and np.array_equal(s, s0)

    def test_accuracy(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
        labels = np.array([0, 1, 1])
        assert accuracy(logits, labels, np.ones(3, dtype=bool)) == pytest.approx(2 / 3)
        assert accuracy(logits, labels, np.zeros(3, dtype=bool)) == 0.0


class TestSampling:
    def test_small_sets_returned_whole(self, worked):
        le = line_expand(worked)
        cfg = lx.SamplingConfig(delta_v=16, delta_e=16)
        rng = np.random.default_rng(0)
        s = sample_neighbors(le, 0, cfg, rng)
        assert s.vertex_scale == 1.0
        assert s.hyperedge_scale == 1.0
        # node 0 = (0, 0): vertex-similar (0,1); hyperedge-similar (1,0)
        assert list(s.vertex_similar) == [1]
        assert list(s.hyperedge_similar) == [2]

    def test_large_sets_cut_with_scale(self):
        h = lx.Hypergraph(21, (tuple(range(21)),))
        le = line_expand(h)
        cfg = lx.SamplingConfig(delta_v=16, delta_e=4)
        rng = np.random.default_rng(3)
        s = sample_neighbors(le, 0, cfg, rng)
        assert len(s.hyperedge_similar) == 4
        assert s.hyperedge_scale == pytest.approx(20 / 4)

    def test_unbiasedness(self):
        # scaled sampled sum estimates the full neighbor sum without bias
        h = lx.Hypergraph(21, (tuple(range(21)),))
        le = line_expand(h)
        cfg = lx.SamplingConfig(delta_v=16, delta_e=4)
        rng = np.random.default_rng(99)
        values = np.arange(le.num_nodes, dtype=float)
        full = values[1:].sum()
        draws = 10_000
        estimates = np.empty(draws)
        for t in range(draws):
            s = sample_neighbors(le, 0, cfg, rng)
            estimates[t] = s.hyperedge_scale * values[s.hyperedge_similar].sum()
        se = estimates.std(ddof=1) / np.sqrt(draws)
        assert abs(estimates.mean() - full) < 3 * se

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            lx.SamplingConfig(delta_v=0, delta_e=4)

    def test_node_out_of_range(self, worked):
        le = line_expand(worked)
        with pytest.raises(IndexError):
            sample_neighbors(le, 99, lx.SamplingConfig(4, 4),
                             np.random.default_rng(0))

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs(), st.integers(1, 4), st.integers(1, 4),
           st.sampled_from(WEIGHTS), st.integers(0, 2**32 - 1))
    def test_sampled_arcs(self, h, delta_v, delta_e, weights, seed):
        le = line_expand(h, *weights)
        n = le.num_nodes
        v_of, e_of = np.asarray(le.nodes).T
        rng = np.random.default_rng(seed)
        kinds = ((v_of, delta_v, le.w_e), (e_of, delta_e, le.w_v))
        for of, delta, _ in kinds:
            rows, cols, scale = _draw_arcs(of, np.arange(n), delta, rng)
            size = np.bincount(of)[of] - 1
            assert (of[rows] == of[cols]).all()
            assert (rows != cols).all()
            assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
            assert np.array_equal(
                np.bincount(rows, minlength=n), np.minimum(size, delta)
            )
            cut = size[rows] > delta
            assert np.array_equal(scale, np.where(cut, size[rows] / delta, 1.0))

        # The matrix: recover sI + A from D^{-1/2} (sI + A) D^{-1/2}, whose
        # diagonal is s / D.
        m = sampled_operator(le, lx.SamplingConfig(delta_v, delta_e), rng).matrix
        s = le.w_v + le.w_e
        deg = s / m.diagonal()
        a = m.tocoo()
        a_data = a.data * np.sqrt(deg[a.row] * deg[a.col])
        assert np.allclose(np.bincount(a.row, weights=a_data, minlength=n), deg,
                           rtol=1e-12, atol=0)
        off = a.row != a.col
        i, j, a_ij = a.row[off], a.col[off], a_data[off]
        same_v = v_of[i] == v_of[j]
        assert (same_v != (e_of[i] == e_of[j])).all()
        for (of, delta, weight), kind in zip(kinds, (same_v, ~same_v)):
            size = np.bincount(of)[of] - 1
            expected = np.minimum(size, delta) if weight else np.zeros(n, int)
            assert np.array_equal(np.bincount(i[kind], minlength=n), expected)
            cut = size[i[kind]] > delta
            assert np.allclose(
                a_ij[kind], weight * np.where(cut, size[i[kind]] / delta, 1.0),
                rtol=1e-12, atol=0,
            )

    def test_per_arc_inclusion_frequency(self):
        # 1,000 disjoint hyperedges of 21 vertices; line node i is vertex i.
        # Each call draws 4 of the 20 neighbors of every node, so 20 calls
        # give 20,000 draws for the node at each position in its hyperedge.
        groups, size, delta, calls = 1000, 21, 4, 20
        h = lx.Hypergraph(groups * size, tuple(
            tuple(range(g * size, (g + 1) * size)) for g in range(groups)
        ))
        le = line_expand(h)
        rng = np.random.default_rng(2024)
        counts = np.zeros((size, size))
        for _ in range(calls):
            m = sampled_operator(le, lx.SamplingConfig(1, delta), rng).matrix.tocoo()
            off = m.row != m.col
            np.add.at(counts, (m.row[off] % size, m.col[off] % size), 1)
        draws = groups * calls
        assert (counts.sum(axis=1) == delta * draws).all()
        assert (np.diag(counts) == 0).all()
        # The middle node skips itself in both directions.
        p = delta / (size - 1)
        se = np.sqrt(p * (1 - p) / draws)
        freq = np.delete(counts[size // 2], size // 2) / draws
        assert (np.abs(freq - p) < 3 * se).all()

    def test_generator_calls_do_not_grow_with_line_nodes(self):
        # groups of 10 vertices, each in 6 identical hyperedges: every
        # vertex-similar set (5) and hyperedge-similar set (9) is cut.
        calls = []
        for groups in (2, 200):
            edges = tuple(
                tuple(range(g * 10, g * 10 + 10)) for g in range(groups) for _ in range(6)
            )
            le = line_expand(lx.Hypergraph(groups * 10, edges))
            rng = CountingGenerator(7)
            sampled_operator(le, lx.SamplingConfig(2, 3), rng)
            calls.append(rng.calls)
        assert calls[0] == calls[1] <= 2 + 3

    @settings(max_examples=150, deadline=None)
    @given(messy_hypergraphs())
    def test_uncut_operator_matches_loop_and_full(self, h):
        for w_v, w_e in ((1.0, 1.0), (0.0, 1.0), (2.5, 0.0)):
            le = line_expand(h, w_v, w_e)
            by_vertex, by_edge = le.groups
            largest = max(len(g) for g in by_vertex + by_edge) - 1
            cfg = lx.SamplingConfig(max(largest, 1), max(largest, 1))
            got = sampled_operator(le, cfg, np.random.default_rng(0)).matrix.toarray()
            assert np.abs(got - uncut_loop_operator(le).toarray()).max() <= 1e-15
            full = renormalized_operator(le).matrix.toarray()
            assert np.abs(got - full).max() <= 1e-15

    def test_sampled_operator_equals_full_when_thresholds_large(self, worked):
        le = line_expand(worked)
        full = renormalized_operator(le).matrix.toarray()
        got = sampled_operator(
            le, lx.SamplingConfig(64, 64), np.random.default_rng(0)
        ).matrix.toarray()
        assert np.allclose(got, full, atol=1e-15)


class TestTrain:
    def test_separable_toy_reaches_perfect_accuracy(self):
        h, ds = separable_toy(vertices_per_class=10, seed=0)
        config = lx.TrainConfig(epochs=200, seed=0)
        model, report = lx.train(h, ds, config)
        assert report.test_accuracy == 1.0
        assert report.losses[-1] < report.losses[0]

    def test_deterministic_given_seed(self):
        h, ds = separable_toy(vertices_per_class=6, seed=1)
        config = lx.TrainConfig(epochs=30, seed=7)
        _, r1 = lx.train(h, ds, config)
        _, r2 = lx.train(h, ds, config)
        assert r1.losses == r2.losses
        assert r1.test_accuracy == r2.test_accuracy

    def test_weight_identity_between_operators(self):
        # operator is invariant to scaling (w_v, w_e) jointly
        h, ds = separable_toy(vertices_per_class=6, seed=2)
        a = lx.TrainConfig(w_v=1.0, w_e=2.0, epochs=20, seed=3)
        b = lx.TrainConfig(w_v=3.0, w_e=6.0, epochs=20, seed=3)
        _, ra = lx.train(h, ds, a)
        _, rb = lx.train(h, ds, b)
        assert np.allclose(ra.losses, rb.losses, atol=1e-9)

    def test_sampling_path_trains(self):
        h, ds = separable_toy(vertices_per_class=8, seed=4)
        config = lx.TrainConfig(
            epochs=120, seed=4, sampling=True, delta_v=3, delta_e=3
        )
        _, report = lx.train(h, ds, config)
        assert report.test_accuracy >= 0.9

    def test_empty_hyperedge_rejected(self):
        h = lx.Hypergraph(2, ((0, 1), ()))
        zeros = np.zeros(2, dtype=bool)
        ds = lx.Dataset(np.ones((2, 1)), np.array([0, 1]),
                        np.array([True, True]), zeros, zeros, 2)
        with pytest.raises(lx.HypergraphError, match=r"^empty hyperedges \(1,\)$"):
            lx.train(h, ds, lx.TrainConfig(epochs=1))

    def test_early_stopping_stops(self):
        h, ds = separable_toy(vertices_per_class=8, seed=5)
        val = ds.test_mask.copy()
        ds = lx.Dataset(ds.features, ds.labels, ds.train_mask, val,
                        np.zeros(len(ds.labels), dtype=bool), 2)
        config = lx.TrainConfig(epochs=500, seed=5, early_stopping=True,
                                patience=5)
        _, report = lx.train(h, ds, config)
        assert len(report.losses) < 500

    @pytest.mark.parametrize("sampling", [False, True])
    def test_recorded_run_with_early_stopping(self, sampling):
        # Recorded with a separate training and validation forward per
        # epoch; sharing them when sampling is off must change no number.
        _, report = lx.train(*recorded_problem(), recorded_config(sampling))
        expected = RECORDED_SAMPLED if sampling else RECORDED_FULL
        assert report.losses == pytest.approx(expected["losses"], rel=1e-12)
        assert report.val_accuracies == expected["val_accuracies"]
        assert report.test_accuracy == expected["test_accuracy"]

    @pytest.mark.parametrize("sampling", [False, True])
    def test_recorded_run_with_narrowing_first_layer(self, sampling):
        # Recorded with layer 0's operand rebuilt in every forward.
        config = replace(recorded_config(sampling), hidden=2)
        _, report = lx.train(*recorded_problem(), config)
        expected = RECORDED_NARROW_SAMPLED if sampling else RECORDED_NARROW_FULL
        assert report.losses == pytest.approx(expected["losses"], rel=1e-12)
        assert report.val_accuracies == pytest.approx(expected["val_accuracies"], rel=1e-12)
        assert report.test_accuracy == expected["test_accuracy"]

    @pytest.mark.parametrize("sampling", [False, True])
    def test_recorded_leaky_relu_run(self, sampling):
        config = replace(recorded_config(sampling), activation="leaky-relu", leaky_slope=0.2)
        _, report = lx.train(*recorded_problem(), config)
        expected = RECORDED_LEAKY_SAMPLED if sampling else RECORDED_LEAKY_FULL
        assert report.losses == expected["losses"]
        assert report.grad_norms == expected["grad_norms"]
        assert report.val_accuracies == expected["val_accuracies"]
        assert report.test_accuracy == expected["test_accuracy"]

    @pytest.mark.parametrize("sampling", [False, True])
    def test_later_epochs_write_into_the_same_arrays(self, monkeypatch, sampling):
        # Layer 0 widens 3 features to 8, so its preactivation is its
        # product with theta, which the call's workspace keeps.
        preactivations = []
        signature = inspect.signature(backward)

        def recording_backward(*args, **kwargs):
            caches = signature.bind(*args, **kwargs).arguments["caches"]
            preactivations.append(caches[0][1])
            return backward(*args, **kwargs)

        monkeypatch.setattr(lx.learn, "backward", recording_backward)
        _, report = lx.train(*recorded_problem(), recorded_config(sampling))
        assert len(preactivations) == len(report.losses) > 3
        for s in preactivations[2:]:
            assert np.shares_memory(preactivations[1], s)

    def test_first_layer_operand_built_once(self, monkeypatch):
        # Widths d_in = 5, hidden = 8 and 3 classes all differ, so an
        # application of the full operator to 5 columns is layer 0's operand.
        h, ds = recorded_problem()
        extra = np.random.default_rng(1).normal(size=(24, 2))
        ds = lx.Dataset(np.hstack([ds.features, extra]), ds.labels, ds.train_mask,
                        ds.val_mask, ds.test_mask, 3)
        widths = []

        class CountingOperator(lx.FactoredOperator):
            def __matmul__(self, h):
                widths.append(h.shape[1])
                return super().__matmul__(h)

        def counting_operator(le):
            op = renormalized_operator(le)
            return CountingOperator(op.p_v, op.p_e, op.d_inv_sqrt, op.w_v, op.w_e)

        monkeypatch.setattr(lx.learn, "renormalized_operator", counting_operator)
        config = lx.TrainConfig(epochs=6, hidden=8, seed=0)
        lx.train(h, ds, config)
        assert widths.count(5) == 1
        # Each of the 6 + 2 forwards still applies it at layer 1, to 3 columns.
        assert widths.count(3) >= config.epochs + 2

    def test_grad_norms(self):
        h, ds = recorded_problem()
        config = recorded_config(False)
        _, report = lx.train(h, ds, config)
        assert len(report.grad_norms) == len(report.losses)
        assert report.to_dict()["grad_norms"] == report.grad_norms
        # The first step's gradient is one backward on the initial model.
        thetas = init_params(3, config.hidden, 3, config.layers,
                             np.random.default_rng(config.seed))
        model = Model(thetas, config.w_v, config.w_e, config.activation)
        le = line_expand(h, config.w_v, config.w_e)
        op, p = renormalized_operator(le), projections(h)
        logits, caches = forward(model, op, p, ds.features)
        grads = backward(model, op, p, logits, caches, ds.labels, ds.train_mask)
        norm = np.linalg.norm(np.concatenate([g.ravel() for g in grads]))
        assert report.grad_norms[0] == pytest.approx(norm, rel=1e-12)

    @pytest.mark.parametrize("sampling, calls", [(False, 22), (True, 41)])
    def test_forwards_per_call(self, monkeypatch, sampling, calls):
        # Full batch: one forward per epoch plus the first and the final
        # test forward. Sampled: a sampled and a full forward per epoch.
        count = [0]

        def counting_forward(*args):
            count[0] += 1
            return forward(*args)

        monkeypatch.setattr(lx.learn, "forward", counting_forward)
        h, ds = separable_toy(vertices_per_class=6, seed=3)
        config = lx.TrainConfig(epochs=20, seed=3, sampling=sampling,
                                delta_v=2, delta_e=2)
        lx.train(h, ds, config)
        assert count[0] == calls

    @pytest.mark.parametrize("sampling", [False, True])
    def test_full_operator_matrix_never_built(self, monkeypatch, sampling):
        built = []

        def recording_operator(le):
            built.append(renormalized_operator(le))
            return built[-1]

        monkeypatch.setattr(lx.learn, "renormalized_operator", recording_operator)
        h, ds = separable_toy(vertices_per_class=6, seed=3)
        lx.train(h, ds, lx.TrainConfig(epochs=5, seed=3, sampling=sampling,
                                       delta_v=2, delta_e=2))
        assert len(built) == 1
        assert "matrix" not in vars(built[0])

    @pytest.mark.parametrize("sampling", [False, True])
    def test_per_epoch_records(self, monkeypatch, sampling):
        nnz = []

        def recording_operator(*args):
            op = sampled_operator(*args)
            nnz.append(op.matrix.nnz)
            return op

        monkeypatch.setattr(lx.learn, "sampled_operator", recording_operator)
        _, report = lx.train(*recorded_problem(), recorded_config(sampling))
        epochs = len(report.losses)
        assert epochs < recorded_config(sampling).epochs  # stopped early
        assert len(report.val_accuracies) == len(report.epoch_seconds) == epochs
        assert all(t > 0 for t in report.epoch_seconds)
        assert sum(report.epoch_seconds) <= report.wall_time_s
        assert report.sampled_arcs == (nnz if sampling else [0] * epochs)
        assert len(nnz) == (epochs if sampling else 0)

    def test_report_serializable(self):
        h, ds = separable_toy(vertices_per_class=5, seed=6)
        _, report = lx.train(h, ds, lx.TrainConfig(epochs=5, seed=6))
        d = report.to_dict()
        assert d["seed"] == 6
        assert len(d["losses"]) == 5
        assert d["config"]["epochs"] == 5


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(layers=0), "layers must be at least 1, got 0"),
            (dict(delta_e=-1), "delta_e must be at least 1, got -1"),
            (dict(lr=float("nan")), "lr must be finite, got 'nan'"),
            (dict(w_e=float("inf")), "w_e must be finite, got 'inf'"),
            (dict(lr=-0.1), "lr must not be negative, got -0.1"),
            (dict(weight_decay=-5.0), "weight_decay must not be negative, got -5.0"),
            (dict(leaky_slope=-1.0), "leaky_slope must not be negative, got -1.0"),
            (dict(w_v=-1.0), "w_v must not be negative, got -1.0"),
            (dict(w_v=0.0, w_e=0.0), "w_v and w_e must not both be zero"),
            (dict(activation="tanh"),
             "activation must be one of ('relu', 'leaky-relu'), got 'tanh'"),
        ],
    )
    def test_rejected(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            lx.TrainConfig(**kwargs)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kwargs", [dict(w_v=0.0), dict(w_e=0.0),
                                        dict(lr=0.0, weight_decay=0.0, leaky_slope=0.0)])
    def test_zero_allowed(self, kwargs):
        lx.TrainConfig(**kwargs)


class TestValueHypergraph:
    def test_groups_by_column_value(self):
        table = np.array([[0, 1], [0, 2], [1, 1]])
        h = value_hypergraph(table)
        assert set(h.edges) == {(0, 1), (2,), (0, 2), (1,)}


class TestLoadZoo:
    ROW = "aardvark,1,0,0,1,0,0,1,1,1,1,0,0,4,0,0,1,{cls}\n"

    def write(self, tmp_path, text):
        path = tmp_path / "zoo.data"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_reads_attributes_and_classes(self, tmp_path):
        text = self.ROW.format(cls=1) + "\n" + self.ROW.format(cls=3).replace("aardvark", "bass")
        h, ds = lx.load_zoo(self.write(tmp_path, text))
        assert ds.features.shape == (2, 16)
        assert ds.labels.tolist() == [0, 2]
        assert h == value_hypergraph(ds.features.astype(np.int64))

    @pytest.mark.parametrize(
        "row",
        [
            "aardvark,1,0,0,1,0,0,1,1,1,1,0,0,4,0,0,1\n",
            ROW.format(cls="1,1"),
            ROW.format(cls="+1"),
            ROW.format(cls="1_0"),
            ROW.format(cls="1 1"),
            ROW.format(cls="").replace(",1,0,0,", ",1,,0,"),
            ROW.format(cls="9" * 5000),
            "aardvark\n",
            ROW.format(cls=1 << 63),
        ],
        ids=["short", "long", "plus", "underscore", "space", "empty", "huge", "name-only",
             "int64-max-plus-one"],
    )
    def test_bad_row_is_a_parse_error_naming_its_line(self, tmp_path, row):
        path = self.write(tmp_path, self.ROW.format(cls=1) + row)
        with pytest.raises(lx.ParseError, match=r"^line 2: zoo row must be a name and 17 int64"):
            lx.load_zoo(path)

    @pytest.mark.parametrize("cls", [0, -1, -(1 << 63)])
    def test_class_below_one_is_a_parse_error(self, tmp_path, cls):
        path = self.write(tmp_path, self.ROW.format(cls=1) + self.ROW.format(cls=cls))
        with pytest.raises(lx.ParseError) as exc:
            lx.load_zoo(path)
        assert str(exc.value) == f"line 2: zoo class must be at least 1, got {cls}"

    def test_int64_minimum_is_accepted(self, tmp_path):
        row = self.ROW.format(cls=1).replace(",4,", f",{-(1 << 63)},")
        _, ds = lx.load_zoo(self.write(tmp_path, row))
        assert ds.features[0, 12] == -(2.0**63)
