import numpy as np
import pytest

import linexp as lx
from linexp.expansions import line_expand, projections, renormalized_operator
from linexp.learn import (
    Model,
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
        1.1095169449880604, 1.070806725614172, 1.025541329807273,
        1.012977772389159, 0.9983741529333658, 0.9836671545333321,
        0.9232921202778772, 0.92920607266294, 0.8924762649042167,
        0.9291546263791204, 0.9051999387448607, 0.8927384536232429,
        0.811241753953707, 0.8202092528226201, 0.782284652392981,
        0.7994494735246587, 0.8802986916288111, 0.830356573391833,
    ],
    "val_accuracies": [0, 1 / 6, 0, 0, 0, 1 / 6, 1 / 6, 1 / 3, 1 / 2, 1 / 2,
                       1 / 2, 2 / 3, 1 / 2, 1 / 2, 1 / 3, 1 / 2, 2 / 3, 2 / 3],
    "test_accuracy": 0.625,
}


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
        with pytest.raises(lx.HypergraphError):
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

    def test_report_serializable(self):
        h, ds = separable_toy(vertices_per_class=5, seed=6)
        _, report = lx.train(h, ds, lx.TrainConfig(epochs=5, seed=6))
        d = report.to_dict()
        assert d["seed"] == 6
        assert len(d["losses"]) == 5
        assert d["config"]["epochs"] == 5


class TestValueHypergraph:
    def test_groups_by_column_value(self):
        table = np.array([[0, 1], [0, 2], [1, 1]])
        h = value_hypergraph(table)
        assert set(h.edges) == {(0, 1), (2,), (0, 2), (1,)}
