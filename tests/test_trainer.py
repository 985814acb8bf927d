import math
from dataclasses import replace

import numpy as np
import pytest

from cascade_ranker.core import (
    Feature,
    FeatureSchema,
    Instance,
    QueryGroup,
    StageAssignment,
)
from cascade_ranker.datagen import GenConfig, default_assignment, default_schema, generate
from cascade_ranker.evaluator import auc
from cascade_ranker.objective import ObjectiveConfig, expected_cost, loss, weighted_nll
from cascade_ranker.trainer import (
    TrainConfig,
    TrainingDiverged,
    gradient_check,
    init_weights,
    load_model,
    save_model,
    train,
)


class TestInitWeights:
    def test_zero_scale_gives_zero_model(self):
        schema = default_schema()
        model = init_weights(schema, default_assignment(schema), 42, 0.0)
        assert np.all(model.flat_weights() == 0.0)

    def test_same_seed_identical(self):
        schema = default_schema()
        asg = default_assignment(schema)
        a = init_weights(schema, asg, 7, 0.3).flat_weights()
        b = init_weights(schema, asg, 7, 0.3).flat_weights()
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        schema = default_schema()
        asg = default_assignment(schema)
        a = init_weights(schema, asg, 1, 0.3).flat_weights()
        b = init_weights(schema, asg, 2, 0.3).flat_weights()
        assert np.any(a != b)

    def test_bounded_by_scale(self):
        schema = default_schema()
        w = init_weights(schema, default_assignment(schema), 5, 0.01).flat_weights()
        assert np.all(np.abs(w) <= 0.01)


class TestTrainConfigValidation:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)

    def test_bad_objective_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            TrainConfig(objective="l4")

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=0.0)


def _separable_toy(schema):
    # two groups, four instances, positives at +2 on every feature
    d = schema.item_dim
    groups = []
    for qi in range(2):
        groups.append(QueryGroup(
            f"q{qi}", schema.query_onehot(4), 4, (
                Instance(np.full(d, 2.0), 1, math.e),
                Instance(np.full(d, -2.0), 0, math.e),
            )))
    return groups


class TestTrain:
    def test_separable_toy_reaches_auc_one(self):
        schema = default_schema()
        asg = StageAssignment((tuple(range(schema.item_dim)),))
        groups = _separable_toy(schema)
        obj = ObjectiveConfig(alpha=0.0, purchase_weight=1, price_weight=1)
        cfg = TrainConfig(objective="l1", epochs=200, seed=3)
        model, log = train(groups, schema, asg, obj, cfg)
        assert log.records[-1].auc == 1.0

    def test_beta_sweep_reduces_expected_cost(self):
        schema = default_schema()
        asg = default_assignment(schema)
        data = generate(GenConfig(n_queries=120, seed=21), schema)
        obj0 = ObjectiveConfig(beta=0.0, delta=0.0, latency_penalty_weight=0.0)
        obj10 = replace(obj0, beta=10.0)
        cfg = TrainConfig(objective="l2", epochs=15, seed=5)
        m0, _ = train(data, schema, asg, obj0, cfg)
        m10, _ = train(data, schema, asg, obj10, cfg)
        assert expected_cost(m10, data) < expected_cost(m0, data)

    def test_deterministic_given_seed(self):
        schema = default_schema()
        asg = default_assignment(schema)
        data = generate(GenConfig(n_queries=30, seed=2), schema)
        obj = ObjectiveConfig()
        cfg = TrainConfig(epochs=3, seed=11)
        a, _ = train(data, schema, asg, obj, cfg)
        b, _ = train(data, schema, asg, obj, cfg)
        np.testing.assert_array_equal(a.flat_weights(), b.flat_weights())

    def test_loss_decreases_over_training(self):
        schema = default_schema()
        asg = default_assignment(schema)
        data = generate(GenConfig(n_queries=80, seed=4), schema)
        obj = ObjectiveConfig()
        cfg = TrainConfig(objective="l3", epochs=12, seed=1)
        _, log = train(data, schema, asg, obj, cfg)
        assert log.records[-1].total <= log.records[0].total

    def test_degenerate_labels_rejected(self):
        schema = default_schema()
        g = QueryGroup("q0", schema.query_onehot(3), 3, (
            Instance(np.zeros(5), 1, 2.0), Instance(np.zeros(5), 1, 2.0)))
        with pytest.raises(ValueError, match="positive and one negative"):
            train([g], schema, default_assignment(schema), ObjectiveConfig(), TrainConfig())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_location(self):
        schema = default_schema()
        asg = default_assignment(schema)
        data = generate(GenConfig(n_queries=10, seed=6), schema)
        cfg = TrainConfig(epochs=3, seed=1, learning_rate=1e200)
        with pytest.raises(TrainingDiverged, match="epoch"):
            train(data, schema, asg, ObjectiveConfig(), cfg)


def _newton_logreg_oracle(X, y, wgt, iters=60):
    """Independent weighted logistic regression optimum via Newton's method
    (multi-start over a coarse grid of initial intercept-free points)."""
    n, d = X.shape

    def nll(w):
        z = X @ w
        p = 1.0 / (1.0 + np.exp(-z))
        eps = 1e-300
        return -float(np.sum(wgt * (y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))))

    best = None
    for scale in (0.0, 0.5, -0.5):
        w = np.full(d, scale)
        for _ in range(iters):
            z = X @ w
            p = 1.0 / (1.0 + np.exp(-z))
            g = X.T @ (wgt * (p - y))
            H = (X * (wgt * p * (1 - p))[:, None]).T @ X + 1e-12 * np.eye(d)
            step = np.linalg.solve(H, g)
            w = w - step
            if np.max(np.abs(step)) < 1e-14:
                break
        val = nll(w)
        if best is None or val < best[0]:
            best = (val, w)
    return best


class TestLogisticRegressionEquivalence:
    def test_matches_newton_oracle_within_1e6(self):
        # T=1, alpha=0, no penalties: the cascade trainer is plain weighted
        # logistic regression. Non-separable toy data keeps the optimum finite.
        rng = np.random.default_rng(17)
        schema = FeatureSchema((Feature("a", 0.1), Feature("b", 0.2)),
                               query_bin_edges=(10,))
        asg = StageAssignment(((0, 1),))
        groups = []
        for qi in range(5):
            m = 5 if qi % 2 else 50
            instances = []
            for _ in range(10):
                yv = int(rng.random() < 0.4)
                x = rng.standard_normal(2) + (0.8 if yv else -0.3)
                instances.append(Instance(x, yv, float(rng.uniform(1.5, 20.0))))
            groups.append(QueryGroup(f"q{qi}", schema.query_onehot(m), m, tuple(instances)))

        obj = ObjectiveConfig(alpha=0.0, purchase_weight=1.0, price_weight=1.0)
        cfg = TrainConfig(objective="l1", learning_rate=1.5, lr_decay=1.0,
                          epochs=4000, batch_size=100, seed=0, init_scale=0.0)
        model, _ = train(groups, schema, asg, obj, cfg)
        ours = weighted_nll(model, groups, obj)

        from cascade_ranker.core import pack_groups
        packed = pack_groups(groups)
        X = np.hstack([packed.X, np.repeat(packed.G, packed.sizes, axis=0)])
        wgt = np.where(packed.labels == 1, np.log(packed.prices), 1.0)
        oracle_val, _ = _newton_logreg_oracle(X, packed.y, wgt)
        assert ours == pytest.approx(oracle_val, abs=1e-6)


class TestGradientCheck:
    def test_l1_random_two_stage(self):
        schema = default_schema()
        asg = StageAssignment(((0, 1), (2, 3, 4)))
        rng = np.random.default_rng(3)
        groups = [QueryGroup("q0", schema.query_onehot(30), 30, tuple(
            Instance(rng.standard_normal(5), int(rng.random() < 0.3), 3.0)
            for _ in range(20)))]
        model = init_weights(schema, asg, 9, 0.6)
        report = gradient_check(model, groups, ObjectiveConfig(), objective="l1")
        assert report.max_rel_error < 1e-5 and report.passed

    def test_l3_all_penalties_active(self):
        schema = default_schema()
        asg = default_assignment(schema)
        data = generate(GenConfig(n_queries=8, seed=12), schema)
        model = init_weights(schema, asg, 2, 0.5)
        cfg = ObjectiveConfig(alpha=0.2, beta=1.0, delta=1.0, latency_penalty_weight=0.05)
        report = gradient_check(model, data, cfg, objective="l3", tolerance=1e-5)
        assert report.max_rel_error < 1e-5

    def test_empty_dataset_gradient_is_regularizer(self):
        schema = default_schema()
        model = init_weights(schema, default_assignment(schema), 4, 0.8)
        cfg = ObjectiveConfig(alpha=0.7)
        bd = loss(model, [], cfg, "l3")
        np.testing.assert_array_equal(bd.gradient, cfg.alpha * (2.0 * model.flat_weights()))
        report = gradient_check(model, [], cfg, objective="l3")
        assert report.passed

    def test_subset_sampling_for_large_models(self):
        schema = default_schema()
        asg = default_assignment(schema)
        data = generate(GenConfig(n_queries=5, seed=1), schema)
        model = init_weights(schema, asg, 0, 0.4)
        report = gradient_check(model, data, ObjectiveConfig(), max_coords=10, seed=5)
        assert report.checked_coords == 10

    def test_corrupted_gradient_hook_fails(self):
        schema = default_schema()
        asg = default_assignment(schema)
        data = generate(GenConfig(n_queries=5, seed=1), schema)
        model = init_weights(schema, asg, 0, 0.4)

        def corrupted(model_, data_, cfg_, objective_="l3", want_grad=True):
            bd = loss(model_, data_, cfg_, objective_, want_grad)
            if want_grad:
                g = bd.gradient.copy()
                g += 1.0
                bd = replace(bd, gradient=g)
            return bd

        report = gradient_check(model, data, ObjectiveConfig(), loss_fn=corrupted)
        assert not report.passed

    def test_invalid_step_rejected(self):
        schema = default_schema()
        model = init_weights(schema, default_assignment(schema), 0, 0.1)
        with pytest.raises(ValueError, match="h"):
            gradient_check(model, [], ObjectiveConfig(), h=0.0)


class TestModelSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        schema = default_schema()
        asg = default_assignment(schema)
        model = init_weights(schema, asg, 31, 1.7)
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path, schema)
        np.testing.assert_array_equal(back.flat_weights(), model.flat_weights())
        assert back.assignment.stages == model.assignment.stages

    def test_schema_mismatch_rejected(self, tmp_path):
        schema = default_schema()
        model = init_weights(schema, default_assignment(schema), 0, 0.1)
        path = tmp_path / "model.txt"
        save_model(model, path)
        other = FeatureSchema((Feature("x", 0.1),), query_bin_edges=(10,))
        with pytest.raises(ValueError, match="do not match"):
            load_model(path, other)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("something-else v9\n")
        with pytest.raises(ValueError, match="header"):
            load_model(path, default_schema())

    @pytest.mark.parametrize("keep, missing", [
        (0, "header"), (1, "'stage 0 features'"), (3, "'stage 2 features'"),
        (4, "'item_weights 0'"), (7, "'query_weights 1'"), (8, "'item_weights 2'"),
        (9, "'query_weights 2'"),
    ])
    def test_truncated_file_names_missing_line(self, tmp_path, keep, missing):
        schema = default_schema()
        model = init_weights(schema, default_assignment(schema), 0, 0.1)
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:keep]))
        with pytest.raises(ValueError, match=f"ends before its {missing} line"):
            load_model(path, schema)

    def test_header_without_counts_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("cascade-model v1 stages\n")
        with pytest.raises(ValueError, match="malformed model header"):
            load_model(path, default_schema())
