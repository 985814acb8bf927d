import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cascade_ranker.core import (
    CascadeModel,
    Feature,
    FeatureSchema,
    PackedDataset,
    StageAssignment,
    pack_groups,
)
from cascade_ranker.datagen import GenConfig, default_assignment, default_schema, generate
from cascade_ranker.objective import (OBJECTIVE_LEVELS, ObjectiveConfig, expected_cost,
                                      instance_weights, loss)
from cascade_ranker.trainer import (
    MAX_INIT_SCALE,
    TrainConfig,
    TrainingDiverged,
    gradient_check,
    init_weights,
    load_model,
    save_model,
    train,
)
from groups import make_group, with_weights


class TestInitWeights:
    def test_zero_scale_gives_zero_model(self):
        schema = default_schema()
        model = init_weights(schema, default_assignment(schema), 42, 0.0)
        assert np.all(model.weights == 0.0)

    def test_same_seed_identical(self):
        schema = default_schema()
        asg = default_assignment(schema)
        a = init_weights(schema, asg, 7, 0.3).weights
        b = init_weights(schema, asg, 7, 0.3).weights
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        schema = default_schema()
        asg = default_assignment(schema)
        a = init_weights(schema, asg, 1, 0.3).weights
        b = init_weights(schema, asg, 2, 0.3).weights
        assert np.any(a != b)

    def test_bounded_by_scale(self):
        schema = default_schema()
        w = init_weights(schema, default_assignment(schema), 5, 0.01).weights
        assert np.all(np.abs(w) <= 0.01)

    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("scale", [0.01, 0.5, 3.0])
    def test_one_uniform_draw(self, seed, scale):
        schema = default_schema()
        w = init_weights(schema, default_assignment(schema), seed, scale).weights
        want = np.random.default_rng(seed).uniform(-scale, scale, size=w.size)
        assert w.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["learning_rate", "lr_decay", "init_scale"])
    def test_non_finite_float_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            TrainConfig(**{name: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be in \[0, inf\), got -1$"):
            TrainConfig(seed=-1)

    def test_init_scale_above_half_the_largest_float_rejected(self):
        schema = default_schema()
        assert MAX_INIT_SCALE == 8.988465674311579e307
        model = init_weights(schema, default_assignment(schema), 0, MAX_INIT_SCALE)
        assert np.abs(model.weights).max() <= MAX_INIT_SCALE
        assert TrainConfig(init_scale=MAX_INIT_SCALE).init_scale == MAX_INIT_SCALE
        above = float(np.nextafter(MAX_INIT_SCALE, np.inf))
        message = (r"^init_scale must be in \[0, 8.988465674311579e\+307\], "
                   rf"got {re.escape(str(above))}$")
        with pytest.raises(ValueError, match=message):
            TrainConfig(init_scale=above)
        with pytest.raises(ValueError, match=message):
            init_weights(schema, default_assignment(schema), 0, above)

    def test_init_scale_of_negative_zero_gives_the_zero_model(self):
        # -0.0 is in [0, MAX_INIT_SCALE]; numpy's uniform rejects the range (0.0, -0.0)
        schema = default_schema()
        model = init_weights(schema, default_assignment(schema), 0, -0.0)
        assert not model.weights.any()

    def test_alpha_overflowing_with_the_instance_count_rejected(self):
        schema = default_schema()
        data = generate(GenConfig(n_queries=10, group_size_cap=4, seed=1), schema)
        n = sum(g.size for g in data)
        with pytest.raises(ValueError, match=f"^alpha 1e\\+308 times the {n} training "
                                             "instances overflows to inf$"):
            train(data, schema, default_assignment(schema), ObjectiveConfig(alpha=1e308),
                  TrainConfig(epochs=1))


def _separable_toy(schema):
    # two groups, four instances, positives at +2 on every feature
    X = np.repeat([[2.0], [-2.0]], schema.item_dim, axis=1)
    return [make_group(schema, 4, X, [1, 0], math.e, qid=f"q{qi}") for qi in range(2)]


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
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_loss_decreases_over_training(self):
        schema = default_schema()
        asg = default_assignment(schema)
        data = generate(GenConfig(n_queries=80, seed=4), schema)
        obj = ObjectiveConfig()
        cfg = TrainConfig(objective="l3", epochs=12, seed=1)
        _, log = train(data, schema, asg, obj, cfg)
        assert log.records[-1].total <= log.records[0].total

    def test_packed_dataset_trains_the_same_model(self, tmp_path):
        schema = default_schema()
        asg = default_assignment(schema)
        data = list(generate(GenConfig(n_queries=40, seed=8), schema))
        fit, hold = data[:30], data[30:]
        cfg = TrainConfig(epochs=3, seed=4)
        runs = []
        for k, (fit_k, hold_k) in enumerate([(fit, hold), (pack_groups(fit), pack_groups(hold))]):
            model, log = train(fit_k, schema, asg, ObjectiveConfig(), cfg, eval_data=hold_k)
            save_model(model, tmp_path / f"model{k}.txt")
            runs.append(((tmp_path / f"model{k}.txt").read_text(),
                         [replace(r, wall_time_s=0.0) for r in log.records]))
        assert runs[0] == runs[1]

    def test_holdout_auc_reads_only_the_final_pass(self):
        # l1 charges no cost, and a holdout query of 2**62 recalled items has
        # an expected latency that overflows: the epoch's AUC, taken from the
        # final pass probabilities alone, is the same as on a small mcount
        base = default_schema()
        schema = FeatureSchema(tuple(replace(f, cost=1e291) for f in base.features))
        data = generate(GenConfig(n_queries=20, seed=1), schema)
        hold = generate(GenConfig(n_queries=20, seed=2), schema)
        huge = PackedDataset.from_columns(hold.X, hold.labels, hold.prices, hold.G, hold.sizes,
                                          np.full(hold.n_groups, 2**62), hold.query_ids)
        cfg = TrainConfig(objective="l1", epochs=2)
        aucs = [[r.auc for r in train(data, schema, default_assignment(schema), ObjectiveConfig(),
                                      cfg, eval_data=h)[1].records] for h in (hold, huge)]
        assert aucs[0] == aucs[1] and all(0.5 < a <= 1.0 for a in aucs[0])

    def test_degenerate_labels_rejected(self):
        schema = default_schema()
        g = make_group(schema, 3, np.zeros((2, 5)), labels=1)
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


def _running_sum(values) -> float:
    """Left-to-right float sum, as the trainer accumulates its record."""
    total = 0.0
    for v in values:
        total += v
    return total


def _replay(data, schema, asg, obj, cfg):
    """The batch loss breakdowns of ``train`` replayed outside it, epoch by
    epoch: the same shuffle, batches, per-batch alpha and update, on models
    built with every check. Returns (per epoch: (lr, breakdowns)) and the
    final flat weights."""
    packed = pack_groups(data)
    model = init_weights(schema, asg, cfg.seed, cfg.init_scale)
    w = model.weights
    rng = np.random.default_rng([cfg.seed, 1])
    lr, epochs = cfg.learning_rate, []
    for _ in range(cfg.epochs):
        order = rng.permutation(packed.n_groups)
        bds = []
        for b0 in range(0, len(order), cfg.batch_size):
            batch = packed.take(order[b0 : b0 + cfg.batch_size])
            bcfg = replace(obj, alpha=obj.alpha * batch.n_instances / packed.n_instances)
            bd = loss(with_weights(model, w), batch, bcfg, cfg.objective)
            w = w - lr * bd.gradient / batch.n_instances
            bds.append(bd)
        epochs.append((lr, bds))
        lr *= cfg.lr_decay
    return epochs, w


class TestEpochRecord:
    """An epoch's record sums the breakdowns of its batch steps, each at the
    weights before that batch's update."""

    def test_one_batch_epoch_is_loss_at_initial_weights(self):
        schema = default_schema()
        asg = default_assignment(schema)
        data = generate(GenConfig(n_queries=40, seed=8), schema)
        # a power-of-two alpha stays exact under the batch's n / n_total scaling
        obj = ObjectiveConfig(alpha=0.5, latency_ceiling=4000.0)
        cfg = TrainConfig(objective="l3", epochs=2, batch_size=64, seed=3)
        _, log = train(data, schema, asg, obj, cfg)

        order = np.random.default_rng([cfg.seed, 1]).permutation(len(data))
        bd = loss(init_weights(schema, asg, cfg.seed, cfg.init_scale),
                  pack_groups(data).take(order), obj, "l3")
        first = log.records[0]
        for name in ("total", "nll", "expected_cost", "size_penalty", "latency_penalty"):
            assert getattr(first, name) == getattr(bd, name), name
        assert first.grad_norm == float(np.linalg.norm(bd.gradient))
        assert first.frac_below_floor == bd.queries_below_floor / len(data)
        assert first.frac_above_ceiling == bd.queries_above_ceiling / len(data)
        assert first.lr == cfg.learning_rate
        assert log.records[1].lr == cfg.learning_rate * cfg.lr_decay

    @pytest.mark.parametrize("objective", OBJECTIVE_LEVELS)
    def test_fields_are_sums_of_batch_breakdowns(self, objective):
        _assert_records_replayed(GenConfig(n_queries=70, seed=9), objective)

    @pytest.mark.parametrize("objective", OBJECTIVE_LEVELS)
    def test_fields_are_sums_of_batch_breakdowns_on_mixed_group_sizes(self, objective):
        # tail queries of 1 to 40 recalled items give groups of 1 to 20 rows,
        # so batches differ in row count and so in their scaled alpha
        gen = GenConfig(n_queries=70, seed=9, tail_mcount_range=(1, 40))
        data = generate(gen, default_schema())
        assert data.sizes.min() == 1 and data.sizes.max() == 20
        assert (data.labels == 2).any()
        _assert_records_replayed(gen, objective)


def _assert_records_replayed(gen: GenConfig, objective: str) -> None:
    """``train``'s final weights and every epoch record equal ``_replay``'s,
    bit for bit, on the data ``gen`` generates: 3 epochs of batches of 16."""
    schema = default_schema()
    asg = default_assignment(schema)
    data = generate(gen, schema)
    obj = ObjectiveConfig(latency_ceiling=4000.0)
    cfg = TrainConfig(objective=objective, epochs=3, batch_size=16, seed=4,
                      learning_rate=0.3, lr_decay=0.5)
    model, log = train(data, schema, asg, obj, cfg)
    epochs, w = _replay(data, schema, asg, obj, cfg)
    assert model.weights.tobytes() == w.tobytes()

    n_groups = len(data)
    assert [r.epoch for r in log.records] == [1, 2, 3]
    for record, (lr, bds) in zip(log.records, epochs):
        assert len(bds) == math.ceil(n_groups / cfg.batch_size)
        for name in ("total", "nll", "expected_cost", "size_penalty", "latency_penalty"):
            assert getattr(record, name) == _running_sum(getattr(bd, name) for bd in bds)
        assert record.lr == lr
        norms = _running_sum(float(np.linalg.norm(bd.gradient)) for bd in bds)
        assert record.grad_norm == norms / len(bds)
        assert record.frac_below_floor == sum(bd.queries_below_floor for bd in bds) / n_groups
        assert record.frac_above_ceiling == sum(bd.queries_above_ceiling for bd in bds) / n_groups
    assert 0.0 < log.records[0].frac_above_ceiling < 1.0


class TestWorkPerRun:
    """What ``train`` computes once per run, and what once per batch."""

    def _train_counting(self, monkeypatch, gen, cfg):
        """Train on the data of ``gen`` under ``cfg``, counting the ``loss``
        calls (with their ``want_grad`` and row counts), the
        ``instance_weights`` calls and the ``ObjectiveConfig`` builds."""
        calls = {"loss": [], "instance_weights": 0, "config": 0}
        real_post_init = ObjectiveConfig.__post_init__

        def counting_loss(*args, **kwargs):
            want_grad = kwargs.get("want_grad", args[4] if len(args) > 4 else True)
            calls["loss"].append((want_grad, args[1].n_instances))
            return loss(*args, **kwargs)

        def counting_weights(*args, **kwargs):
            calls["instance_weights"] += 1
            return instance_weights(*args, **kwargs)

        def counting_post_init(self):
            calls["config"] += 1
            real_post_init(self)

        schema = default_schema()
        data = generate(gen, schema)
        obj = ObjectiveConfig(latency_ceiling=4000.0)
        monkeypatch.setattr("cascade_ranker.trainer.loss", counting_loss)
        for module in ("cascade_ranker.trainer", "cascade_ranker.objective"):
            monkeypatch.setattr(f"{module}.instance_weights", counting_weights, raising=False)
        monkeypatch.setattr(ObjectiveConfig, "__post_init__", counting_post_init)
        train(data, schema, default_assignment(schema), obj, cfg)
        return data, calls

    @pytest.mark.parametrize("objective", OBJECTIVE_LEVELS)
    def test_one_loss_with_gradient_per_batch(self, monkeypatch, objective):
        cfg = TrainConfig(objective=objective, epochs=3, batch_size=16, seed=4)
        data, calls = self._train_counting(monkeypatch, GenConfig(n_queries=70, seed=9), cfg)
        assert len(calls["loss"]) == cfg.epochs * math.ceil(len(data) / cfg.batch_size) == 15
        assert all(want_grad is True for want_grad, _ in calls["loss"])

    def test_instance_weights_once_per_run(self, monkeypatch):
        cfg = TrainConfig(epochs=3, batch_size=16, seed=4)
        _, calls = self._train_counting(monkeypatch, GenConfig(n_queries=70, seed=9), cfg)
        assert calls["instance_weights"] == 1 < len(calls["loss"])

    def test_batch_config_once_per_distinct_row_count(self, monkeypatch):
        # 70 groups of 20 rows in batches of 16: four of 320 rows, then one of 120
        cfg = TrainConfig(epochs=3, batch_size=16, seed=4)
        _, calls = self._train_counting(monkeypatch, GenConfig(n_queries=70, seed=9), cfg)
        assert {n for _, n in calls["loss"]} == {320, 120}
        assert calls["config"] <= 2 < len(calls["loss"])


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
            X, labels, prices = [], [], []
            for _ in range(10):
                yv = int(rng.random() < 0.4)
                X.append(rng.standard_normal(2) + (0.8 if yv else -0.3))
                labels.append(yv)
                prices.append(rng.uniform(1.5, 20.0))
            groups.append(make_group(schema, m, X, labels, prices, qid=f"q{qi}"))

        obj = ObjectiveConfig(alpha=0.0, purchase_weight=1.0, price_weight=1.0)
        cfg = TrainConfig(objective="l1", learning_rate=1.5, lr_decay=1.0,
                          epochs=4000, batch_size=100, seed=0, init_scale=0.0)
        model, _ = train(groups, schema, asg, obj, cfg)
        ours = loss(model, groups, obj, "l1", want_grad=False).nll

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
        rows = [(rng.standard_normal(5), int(rng.random() < 0.3)) for _ in range(20)]
        X, labels = zip(*rows)
        groups = [make_group(schema, 30, X, labels, 3.0)]
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
        np.testing.assert_array_equal(bd.gradient, cfg.alpha * (2.0 * model.weights))
        report = gradient_check(model, [], cfg, objective="l3")
        assert report.passed

    def test_subset_sampling_for_large_models(self):
        schema = default_schema()
        asg = default_assignment(schema)
        data = generate(GenConfig(n_queries=5, seed=1), schema)
        model = init_weights(schema, asg, 0, 0.4)
        report = gradient_check(model, data, ObjectiveConfig(), max_coords=10, seed=5)
        assert report.checked_coords == 10

    def test_corrupted_gradient_hook_fails(self, monkeypatch):
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

        monkeypatch.setattr("cascade_ranker.trainer.loss", corrupted)
        report = gradient_check(model, data, ObjectiveConfig())
        assert not report.passed

    # derandomized: the finite differences carry rounding error with a thin
    # tail (at most 3e-5 of the 1e-4 tolerance over 800 random draws), so
    # the gate runs a fixed set of examples
    @given(objective=st.sampled_from(OBJECTIVE_LEVELS),
           init_scale=st.one_of(st.floats(0.25, 4.0), st.floats(10.0, 200.0)),
           n_queries=st.integers(1, 8), seed=st.integers(0, 2**16),
           tight=st.booleans())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_passes_on_random_and_saturated_models(self, objective, init_scale, n_queries,
                                                   seed, tight):
        schema = default_schema()
        data = generate(GenConfig(n_queries=n_queries, seed=seed), schema)
        model = init_weights(schema, default_assignment(schema), seed, init_scale)
        # tight thresholds put both penalties of l3 on their slopes
        cfg = (ObjectiveConfig(result_floor=100.0, latency_ceiling=3000.0) if tight
               else ObjectiveConfig())
        report = gradient_check(model, data, cfg, objective=objective)
        assert report.passed, (report.max_rel_error, report.failures)

    def test_passes_at_the_default_init_scale(self):
        # at init_scale 0.01 some true components are ~1e-5 against a loss
        # of ~1200: their central differences are mostly rounding noise
        schema = default_schema()
        data = generate(GenConfig(n_queries=6, seed=1), schema)
        model = init_weights(schema, default_assignment(schema), 7, TrainConfig().init_scale)
        for objective in OBJECTIVE_LEVELS:
            report = gradient_check(model, data, ObjectiveConfig(), objective=objective)
            assert report.passed, (objective, report.max_rel_error, report.failures)

    def test_large_component_off_by_a_thousandth_fails(self, monkeypatch):
        schema = default_schema()
        data = generate(GenConfig(n_queries=6, seed=1), schema)
        model = init_weights(schema, default_assignment(schema), 7, TrainConfig().init_scale)
        k = int(np.argmax(np.abs(loss(model, data, ObjectiveConfig()).gradient)))

        def off(model_, data_, cfg_, objective_="l3", want_grad=True):
            bd = loss(model_, data_, cfg_, objective_, want_grad)
            if want_grad:
                g = bd.gradient.copy()
                assert abs(g[k]) >= 1.0
                g[k] *= 1.001
                bd = replace(bd, gradient=g)
            return bd

        monkeypatch.setattr("cascade_ranker.trainer.loss", off)
        report = gradient_check(model, data, ObjectiveConfig())
        assert not report.passed and [c for c, _ in report.failures] == [k]
        assert report.max_rel_error == pytest.approx(1e-3, rel=0.01)

    @pytest.mark.parametrize("where", ["total and gradient", "gradient", "total"])
    def test_non_finite_derivative_fails(self, where, monkeypatch):
        # a NaN loss or gradient at the checked weights leaves nothing to check
        schema = default_schema()
        data = generate(GenConfig(n_queries=4, seed=1), schema)
        model = init_weights(schema, default_assignment(schema), 7, 0.5)

        def nan_loss(model_, data_, cfg_, objective_="l3", want_grad=True):
            bd = loss(model_, data_, cfg_, objective_, want_grad)
            if "total" in where:
                bd = replace(bd, total=math.nan)
            if want_grad and "gradient" in where:
                bd = replace(bd, gradient=np.full_like(bd.gradient, np.nan))
            return bd

        monkeypatch.setattr("cascade_ranker.trainer.loss", nan_loss)
        with pytest.raises(ValueError, match=r"the l3 loss \(\S+\) or its gradient at the "
                                             "checked weights is not finite"):
            gradient_check(model, data, ObjectiveConfig())

    def test_non_finite_difference_fails(self, monkeypatch):
        # max(0.0, nan) is 0.0 and nan >= tol is False: a NaN must not pass
        schema = default_schema()
        data = generate(GenConfig(n_queries=4, seed=1), schema)
        model = init_weights(schema, default_assignment(schema), 7, 0.5)

        def nan_difference(model_, data_, cfg_, objective_="l3", want_grad=True):
            bd = loss(model_, data_, cfg_, objective_, want_grad)
            return bd if want_grad else replace(bd, total=math.nan)

        monkeypatch.setattr("cascade_ranker.trainer.loss", nan_difference)
        report = gradient_check(model, data, ObjectiveConfig())
        assert not report.passed and report.max_rel_error == math.inf
        assert len(report.failures) == report.checked_coords

    def test_invalid_step_rejected(self):
        schema = default_schema()
        model = init_weights(schema, default_assignment(schema), 0, 0.1)
        with pytest.raises(ValueError, match="h"):
            gradient_check(model, [], ObjectiveConfig(), h=0.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"h": math.nan}, "h must be finite, got nan"),
        ({"h": math.inf}, "h must be finite, got inf"),
        ({"tolerance": 0.0}, "tolerance must be in (0, inf), got 0.0"),
        ({"tolerance": -1.0}, "tolerance must be in (0, inf), got -1.0"),
        ({"tolerance": math.nan}, "tolerance must be finite, got nan"),
        ({"max_coords": 0}, "max_coords must be in [1, inf), got 0"),
    ])
    def test_bad_argument_named_before_any_loss(self, monkeypatch, kwargs, message):
        def no_loss(*args, **kwargs):
            raise AssertionError("loss computed")

        monkeypatch.setattr("cascade_ranker.trainer.loss", no_loss)
        schema = default_schema()
        model = init_weights(schema, default_assignment(schema), 0, 0.1)
        data = generate(GenConfig(n_queries=3, seed=1), schema)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gradient_check(model, data, ObjectiveConfig(), **kwargs)


# the weights that a round trip through text most often gets wrong
_EDGE_WEIGHTS = (-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)


@st.composite
def _models(draw):
    """A model over 1 to 6 features and 0 to 5 query bins: random stages over
    a random subset of the features, and weights among which the edge
    cases of ``_EDGE_WEIGHTS`` are common."""
    d = draw(st.integers(1, 6))
    edges = sorted(draw(st.sets(st.integers(1, 10**9) | st.floats(0.5, 1e15), max_size=5)))
    schema = FeatureSchema(tuple(Feature(f"f{i}", 0.1) for i in range(d)), tuple(edges))
    used = draw(st.permutations(range(d)))[: draw(st.integers(1, d))]
    cuts = sorted(draw(st.sets(st.integers(1, len(used) - 1), max_size=len(used) - 1))
                  if len(used) > 1 else set())
    stages = [tuple(used[a:b]) for a, b in zip([0, *cuts], [*cuts, len(used)])]
    n = sum(len(stage) + schema.query_feature_dim for stage in stages)
    weight = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_WEIGHTS)
    return CascadeModel(np.array(draw(st.lists(weight, min_size=n, max_size=n)), dtype=float),
                        StageAssignment(stages), schema)


class TestModelSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        schema = default_schema()
        asg = default_assignment(schema)
        model = init_weights(schema, asg, 31, 1.7)
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path, schema)
        np.testing.assert_array_equal(back.weights, model.weights)
        assert back.assignment.stages == model.assignment.stages

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(model=_models())
    def test_roundtrip_of_any_model_bit_exact(self, tmp_path, model):
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path, model.schema)
        assert back.weights.tobytes() == model.weights.tobytes()
        assert back.assignment == model.assignment

    def test_v1_file_rejected_naming_its_version(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("cascade-model v1 stages 1 item_dim 5 query_dim 6\n"
                        "stage 0 features 0\nitem_weights 0 0.5\nquery_weights 0 0 0 0 0 0 0\n")
        with pytest.raises(ValueError, match=_anchored(
                path, ": format v1, the line format, is no longer read (retrain the model)")):
            load_model(path, default_schema())

    def test_schema_mismatch_rejected(self, tmp_path):
        schema = default_schema()
        model = init_weights(schema, default_assignment(schema), 0, 0.1)
        path = tmp_path / "model.txt"
        save_model(model, path)
        other = FeatureSchema((Feature("x", 0.1),), query_bin_edges=(10,))
        with pytest.raises(ValueError, match=_anchored(
                path, f": item_dim {schema.item_dim} differs from the 1 expected")):
            load_model(path, other)

    def test_bad_header_rejected(self, tmp_path):
        path = _model_doc(tmp_path, format="something-else", version=9)
        with pytest.raises(ValueError, match=_anchored(
                path, ": format 'something-else' differs from the 'cascade-model' expected")):
            load_model(path, default_schema())

    @pytest.mark.parametrize("before, expecting", [
        ('"format"', "property name enclosed in double quotes"),
        ('"version"', "property name enclosed in double quotes"),
        ('"item_dim"', "property name enclosed in double quotes"),
        ('"query_bins"', "property name enclosed in double quotes"),
        ('"stages"', "property name enclosed in double quotes"),
        ('"weights"', "property name enclosed in double quotes"),
        ("]}", "',' delimiter"),
    ], ids=["format", "version", "item_dim", "query_bins", "stages", "weights", "weights_end"])
    def test_truncated_file_names_missing_line(self, tmp_path, before, expecting):
        schema = default_schema()
        path = tmp_path / "model.txt"
        save_model(init_weights(schema, default_assignment(schema), 0, 0.1), path)
        text = path.read_text()
        cut = text.index(before)
        path.write_text(text[:cut])
        with pytest.raises(ValueError, match=_anchored(
                path, f": Expecting {expecting}: line 1 column {cut + 1} (char {cut})")):
            load_model(path, schema)

    def test_stage_index_out_of_range_names_the_file(self, tmp_path):
        schema = default_schema()
        stages = [list(s) for s in default_assignment(schema).stages]
        stages[1] = [99999999999999999999]
        path = _model_doc(tmp_path, stages=stages)
        with pytest.raises(ValueError, match=_anchored(
                path, ": stage 1: feature index 99999999999999999999 not in schema")):
            load_model(path, schema)

    def test_header_without_counts_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text('{"format": "cascade-model", "version": 2}\n')
        with pytest.raises(ValueError, match=_anchored(
                path, ": the document lacks key 'item_dim'")):
            load_model(path, default_schema())


def _anchored(path, rest: str) -> str:
    """The pattern of exactly the message ``model file <path><rest>``."""
    return "^" + re.escape(f"model file {path}{rest}") + "$"


def _model_doc(tmp_path, **changes):
    """The path of a default-schema model file whose document has ``changes``."""
    schema = default_schema()
    path = tmp_path / "model.txt"
    save_model(init_weights(schema, default_assignment(schema), 0, 0.1), path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **changes}))
    return path
