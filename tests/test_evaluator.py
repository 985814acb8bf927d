import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_ranker import cascade, objective, simulator
from cascade_ranker.core import (
    Feature,
    FeatureSchema,
    PackedDataset,
    StageAssignment,
    pack_groups,
)
from cascade_ranker.datagen import GenConfig, default_assignment, default_schema, generate
from cascade_ranker.evaluator import (
    baseline_l1,
    baseline_two_stage,
    evaluate,
    macro_auc,
)
from cascade_ranker.objective import ObjectiveConfig, expected_cost
from cascade_ranker.trainer import TrainConfig, init_weights, train
from groups import make_group, stage_model, stage_weights, with_weights
from oracle import auc, expected_count, expected_latency, stage_probabilities


class TestAuc:
    """The flat rank-sum AUC of ``oracle``, the reference of ``macro_auc``."""

    def test_perfect_separation(self):
        assert auc([(0.9, 1), (0.1, 0)]) == 1.0

    def test_all_ties_half(self):
        scores = [(0.5, 1)] * 4 + [(0.5, 0)] * 4
        assert auc(scores) == 0.5

    def test_inverted(self):
        assert auc([(0.2, 1), (0.8, 0)]) == 0.0

    def test_missing_class_named(self):
        with pytest.raises(ValueError, match="no negative"):
            auc([(0.5, 1), (0.2, 1)])
        with pytest.raises(ValueError, match="no positive"):
            auc([(0.5, 0), (0.2, 0)])

    def test_matches_pairwise_count(self):
        rng = np.random.default_rng(0)
        scores = rng.random(60)
        scores[rng.integers(0, 60, 10)] = 0.5  # force ties
        y = (rng.random(60) < 0.4).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        pos, neg = scores[y == 1], scores[y == 0]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        brute = wins / (len(pos) * len(neg))
        assert auc(list(zip(scores, y))) == pytest.approx(brute, rel=1e-12)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.random(40)
        y = (rng.random(40) < 0.5).astype(int)
        y[0], y[1] = 0, 1
        base = auc(list(zip(scores, y)))
        for f in (lambda s: 3 * s + 1, np.exp, lambda s: s ** 3):
            assert auc(list(zip(f(scores), y))) == pytest.approx(base, rel=1e-12)


def _packed(groups):
    """PackedDataset holding only what ``macro_auc`` reads: (score, label) pairs per query."""
    sizes = np.array([len(g) for g in groups], dtype=np.int64)
    labels = np.array([y for g in groups for _, y in g], dtype=np.int8)
    n, q = int(sizes.sum()), len(groups)
    return PackedDataset(
        X=np.zeros((n, 1)), labels=labels, y=labels.astype(np.float64), prices=np.ones(n),
        G=np.zeros((q, 1)), sizes=sizes, mcounts=sizes,
        offsets=np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
        query_ids=tuple(f"q{i}" for i in range(q)),
    )


# Scores from a small set make ties within a query common.
_SCORE = st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0]),
                   st.floats(-1e6, 1e6, allow_nan=False))
_QUERY = st.lists(st.tuples(_SCORE, st.integers(0, 1)), min_size=1, max_size=12)


class TestMacroAuc:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(groups=st.lists(_QUERY, min_size=1, max_size=15))
    def test_equals_mean_of_scalar_auc(self, groups):
        scores = np.array([s for g in groups for s, _ in g])
        two_class = [g for g in groups if len({y for _, y in g}) == 2]
        if not two_class:
            with pytest.raises(ValueError, match="both"):
                macro_auc(scores, _packed(groups))
            return
        assert macro_auc(scores, _packed(groups)) == float(np.mean([auc(g) for g in two_class]))

    def test_size_one_and_single_class_queries_skipped(self):
        groups = [[(0.3, 1)], [(0.9, 1), (0.1, 0)], [(0.5, 0), (0.5, 0)], [(0.2, 1), (0.8, 0)]]
        scores = np.array([s for g in groups for s, _ in g])
        assert macro_auc(scores, _packed(groups)) == 0.5

    def test_no_two_class_query_raises(self):
        groups = [[(0.3, 1)], [(0.5, 0), (0.1, 0)]]
        scores = np.array([s for g in groups for s, _ in g])
        with pytest.raises(ValueError, match="both a positive and a negative"):
            macro_auc(scores, _packed(groups))
        with pytest.raises(ValueError, match="both a positive and a negative"):
            macro_auc(np.zeros(0), pack_groups([]))


def _benchmark(seed=0, n=150):
    schema = default_schema()
    asg = default_assignment(schema)
    data = generate(GenConfig(n_queries=n, seed=seed), schema)
    return schema, asg, data


class TestEvaluate:
    def test_self_normalized_ratio_is_one(self):
        schema, asg, data = _benchmark()
        model = init_weights(schema, asg, 3, 0.3)
        report = evaluate(model, data, ObjectiveConfig())
        assert report.expected_cost_ratio == 1.0

    def test_cheap_single_stage_cost_ratio(self):
        # {0.02 + 0.09} over {0.02+0.09+0.13+0.74+0.84}: about 6%
        schema, _, data = _benchmark()
        cheap = StageAssignment(((0, 1),))
        model = init_weights(schema, cheap, 0, 0.2)
        packed = pack_groups(data)
        base = packed.n_instances * schema.costs().sum()
        report = evaluate(model, packed, ObjectiveConfig(), baseline_cost=base)
        assert report.expected_cost_ratio == pytest.approx(0.11 / 1.82, rel=1e-12)
        assert report.expected_cost_ratio == pytest.approx(0.06, abs=0.001)

    def test_mean_final_count_stage1_saturated(self):
        # stage-1 probability forced to 1: the final count is set by later
        # stages only; checked against a Bernoulli sampling oracle.
        schema = default_schema()
        asg = default_assignment(schema)
        model = init_weights(schema, asg, 8, 0.4)
        w = model.weights.copy()
        w[:2] = 0.0
        model = with_weights(model, w)
        item, query = stage_weights(model)
        sat = stage_model((np.zeros(2), *item[1:]),
                          (np.full(schema.query_feature_dim, 60.0), *query[1:]), asg, schema)
        rng = np.random.default_rng(5)
        group = make_group(schema, 40, rng.standard_normal((10, 5)),
                           labels=(np.arange(10) < 3).astype(np.int8))
        report = evaluate(sat, [group], ObjectiveConfig())
        stage_p = np.stack([stage_probabilities(sat, group.query_features, x) for x in group.X])
        assert np.all(stage_p[:, 0] > 1 - 1e-10)
        trials = 10_000
        mc = np.random.default_rng(11)
        alive = np.cumprod(mc.random((trials, *stage_p.shape)) < stage_p, axis=2)
        counts = alive[:, :, -1].sum(axis=1) * 40 / 10
        se = counts.std(ddof=1) / math.sqrt(trials)
        assert abs(report.mean_final_count - counts.mean()) <= 3 * max(se, 1e-9)

    def test_per_query_table_consistent_with_aggregates(self):
        schema, asg, data = _benchmark(seed=2, n=40)
        model = init_weights(schema, asg, 1, 0.3)
        cfg = ObjectiveConfig()
        report = evaluate(model, data, cfg)
        counts = np.array([r.expected_final_count for r in report.per_query])
        lats = np.array([r.expected_latency_units for r in report.per_query])
        assert report.mean_final_count == pytest.approx(counts.mean())
        assert report.fraction_below_floor == pytest.approx(
            np.mean(counts < cfg.result_floor))
        assert report.mean_latency_units == pytest.approx(lats.mean())
        assert report.mean_latency_ms == pytest.approx(lats.mean() / cfg.cost_units_per_ms)


    def test_one_forward_pass_same_figures(self, monkeypatch):
        schema, asg, data = _benchmark(seed=3, n=60)
        model = init_weights(schema, asg, 2, 0.4)
        packed = pack_groups(data)
        cfg = ObjectiveConfig(latency_ceiling=4000.0)
        calls = []
        real = cascade.batch_log_pass

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for module in (cascade, objective, simulator):
            monkeypatch.setattr(module, "batch_log_pass", counting)
        report = evaluate(model, packed, cfg)
        assert len(calls) == 1
        monkeypatch.undo()
        # bit for bit what the per-quantity functions give
        final = np.exp(cascade.batch_log_pass(model, packed)[1][:, -1])
        assert report.auc == macro_auc(final, packed)
        assert report.expected_cost == expected_cost(model, packed)
        # the per-query figures of the stage-by-stage reference, and the
        # flags the loss counts
        assert [r.expected_final_count for r in report.per_query] == pytest.approx(
            [expected_count(model, g, model.n_stages) for g in data], rel=1e-12)
        assert [r.expected_latency_units for r in report.per_query] == pytest.approx(
            [expected_latency(model, g) for g in data], rel=1e-12)
        bd = objective.loss(model, packed, cfg, want_grad=False)
        below = sum(r.below_floor for r in report.per_query)
        above = sum(r.above_latency_ceiling for r in report.per_query)
        assert (below, above) == (bd.queries_below_floor, bd.queries_above_ceiling)
        assert 0 < above < len(data)

    def test_expected_final_count_is_scaled_final_pass_count(self):
        # each record's count is M_q / N_q times the last column of the
        # expected pass counts S that the replay's keep counts round up
        schema, asg, data = _benchmark(seed=4, n=60)
        model = init_weights(schema, asg, 2, 0.4)
        packed = pack_groups(data)
        S = objective.forward_expectations(model, packed)[1]
        report = evaluate(model, packed, ObjectiveConfig())
        assert [r.expected_final_count for r in report.per_query] == (
            packed.mcounts / packed.sizes * S[:, -1]).tolist()

    def test_zero_baseline_cost_rejected(self):
        schema = FeatureSchema(tuple(replace(f, cost=0.0) for f in default_schema().features))
        data = generate(GenConfig(n_queries=10, seed=1), schema)
        model = init_weights(schema, default_assignment(schema), 1, 0.3)
        for base in (None, 0.0):
            with pytest.raises(ValueError, match="baseline cost is 0"):
                evaluate(model, data, ObjectiveConfig(), baseline_cost=base)


class TestSingleStageBaseline:
    def test_empty_subset_rejected(self):
        schema, _, data = _benchmark(n=20)
        with pytest.raises(ValueError):
            baseline_l1(data, schema, StageAssignment(((),)), ObjectiveConfig(),
                        TrainConfig(epochs=1))

    def test_all_vs_cheap_features(self):
        schema, _, data = _benchmark(seed=4, n=200)
        obj = ObjectiveConfig()
        cfg = TrainConfig(epochs=10, seed=3)
        packed = pack_groups(data)
        base = packed.n_instances * schema.costs().sum()
        model_all, rep_all = baseline_l1(
            data, schema, StageAssignment((tuple(range(5)),)), obj, cfg, base)
        model_cheap, rep_cheap = baseline_l1(
            data, schema, StageAssignment(((0, 1),)), obj, cfg, base)
        assert model_all.n_stages == 1 and model_cheap.n_stages == 1
        assert rep_all.expected_cost_ratio == pytest.approx(1.0)
        assert rep_cheap.expected_cost_ratio == pytest.approx(0.11 / 1.82)
        assert rep_all.auc > rep_cheap.auc


class TestTwoStageBaseline:
    def test_keep_all_equals_single_stage_on_rest(self):
        schema, _, data = _benchmark(seed=5, n=60)
        obj = ObjectiveConfig()
        cfg = TrainConfig(epochs=8, seed=2)
        huge = 10 ** 9  # floor passes every sampled item
        rep_two = baseline_two_stage(data, schema, 0, huge, obj, cfg)
        _, rep_rest = baseline_l1(data, schema, StageAssignment(((1, 2, 3, 4),)), obj, cfg)
        assert rep_two.auc == pytest.approx(rep_rest.auc, rel=1e-12)

    def test_keep_k_beyond_int64_keeps_all(self):
        schema, _, data = _benchmark(seed=5, n=30)
        obj, cfg = ObjectiveConfig(), TrainConfig(epochs=1, seed=2)
        assert (baseline_two_stage(data, schema, 0, 10 ** 30, obj, cfg)
                == baseline_two_stage(data, schema, 0, 10 ** 9, obj, cfg))

    def test_cost_increases_with_keep_k(self):
        schema, _, data = _benchmark(seed=6, n=80)
        obj = ObjectiveConfig()
        cfg = TrainConfig(epochs=3, seed=2)
        packed = pack_groups(data)
        base = packed.n_instances * schema.costs().sum()
        costs = [
            baseline_two_stage(data, schema, 0, k, obj, cfg, base).expected_cost
            for k in (2000, 4000, 8000)
        ]
        assert costs[0] < costs[1] < costs[2]

    def test_keep_one_cost_floor(self):
        schema, _, data = _benchmark(seed=7, n=25)
        obj = ObjectiveConfig()
        cfg = TrainConfig(epochs=2, seed=2)
        rep = baseline_two_stage(data, schema, 0, 1, obj, cfg)
        t_filter, t_rest = 0.02, 1.80
        packed = pack_groups(data)
        want = packed.n_instances * t_filter + packed.n_groups * t_rest
        assert rep.expected_cost == pytest.approx(want, rel=1e-12)

    def test_invalid_filter_feature(self):
        schema, _, data = _benchmark(n=10)
        with pytest.raises(ValueError, match="filter feature"):
            baseline_two_stage(data, schema, 99, 100, ObjectiveConfig(), TrainConfig(epochs=1))


@pytest.mark.parametrize("run", [
    lambda data, schema, obj, cfg: baseline_l1(
        data, schema, StageAssignment(((0, 1, 2),)), obj, cfg)[1],
    lambda data, schema, obj, cfg: baseline_two_stage(data, schema, 0, 300, obj, cfg),
    lambda data, schema, obj, cfg: baseline_l1(
        data, schema, default_assignment(schema), obj, cfg)[1],
], ids=["single_stage", "two_stage", "soft_cascade"])
def test_baseline_report_same_from_packed_data(run):
    schema, _, data = _benchmark(seed=9, n=40)
    obj, cfg = ObjectiveConfig(), TrainConfig(epochs=2, seed=3)
    assert run(pack_groups(data), schema, obj, cfg) == run(data, schema, obj, cfg)


class TestSoftCascadeBaseline:
    def test_equals_l1_trained_cascade(self):
        schema, asg, data = _benchmark(seed=8, n=50)
        obj = ObjectiveConfig(beta=0.0, delta=0.0, latency_penalty_weight=0.0)
        cfg = TrainConfig(objective="l3", epochs=5, seed=9)
        _, rep_soft = baseline_l1(data, schema, asg, obj, cfg)
        # zero coefficients make l3 coincide with l1
        model_l3, _ = train(data, schema, asg, obj, cfg)
        rep_l3 = evaluate(model_l3, data, obj)
        assert rep_soft.auc == pytest.approx(rep_l3.auc, rel=1e-9)
        assert rep_soft.expected_cost == pytest.approx(rep_l3.expected_cost, rel=1e-9)

    def test_single_stage_soft_cascade_is_logreg(self):
        schema, _, data = _benchmark(seed=9, n=40)
        asg1 = StageAssignment((tuple(range(5)),))
        obj = ObjectiveConfig()
        cfg = TrainConfig(epochs=6, seed=4)
        _, rep_soft = baseline_l1(data, schema, asg1, obj, cfg)
        _, rep_single = baseline_l1(data, schema, StageAssignment((tuple(range(5)),)), obj, cfg)
        assert rep_soft.auc == pytest.approx(rep_single.auc, rel=1e-12)

    def test_beta_ordering_across_seeds(self):
        # larger beta never raises training-set expected cost (three seeds)
        schema, asg, _ = _benchmark(n=10)
        obj_lo = ObjectiveConfig(beta=1.0, delta=0.0, latency_penalty_weight=0.0)
        obj_hi = replace(obj_lo, beta=10.0)
        for seed in (0, 1, 2):
            data = generate(GenConfig(n_queries=100, seed=100 + seed), schema)
            cfg = TrainConfig(objective="l2", epochs=12, seed=seed)
            m_lo, _ = train(data, schema, asg, obj_lo, cfg)
            m_hi, _ = train(data, schema, asg, obj_hi, cfg)
            assert expected_cost(m_hi, data) <= expected_cost(m_lo, data)
