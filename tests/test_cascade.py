import math

import mpmath
import numpy as np
import pytest
from scipy.special import expit, log_expit

from cascade_ranker.cascade import batch_final_probs, batch_log_pass, batch_logits
from cascade_ranker.core import (
    CascadeModel,
    Feature,
    FeatureSchema,
    Instance,
    QueryGroup,
    StageAssignment,
    pack_groups,
)
from cascade_ranker.datagen import GenConfig, default_assignment, default_schema, generate
from cascade_ranker.trainer import init_weights
from oracle import cumulative_probabilities, stage_probabilities


def _logit(p):
    return math.log(p / (1.0 - p))


def _batch_probs(model, group):
    """(per-stage, cumulative) pass probabilities of every row of ``group``
    from the batch forward pass, each shape (n, T)."""
    Z, cum_log_p = batch_log_pass(model, pack_groups([group]))
    return expit(Z), np.exp(cum_log_p)


def _item(group, x):
    return QueryGroup(group.query_id, group.query_features, group.recalled_count,
                      (Instance(x, 0, 2.0),))


def _tiny_setup(T=3, seed=0, init_scale=0.0):
    schema = FeatureSchema(
        tuple(Feature(f"f{k}", 0.1 * (k + 1)) for k in range(T)),
        query_bin_edges=(10,),
    )
    asg = StageAssignment(tuple((k,) for k in range(T)))
    model = init_weights(schema, asg, seed, init_scale)
    group = QueryGroup("q0", schema.query_onehot(5), 5,
                       (Instance(np.zeros(T), 0, 2.0),))
    return schema, asg, model, group


class TestStageProbability:
    def test_zero_weights_give_half(self):
        _, _, model, group = _tiny_setup()
        per_stage, _ = _batch_probs(model, group)
        np.testing.assert_array_equal(per_stage, [[0.5, 0.5, 0.5]])
        np.testing.assert_array_equal(stage_probabilities(model, group.query_features,
                                                          np.zeros(3)), [0.5, 0.5, 0.5])

    def test_saturation_without_overflow(self):
        schema, asg, model, group = _tiny_setup(T=1)
        group = _item(group, np.ones(1))
        m = model.with_flat_weights(np.array([100.0, 0.0, 0.0]))
        assert _batch_probs(m, group)[0][0, 0] == pytest.approx(1.0, abs=1e-10)
        m = m.with_flat_weights(np.array([1000.0, 0.0, 0.0]))
        assert np.all(np.isfinite(batch_log_pass(m, pack_groups([group]))[1]))
        assert _batch_probs(m, group)[0][0, 0] == 1.0
        m = m.with_flat_weights(np.array([-1000.0, 0.0, 0.0]))
        _, cum_log_p = batch_log_pass(m, pack_groups([group]))
        assert cum_log_p[0, 0] == pytest.approx(-1000.0)
        assert _batch_probs(m, group)[0][0, 0] >= 0.0

    def test_item_query_cancellation(self):
        # w_x = (1), f(x) = (2), query logit = -2 -> sigma(0) = 0.5
        schema, asg, model, group = _tiny_setup(T=1)
        hot = int(np.flatnonzero(group.query_features)[0])
        w = np.zeros(3)
        w[0] = 1.0
        w[1 + hot] = -2.0
        m = model.with_flat_weights(w)
        assert batch_logits(m, pack_groups([_item(group, np.array([2.0]))]))[0, 0] == 0.0

    def test_dimension_mismatch(self):
        _, _, model, group = _tiny_setup()
        narrow = QueryGroup("q0", group.query_features, 5, (Instance(np.zeros(2), 0, 2.0),))
        with pytest.raises(ValueError, match="dim"):
            batch_logits(model, pack_groups([narrow]))


class TestCascadeProbabilities:
    def test_zero_weights_three_stages(self):
        _, _, model, group = _tiny_setup(T=3)
        per_stage, cumulative = _batch_probs(model, group)
        np.testing.assert_allclose(per_stage[0], [0.5, 0.5, 0.5])
        np.testing.assert_allclose(cumulative[0], [0.5, 0.25, 0.125])
        assert batch_final_probs(model, [group])[0] == pytest.approx(0.125)

    def test_single_stage_is_plain_logistic(self):
        schema, asg, model, group = _tiny_setup(T=1, seed=4, init_scale=0.8)
        x = np.array([0.3])
        z = (model.stage_item_weights[0] @ x
             + model.stage_query_weights[0] @ group.query_features)
        want = 1.0 / (1.0 + math.exp(-z))
        assert batch_final_probs(model, [_item(group, x)])[0] == pytest.approx(want, rel=1e-12)

    def test_arithmetic_of_two_stages(self):
        # per-stage (0.9, 0.8) -> cumulative (0.9, 0.72)
        schema, asg, model, group = _tiny_setup(T=2)
        hot = int(np.flatnonzero(group.query_features)[0])
        w = model.flat_weights()
        w[1 + hot] = _logit(0.9)           # stage 0 query weight
        w[3 + 1 + hot] = _logit(0.8)       # stage 1 query weight
        m = model.with_flat_weights(w)
        per_stage, cumulative = _batch_probs(m, _item(group, np.zeros(2)))
        np.testing.assert_allclose(per_stage[0], [0.9, 0.8], rtol=1e-12)
        np.testing.assert_allclose(cumulative[0], [0.9, 0.72], rtol=1e-12)

    def test_monotone_chain(self):
        schema = default_schema()
        asg = default_assignment(schema)
        rng = np.random.default_rng(7)
        group = QueryGroup("q0", schema.query_onehot(500), 500,
                           tuple(Instance(rng.standard_normal(5), 0, 2.0) for _ in range(8)))
        for seed in range(5):
            model = init_weights(schema, asg, seed, 2.0)
            assert np.all(np.diff(_batch_probs(model, group)[1], axis=1) <= 0)

    def test_extended_precision_agreement(self):
        # final prob vs mpmath product of sigmoids, 1e-12 relative
        schema = default_schema()
        asg = default_assignment(schema)
        rng = np.random.default_rng(3)
        model = init_weights(schema, asg, 11, 1.5)
        group = QueryGroup("q0", schema.query_onehot(50), 50,
                           tuple(Instance(rng.standard_normal(5), 0, 2.0) for _ in range(6)))
        mpmath.mp.dps = 50
        for inst, final in zip(group.instances, batch_final_probs(model, [group])):
            exact = mpmath.mpf(1)
            for j in range(model.n_stages):
                cols = list(model.assignment.stages[j])
                z = (inst.item_features[cols] @ model.stage_item_weights[j]
                     + group.query_features @ model.stage_query_weights[j])
                exact *= 1 / (1 + mpmath.exp(-mpmath.mpf(float(z))))
            assert abs(final - float(exact)) <= 1e-12 * float(exact)


class TestQueryFeatureNeutrality:
    # g(q) is constant within a group, so changing a stage's query weights
    # shifts that stage's logits uniformly: the order of items by any single
    # stage's probability never changes. (The order by the multi-stage
    # product can change, since the shared shift multiplies each item's
    # probability by a different factor.)

    def test_per_stage_order_invariant_to_query_weights(self):
        schema = default_schema()
        asg = default_assignment(schema)
        rng = np.random.default_rng(19)
        group = QueryGroup("q0", schema.query_onehot(3000), 3000,
                           tuple(Instance(rng.standard_normal(5), 0, 2.0) for _ in range(12)))
        model = init_weights(schema, asg, 23, 1.0)
        base = _batch_probs(model, group)[0]
        for trial in range(5):
            shifted = CascadeModel(
                model.stage_item_weights,
                tuple(w + rng.standard_normal(w.shape[0]) * 3.0
                      for w in model.stage_query_weights),
                asg, schema,
            )
            moved = _batch_probs(shifted, group)[0]
            for j in range(model.n_stages):
                np.testing.assert_array_equal(
                    np.argsort(-base[:, j], kind="stable"),
                    np.argsort(-moved[:, j], kind="stable"),
                )

    def test_single_stage_final_order_invariant(self):
        schema = default_schema()
        asg = StageAssignment((tuple(range(schema.item_dim)),))
        rng = np.random.default_rng(5)
        group = QueryGroup("q0", schema.query_onehot(40), 40,
                           tuple(Instance(rng.standard_normal(5), 0, 2.0) for _ in range(15)))
        model = init_weights(schema, asg, 2, 1.0)
        base = batch_final_probs(model, [group])
        for trial in range(5):
            shifted = CascadeModel(
                model.stage_item_weights,
                (model.stage_query_weights[0] + rng.standard_normal(schema.query_feature_dim) * 4.0,),
                asg, schema,
            )
            moved = batch_final_probs(shifted, [group])
            np.testing.assert_array_equal(np.argsort(-base, kind="stable"),
                                          np.argsort(-moved, kind="stable"))


class TestScoreGroup:
    def test_zero_weight_two_stage_quarter(self):
        schema, asg, model, _ = _tiny_setup(T=2)
        rng = np.random.default_rng(0)
        group = QueryGroup("q0", np.array([1.0, 0.0]), 9,
                           tuple(Instance(rng.standard_normal(2), 0, 2.0) for _ in range(4)))
        np.testing.assert_allclose(batch_final_probs(model, [group]), [0.25] * 4)

    def test_empty_group(self):
        _, _, model, _ = _tiny_setup()
        assert batch_final_probs(model, []).shape == (0,)

    def test_singleton_matches_direct(self):
        schema, asg, model, group = _tiny_setup(T=3, seed=2, init_scale=0.5)
        per_stage, cumulative = _batch_probs(model, group)
        assert per_stage.shape == cumulative.shape == (1, 3)
        x = group.instances[0].item_features
        np.testing.assert_allclose(per_stage[0],
                                   stage_probabilities(model, group.query_features, x),
                                   rtol=1e-12)
        np.testing.assert_allclose(cumulative[0],
                                   cumulative_probabilities(model, group.query_features, x),
                                   rtol=1e-12)

    def test_batch_matches_per_instance(self):
        schema = default_schema()
        asg = default_assignment(schema)
        groups = generate(GenConfig(n_queries=5, seed=9), schema)
        model = init_weights(schema, asg, 1, 0.6)
        batch = batch_final_probs(model, groups)
        singles = [cumulative_probabilities(model, g.query_features, x)[-1]
                   for g in groups for x in g.X]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)


class TestCumulativeLogPass:
    @pytest.mark.parametrize("T", [1, 2, 3, 7, 8, 11])
    @pytest.mark.parametrize("init_scale", [0.5, 900.0])
    def test_bit_identical_to_numpy_cumsum(self, T, init_scale):
        schema, asg, model, _ = _tiny_setup(T=T, seed=T, init_scale=init_scale)
        rng = np.random.default_rng(T)
        groups = [QueryGroup.from_columns(f"q{i}", schema.query_onehot(40), 40,
                                          rng.standard_normal((n, T)) * 3, np.zeros(n, np.int8),
                                          np.full(n, 2.0))
                  for i, n in enumerate((1, 9, 30))]
        Z, cum_log_p = batch_log_pass(model, pack_groups(groups))
        assert cum_log_p.tobytes() == np.cumsum(log_expit(Z), axis=1).tobytes()
