import math
import sys
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from cascade_ranker.cascade import (
    _cumsum_columns,
    batch_log_pass,
    batch_logits,
    expit,
    log_expit,
)
from cascade_ranker.core import (
    Feature,
    FeatureSchema,
    StageAssignment,
    pack_groups,
    stage_costs,
)
from cascade_ranker.datagen import GenConfig, default_assignment, default_schema, generate
from cascade_ranker.objective import _query_expectations, forward_expectations
from cascade_ranker.trainer import init_weights
from groups import make_group, stage_model, stage_weights, with_weights
from oracle import cumulative_probabilities, stage_probabilities, ulp_distance


def _logit(p):
    return math.log(p / (1.0 - p))


def _batch_probs(model, group):
    """(per-stage, cumulative) pass probabilities of every row of ``group``
    from the batch forward pass, each shape (n, T)."""
    Z, cum_log_p = batch_log_pass(model, pack_groups([group]))
    return expit(Z), np.exp(cum_log_p)


def _final_probs(model, groups):
    """The final pass probability of every row of ``groups``, as
    ``forward_expectations`` gives it to the per-epoch AUC and the reports."""
    return forward_expectations(model, pack_groups(groups))[0]


def _item(group, x):
    """The one-row ``group`` with its row's features replaced by ``x``."""
    return replace(group, X=x[None, :])


def _tiny_setup(T=3, seed=0, init_scale=0.0):
    schema = FeatureSchema(
        tuple(Feature(f"f{k}", 0.1 * (k + 1)) for k in range(T)),
        query_bin_edges=(10,),
    )
    asg = StageAssignment(tuple((k,) for k in range(T)))
    model = init_weights(schema, asg, seed, init_scale)
    group = make_group(schema, 5, np.zeros((1, T)))
    return schema, asg, model, group


# every float, and the edges of the two branches: the subnormals, -709.8 where
# scipy's exp(-z) overflows, -745.2 where exp(z) underflows, and the largest
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 709.8, -709.8, 745.2, -745.2, 1.8e308, -1.8e308,
          math.inf, -math.inf]
_LOGITS = st.lists(st.floats(allow_nan=False) | st.sampled_from(_EDGES), min_size=1,
                   max_size=40).map(np.array)


def _quietly(f, z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return f(z)


class TestSigmoidsAgainstScipy:
    @given(_LOGITS)
    @settings(max_examples=300, deadline=None)
    def test_expit(self, z):
        ours = _quietly(expit, z)
        want = special.expit(z)
        # scipy's 1 / (1 + exp(-z)) is 0 once exp(-z) overflows; sigma(z) is
        # then e^z / (1 + e^z) with 1 + e^z rounding to 1, so e^z itself
        below = z < -math.log(sys.float_info.max)
        want[below] = [float(mpmath.exp(v)) for v in z[below]]
        assert ulp_distance(ours, want).max() <= 4
        assert np.all((ours >= 0.0) & (ours <= 1.0))
        assert np.array_equal(np.signbit(ours), np.signbit(want))

    @given(_LOGITS)
    @settings(max_examples=300, deadline=None)
    def test_log_expit(self, z):
        ours = _quietly(log_expit, z)
        want = special.log_expit(z)
        assert ulp_distance(ours, want).max() <= 4
        assert np.all(ours <= 0.0)
        # -0.0 where sigma(z) rounds to 1, as scipy gives it
        assert np.array_equal(np.signbit(ours), np.signbit(want))

    def test_signed_zeros(self):
        z = np.array([0.0, -0.0, 800.0, math.inf, -math.inf])
        assert log_expit(z).tolist() == [-math.log(2), -math.log(2), -0.0, -0.0, -math.inf]
        assert np.signbit(log_expit(z)).tolist() == [True] * 5
        assert expit(z).tolist() == [0.5, 0.5, 1.0, 1.0, 0.0]
        assert not np.signbit(expit(z)).any()


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
        m = with_weights(model, np.array([100.0, 0.0, 0.0]))
        assert _batch_probs(m, group)[0][0, 0] == pytest.approx(1.0, abs=1e-10)
        m = with_weights(m, np.array([1000.0, 0.0, 0.0]))
        assert np.all(np.isfinite(batch_log_pass(m, pack_groups([group]))[1]))
        assert _batch_probs(m, group)[0][0, 0] == 1.0
        m = with_weights(m, np.array([-1000.0, 0.0, 0.0]))
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
        m = with_weights(model, w)
        assert batch_logits(m, pack_groups([_item(group, np.array([2.0]))]))[0, 0] == 0.0

    def test_dimension_mismatch(self):
        _, _, model, group = _tiny_setup()
        narrow = _item(group, np.zeros(2))
        with pytest.raises(ValueError, match="dim"):
            batch_logits(model, pack_groups([narrow]))


class TestCascadeProbabilities:
    def test_zero_weights_three_stages(self):
        _, _, model, group = _tiny_setup(T=3)
        per_stage, cumulative = _batch_probs(model, group)
        np.testing.assert_allclose(per_stage[0], [0.5, 0.5, 0.5])
        np.testing.assert_allclose(cumulative[0], [0.5, 0.25, 0.125])
        assert _final_probs(model, [group])[0] == pytest.approx(0.125)

    def test_single_stage_is_plain_logistic(self):
        schema, asg, model, group = _tiny_setup(T=1, seed=4, init_scale=0.8)
        x = np.array([0.3])
        item, query = stage_weights(model)
        z = item[0] @ x + query[0] @ group.query_features
        want = 1.0 / (1.0 + math.exp(-z))
        assert _final_probs(model, [_item(group, x)])[0] == pytest.approx(want, rel=1e-12)

    def test_arithmetic_of_two_stages(self):
        # per-stage (0.9, 0.8) -> cumulative (0.9, 0.72)
        schema, asg, model, group = _tiny_setup(T=2)
        hot = int(np.flatnonzero(group.query_features)[0])
        w = model.weights.copy()
        w[1 + hot] = _logit(0.9)           # stage 0 query weight
        w[3 + 1 + hot] = _logit(0.8)       # stage 1 query weight
        m = with_weights(model, w)
        per_stage, cumulative = _batch_probs(m, _item(group, np.zeros(2)))
        np.testing.assert_allclose(per_stage[0], [0.9, 0.8], rtol=1e-12)
        np.testing.assert_allclose(cumulative[0], [0.9, 0.72], rtol=1e-12)

    def test_monotone_chain(self):
        schema = default_schema()
        asg = default_assignment(schema)
        rng = np.random.default_rng(7)
        group = make_group(schema, 500, rng.standard_normal((8, 5)))
        for seed in range(5):
            model = init_weights(schema, asg, seed, 2.0)
            assert np.all(np.diff(_batch_probs(model, group)[1], axis=1) <= 0)

    def test_extended_precision_agreement(self):
        # final prob vs mpmath product of sigmoids, 1e-12 relative
        schema = default_schema()
        asg = default_assignment(schema)
        rng = np.random.default_rng(3)
        model = init_weights(schema, asg, 11, 1.5)
        group = make_group(schema, 50, rng.standard_normal((6, 5)))
        mpmath.mp.dps = 50
        item, query = stage_weights(model)
        for x, final in zip(group.X, _final_probs(model, [group])):
            exact = mpmath.mpf(1)
            for j in range(model.n_stages):
                cols = list(model.assignment.stages[j])
                z = x[cols] @ item[j] + group.query_features @ query[j]
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
        group = make_group(schema, 3000, rng.standard_normal((12, 5)))
        model = init_weights(schema, asg, 23, 1.0)
        base = _batch_probs(model, group)[0]
        item, query = stage_weights(model)
        for trial in range(5):
            shifted = stage_model(
                item, [w + rng.standard_normal(w.shape[0]) * 3.0 for w in query], asg, schema)
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
        group = make_group(schema, 40, rng.standard_normal((15, 5)))
        model = init_weights(schema, asg, 2, 1.0)
        base = _final_probs(model, [group])
        item, query = stage_weights(model)
        for trial in range(5):
            shifted = stage_model(
                item, [query[0] + rng.standard_normal(schema.query_feature_dim) * 4.0],
                asg, schema)
            moved = _final_probs(shifted, [group])
            np.testing.assert_array_equal(np.argsort(-base, kind="stable"),
                                          np.argsort(-moved, kind="stable"))


class TestScoreGroup:
    def test_zero_weight_two_stage_quarter(self):
        schema, asg, model, _ = _tiny_setup(T=2)
        rng = np.random.default_rng(0)
        group = make_group(schema, 9, rng.standard_normal((4, 2)))
        np.testing.assert_allclose(_final_probs(model, [group]), [0.25] * 4)

    def test_empty_group(self):
        _, _, model, _ = _tiny_setup()
        assert _final_probs(model, []).shape == (0,)

    def test_singleton_matches_direct(self):
        schema, asg, model, group = _tiny_setup(T=3, seed=2, init_scale=0.5)
        per_stage, cumulative = _batch_probs(model, group)
        assert per_stage.shape == cumulative.shape == (1, 3)
        x = group.X[0]
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
        batch = _final_probs(model, groups)
        singles = [cumulative_probabilities(model, g.query_features, x)[-1]
                   for g in groups for x in g.X]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)


class TestCumulativeLogPass:
    @pytest.mark.parametrize("T", [1, 2, 3, 7, 8, 11])
    @pytest.mark.parametrize("init_scale", [0.5, 900.0])
    def test_bit_identical_to_numpy_cumsum(self, T, init_scale):
        schema, asg, model, _ = _tiny_setup(T=T, seed=T, init_scale=init_scale)
        rng = np.random.default_rng(T)
        groups = [make_group(schema, 40, rng.standard_normal((n, T)) * 3, qid=f"q{i}")
                  for i, n in enumerate((1, 9, 30))]
        Z, cum_log_p = batch_log_pass(model, pack_groups(groups))
        assert cum_log_p.tobytes() == np.cumsum(log_expit(Z), axis=1).tobytes()
        log_p = log_expit(Z)
        assert _cumsum_columns(log_p.copy()).tobytes() == cum_log_p.tobytes()

    @pytest.mark.parametrize("init_scale", [0.3, 900.0])
    def test_log_q_is_log_expit_of_minus_z_bit_for_bit(self, init_scale):
        # the shared n = -log1p(exp(-|Z|)) gives log sigma(-Z) as log_expit(-Z) does,
        # on both signs of Z and, at scale 900, where exp(-|Z|) underflows for 46 % of Z
        schema = default_schema()
        packed = generate(GenConfig(n_queries=2000, seed=3), schema)
        model = init_weights(schema, default_assignment(schema), 5, init_scale)
        Z, cum_log_p, log_q = batch_log_pass(model, packed, log_q=True)
        assert (Z > 0).any() and (Z < 0).any()
        assert log_q.tobytes() == log_expit(-Z).tobytes()
        plain = batch_log_pass(model, packed)
        assert plain[0].tobytes() == Z.tobytes() and plain[1].tobytes() == cum_log_p.tobytes()


@st.composite
def _cascades(draw):
    """A random cascade of 1-4 stages over up to 6 features, some features
    unused, at a weight scale from zero to saturating, and 1-4 groups of
    1-12 rows."""
    T = draw(st.integers(1, 4))
    d = draw(st.integers(T, 6))
    owner = list(range(T)) + draw(st.lists(st.integers(-1, T - 1), min_size=d - T,
                                           max_size=d - T))
    features = draw(st.permutations(range(d)))
    stages = tuple(tuple(f for f, o in zip(features, owner) if o == j) for j in range(T))
    schema = FeatureSchema(tuple(Feature(f"f{k}", 0.1 * (k + 1)) for k in range(d)),
                           query_bin_edges=(10, 100))
    model = init_weights(schema, StageAssignment(stages), draw(st.integers(0, 2**16)),
                         draw(st.sampled_from([0.0, 0.3, 2.0, 40.0, 800.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    groups = []
    for i, n in enumerate(draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))):
        m = int(rng.integers(n, 300))
        groups.append(make_group(schema, m, rng.standard_normal((n, d)) * 3.0, qid=f"q{i}"))
    return model, groups


class TestAgainstScalarOracle:
    @given(_cascades())
    @settings(max_examples=150, deadline=None)
    def test_batch_passes_match_per_item_reference(self, problem):
        model, groups = problem
        Z, cum_log_p = batch_log_pass(model, pack_groups(groups))
        final = _final_probs(model, groups)
        rows = [(g.query_features, x) for g in groups for x in g.X]
        per_stage = np.array([stage_probabilities(model, q, x) for q, x in rows])
        cumulative = np.array([cumulative_probabilities(model, q, x) for q, x in rows])
        # log space against a product of sigmoids: agreement to rounding,
        # with an absolute floor where the product is subnormal
        np.testing.assert_allclose(expit(Z), per_stage, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(np.exp(cum_log_p), cumulative, rtol=1e-12, atol=1e-300)
        assert final.tobytes() == np.exp(cum_log_p[:, -1]).tobytes()
        np.testing.assert_allclose(final, cumulative[:, -1], rtol=1e-12, atol=1e-300)


def _check_pass_counts(model, packed):
    """S of ``packed``, after checking that S[q, j] adds query q's rows of P
    in row order and that a query's S, count and latency are the same packed
    alone as with the others."""
    t = stage_costs(model.assignment, model.schema)
    P = np.exp(batch_log_pass(model, packed)[1])
    S, _, counts, latencies = _query_expectations(packed, t, P)
    for q in range(packed.n_groups):
        rows = P[packed.offsets[q]:packed.offsets[q + 1]]
        assert S[q].tobytes() == np.cumsum(rows, axis=0)[-1].tobytes()
        alone = _query_expectations(packed.take([q]), t, rows)
        assert alone[0].tobytes() == S[q:q + 1].tobytes()
        assert (alone[2][0], alone[3][0]) == (counts[q], latencies[q])
    return S


class TestExpectedPassCounts:
    @given(_cascades())
    @settings(max_examples=100, deadline=None)
    def test_random_cascades(self, problem):
        model, groups = problem
        packed = pack_groups(groups)
        S = _check_pass_counts(model, packed)
        assert S.tobytes() == forward_expectations(model, packed)[1].tobytes()

    def test_large_batch(self):
        # hundreds of queries: a BLAS matrix-vector product over S would round
        # a query's latency by its row in the batch
        schema = default_schema()
        model = init_weights(schema, default_assignment(schema), 3, 0.5)
        _check_pass_counts(model, pack_groups(generate(GenConfig(n_queries=300, seed=3), schema)))
