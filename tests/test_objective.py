import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from cascade_ranker.cascade import batch_log_pass
from cascade_ranker.core import (
    Feature,
    FeatureSchema,
    StageAssignment,
    pack_groups,
)
from cascade_ranker.datagen import GenConfig, default_assignment, default_schema, generate
from cascade_ranker.objective import (
    OBJECTIVE_LEVELS,
    LossBreakdown,
    ObjectiveConfig,
    expected_cost,
    instance_weights,
    loss,
    per_query_expectations,
    _logsumexp_rows,
    _scaled_softplus_gap,
    _suffix_sums,
)
from cascade_ranker.trainer import TrainConfig, init_weights, train
from groups import make_group, stage_model, with_weights
from oracle import expected_count, expected_latency, loss_gradient, stage_probabilities


def _logit(p):
    return math.log(p / (1.0 - p))


def _schema2(costs=(0.02, 0.74)):
    return FeatureSchema(tuple(Feature(f"f{k}", c) for k, c in enumerate(costs)),
                         query_bin_edges=(10,))


def _group_with_final_probs(schema, probs, mcount, label=0, price=math.e, qid="q0"):
    """T=1 group whose instances have the given final probabilities (via the
    first feature with unit weight)."""
    X = np.zeros((len(probs), schema.item_dim))
    X[:, 0] = [_logit(p) for p in probs]
    return make_group(schema, mcount, X, label, price, qid)


def _nll(model, groups, cfg):
    """The behavior-weighted negative log-likelihood of ``model`` on ``groups``."""
    return loss(model, groups, cfg, "l1", want_grad=False).nll


def _unit_model(schema, stages):
    """Model with item weight 1.0 on each stage's first feature, zero query weights."""
    asg = StageAssignment(stages)
    item = tuple(np.array([1.0] + [0.0] * (len(s) - 1)) for s in asg.stages)
    query = tuple(np.zeros(schema.query_feature_dim) for _ in asg.stages)
    return stage_model(item, query, asg, schema)


class TestInstanceWeight:
    def test_purchase(self):
        cfg = ObjectiveConfig(purchase_weight=10, price_weight=3)
        assert instance_weights(np.array([2]), np.array([math.e]), cfg)[0] == pytest.approx(30.0)

    def test_click(self):
        cfg = ObjectiveConfig(purchase_weight=10, price_weight=3)
        assert instance_weights(np.array([1]), np.array([math.e]), cfg)[0] == pytest.approx(3.0)

    def test_no_behavior_is_one(self):
        cfg = ObjectiveConfig(purchase_weight=10, price_weight=3)
        prices = np.array([0.5, 1.0, math.e, 1e6])
        np.testing.assert_array_equal(instance_weights(np.zeros(4, dtype=np.int8), prices, cfg),
                                      [1.0] * 4)

    def test_nonpositive_price_rejected(self):
        cfg = ObjectiveConfig()
        with pytest.raises(ValueError, match="positive"):
            instance_weights(np.array([0, 1]), np.array([2.0, 0.0]), cfg)

    @pytest.mark.parametrize("price_weight", [0.0, -1.0])
    def test_non_positive_price_weight_rejected(self, price_weight):
        # at 0 every click and purchase would weigh 0 and only non-clicks train
        with pytest.raises(ValueError, match=rf"^price_weight must be in \(0, inf\) \(at 0 "
                           rf"clicks and purchases weigh 0\), got {price_weight}$"):
            ObjectiveConfig(price_weight=price_weight)

    @pytest.mark.parametrize("price", [math.nan, math.inf, -math.inf])
    def test_non_finite_price_rejected(self, price):
        with pytest.raises(ValueError, match="finite and positive"):
            instance_weights(np.array([0, 1]), np.array([2.0, price]), ObjectiveConfig())

    @pytest.mark.parametrize("price", [math.nan, math.inf])
    def test_train_on_packed_rejects_non_finite_click_price(self, price):
        schema = default_schema()
        packed = pack_groups(generate(GenConfig(n_queries=6, seed=2), schema))
        packed.prices[np.flatnonzero(packed.labels == 1)[0]] = price
        with pytest.raises(ValueError, match="finite and positive"):
            train(packed, schema, default_assignment(schema), ObjectiveConfig(),
                  TrainConfig(epochs=1))


class TestWeightedNll:
    def test_single_positive_zero_weights_t1(self):
        schema = _schema2()
        model = init_weights(schema, StageAssignment(((0,), (1,))), 0, 0.0)
        model1 = init_weights(schema, StageAssignment(((0, 1),)), 0, 0.0)
        cfg = ObjectiveConfig(purchase_weight=1, price_weight=1)
        g = make_group(schema, 5, np.zeros((1, 2)), 1, math.e)  # wgt = 1
        assert _nll(model1, [g], cfg) == pytest.approx(math.log(2), rel=1e-12)
        assert _nll(model, [g], cfg) == pytest.approx(math.log(4), rel=1e-12)

    def test_weight_linearity(self):
        # weight 2 on one instance == two copies at weight 1
        schema = _schema2()
        model = init_weights(schema, StageAssignment(((0, 1),)), 3, 0.5)
        cfg = ObjectiveConfig(purchase_weight=1, price_weight=1)
        x = np.array([0.4, -0.2])
        heavy = make_group(schema, 5, [x], 1, math.e ** 2)   # wgt = 2
        twice = make_group(schema, 5, [x, x], 1, math.e)
        assert _nll(model, [heavy], cfg) == pytest.approx(_nll(model, [twice], cfg), rel=1e-12)

    def test_reduces_to_unweighted_loglik(self):
        # purchase_weight 1, all prices e, price_weight 1 -> every wgt = 1
        schema = default_schema()
        asg = default_assignment(schema)
        model = init_weights(schema, asg, 5, 0.4)
        rng = np.random.default_rng(8)
        groups = []
        for i in range(4):
            rows = [(rng.standard_normal(5), int(rng.random() < 0.3)) for _ in range(6)]
            X, labels = zip(*rows)
            groups.append(make_group(schema, 30, X, labels, math.e, qid=f"q{i}"))
        cfg = ObjectiveConfig(purchase_weight=1, price_weight=1)
        packed = pack_groups(groups)
        p = np.exp(batch_log_pass(model, packed)[1][:, -1])
        y = packed.y
        plain = -float(np.sum(y * np.log(p) + (1 - y) * np.log(1 - p)))
        assert _nll(model, groups, cfg) == pytest.approx(plain, rel=1e-10)

    def test_extreme_logits_stay_finite(self):
        schema = _schema2()
        model = _unit_model(schema, ((0,), (1,)))
        cfg = ObjectiveConfig()
        g = make_group(schema, 5, [[800.0, 900.0], [-900.0, 700.0]], [0, 1])
        val = _nll(model, [g], cfg)
        assert np.isfinite(val)
        bd = loss(model, [g], cfg, "l1")
        assert np.all(np.isfinite(bd.gradient))


def _expectations(model, g):
    """(expected final count, expected latency) of the one query ``g``."""
    counts, latencies = per_query_expectations(model, [g])
    return float(counts[0]), float(latencies[0])


def _stage_passes(model, groups):
    """Unscaled expected number of instances passing stages 1..j, for each j."""
    return np.exp(batch_log_pass(model, pack_groups(groups))[1]).sum(axis=0)


class TestExpectedCount:
    def test_two_instances(self):
        schema = _schema2()
        model = _unit_model(schema, ((0, 1),))
        g = _group_with_final_probs(schema, [0.5, 0.25], mcount=2)
        assert _expectations(model, g)[0] == pytest.approx(0.75, rel=1e-12)

    def test_recall_scaling(self):
        schema = _schema2()
        model = _unit_model(schema, ((0, 1),))
        g = _group_with_final_probs(schema, [0.5, 0.25], mcount=200)
        assert _expectations(model, g)[0] == pytest.approx(75.0, rel=1e-12)

    def test_stage_zero_is_recalled_count(self):
        # all M_q recalled items enter stage 1, so a 1-stage latency is t_1 * M_q
        schema = _schema2()
        model = _unit_model(schema, ((0, 1),))
        g = _group_with_final_probs(schema, [0.5, 0.25], mcount=123)
        assert _expectations(model, g)[1] == pytest.approx(123 * 0.76, rel=1e-12)

    def test_monte_carlo_consistency(self):
        # Eq-7-style expectations vs Bernoulli per-stage survival over 1e4
        # trials, within 3 standard errors.
        schema = default_schema()
        asg = default_assignment(schema)
        model = init_weights(schema, asg, 13, 0.8)
        rng = np.random.default_rng(99)
        group = make_group(schema, 40, rng.standard_normal((12, 5)))
        stage_p = np.stack([stage_probabilities(model, group.query_features, x)
                            for x in group.X])                  # (n, T)

        trials = 10_000
        mc = np.random.default_rng(7)
        draws = mc.random((trials, *stage_p.shape)) < stage_p    # (trials, n, T)
        alive = np.cumprod(draws, axis=2)                        # survived through stage
        counts = alive.sum(axis=1)                               # (trials, T)
        for j in range(1, model.n_stages + 1):
            exact = _stage_passes(model, [group])[j - 1]
            sample_mean = counts[:, j - 1].mean()
            se = counts[:, j - 1].std(ddof=1) / math.sqrt(trials)
            assert abs(sample_mean - exact) <= 3 * max(se, 1e-12), (
                f"stage {j}: MC {sample_mean} vs exact {exact} (se {se})")


class TestExpectedCost:
    def test_arithmetic(self):
        # 100 instances at stage-1 pass prob 0.1: cost = 100*0.02 + 10*0.74
        schema = _schema2()
        model = _unit_model(schema, ((0,), (1,)))
        probs = [0.1] * 100
        g = make_group(schema, 100, [[_logit(p), 0.0] for p in probs])
        assert expected_cost(model, [g]) == pytest.approx(9.4, rel=1e-9)

    def test_zero_pass_limit(self):
        schema = _schema2()
        model = _unit_model(schema, ((0,), (1,)))
        g = make_group(schema, 50, np.tile([-800.0, 0.0], (50, 1)))
        assert expected_cost(model, [g]) == pytest.approx(50 * 0.02)

    def test_single_stage_cost_ignores_weights(self):
        schema = _schema2()
        for seed in range(3):
            model = init_weights(schema, StageAssignment(((0, 1),)), seed, 2.0)
            g = _group_with_final_probs(schema, [0.9, 0.1, 0.5], mcount=10)
            assert expected_cost(model, [g]) == pytest.approx(3 * 0.76)


class TestExpectedLatency:
    def test_single_stage(self):
        schema = _schema2()
        model = _unit_model(schema, ((0,),))
        g = make_group(schema, 100, [[0.0, 0.0]])
        assert _expectations(model, g)[1] == pytest.approx(2.0)

    def test_two_stage_arithmetic(self):
        # M=100, t=(0.02, 0.74), E[Count_1]=25 -> 2 + 18.5
        schema = _schema2()
        model = _unit_model(schema, ((0,), (1,)))
        g = make_group(schema, 100, [[_logit(0.25), 0.0]])
        assert 100 * _stage_passes(model, [g])[0] == pytest.approx(25.0, rel=1e-12)
        assert _expectations(model, g)[1] == pytest.approx(20.5, rel=1e-9)

    def test_zero_probability_floor(self):
        schema = _schema2()
        model = _unit_model(schema, ((0,), (1,)))
        g = make_group(schema, 100, [[-800.0, 0.0]])
        assert _expectations(model, g)[1] == pytest.approx(2.0)


class TestSoftplusPenalty:
    """The penalty of a value z below a threshold is
    ``_scaled_softplus_gap(threshold - z, gamma)``, as ``loss`` runs it."""

    def test_at_threshold(self):
        for gamma in (1.0, 10.0, 100.0):
            assert _scaled_softplus_gap(200.0 - 200.0, gamma) == pytest.approx(
                math.log(2) / gamma, rel=1e-12)

    def test_deep_hinge_region(self):
        val = _scaled_softplus_gap(200.0 - 190.0, 10.0)
        assert val == pytest.approx(10.0, abs=1e-9)

    def test_satisfied_region_vanishes(self):
        val = _scaled_softplus_gap(200.0 - 210.0, 10.0)
        assert 0.0 <= val <= math.exp(-100) / 10 * (1 + 1e-9)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError, match=r"^gamma must be in \(0, inf\), got 0.0$"):
            ObjectiveConfig(gamma=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(ObjectiveConfig)])
    def test_every_field_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            ObjectiveConfig(**{name: value})

    def test_hinge_bound_on_grid(self):
        # 0 <= softplus - hinge <= ln(2)/gamma, equality at z = threshold
        theta = 200.0
        z = np.linspace(theta - 50, theta + 50, 10_000)
        for gamma in (1.0, 10.0, 100.0):
            sp = _scaled_softplus_gap(theta - z, gamma)
            hinge = np.maximum(theta - z, 0.0)
            gap = sp - hinge
            assert gap.min() >= 0.0
            assert gap.max() <= math.log(2) / gamma + 1e-12
            assert abs(z[np.argmax(gap)] - theta) <= (z[1] - z[0]) + 1e-12


def _random_problem(seed, n_groups=6, size=5, t_l=40.0, n_o=8.0):
    schema = default_schema()
    asg = default_assignment(schema)
    rng = np.random.default_rng(seed)
    groups = []
    for i in range(n_groups):
        m = int(rng.integers(size, 40))
        rows = [(rng.standard_normal(5), int(rng.integers(0, 3)), 1.1 + rng.random() * 20)
                for _ in range(size)]
        X, labels, prices = zip(*rows)
        groups.append(make_group(schema, m, X, labels, prices, qid=f"q{i}"))
    model = init_weights(schema, asg, seed + 100, 0.7)
    cfg = ObjectiveConfig(alpha=0.3, beta=0.7, gamma=10.0, delta=0.9,
                          latency_penalty_weight=0.4, result_floor=n_o,
                          latency_ceiling=t_l)
    return model, groups, cfg


class TestLossComposition:
    def test_zero_coefficients_collapse_to_nll(self):
        model, groups, _ = _random_problem(1)
        cfg = ObjectiveConfig(alpha=0.0, beta=0.0, delta=0.0, latency_penalty_weight=0.0)
        nll = _nll(model, groups, cfg)
        for objective in OBJECTIVE_LEVELS:
            assert loss(model, groups, cfg, objective).total == pytest.approx(nll, rel=1e-12)

    def test_zero_weight_single_positive(self):
        schema = _schema2()
        model = init_weights(schema, StageAssignment(((0, 1),)), 0, 0.0)
        cfg = ObjectiveConfig(alpha=1.0, purchase_weight=1, price_weight=1)
        g = make_group(schema, 5, np.zeros((1, 2)), 1, math.e)
        assert loss(model, [g], cfg, "l1").total == pytest.approx(math.log(2), rel=1e-12)

    @pytest.mark.parametrize("want_grad", [True, False])
    def test_one_forward_pass(self, monkeypatch, want_grad):
        model, groups, cfg = _random_problem(2)
        packed = pack_groups(groups)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return batch_log_pass(*args, **kwargs)

        monkeypatch.setattr("cascade_ranker.objective.batch_log_pass", counting)
        loss(model, packed, cfg, "l3", want_grad=want_grad)
        assert len(calls) == 1

    def test_bitwise_recomposition(self):
        model, groups, cfg = _random_problem(2)
        for objective, (beta, delta, latw) in {
            "l1": (0.0, 0.0, 0.0),
            "l2": (cfg.beta, 0.0, 0.0),
            "l3": (cfg.beta, cfg.delta, cfg.latency_penalty_weight),
        }.items():
            bd = loss(model, groups, cfg, objective)
            recomposed = (bd.nll + cfg.alpha * bd.l2 + beta * bd.expected_cost
                          + delta * bd.size_penalty + latw * bd.latency_penalty)
            assert recomposed == bd.total  # bitwise

    # the coefficients each level leaves uncharged, written out here rather
    # than read from the table of terms this checks
    UNCHARGED = {"l1": ("beta", "delta", "latency_penalty_weight"),
                 "l2": ("delta", "latency_penalty_weight"), "l3": ()}

    @given(objective=st.sampled_from(OBJECTIVE_LEVELS),
           coefficients=st.tuples(*[st.floats(0.0, 1e308)] * 3), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_a_level_charges_only_its_terms(self, objective, coefficients, seed):
        model, groups, cfg = _random_problem(seed)
        uncharged = self.UNCHARGED[objective]
        at = loss(model, groups, replace(cfg, **dict(zip(uncharged, coefficients))), objective)
        at_zero = loss(model, groups, replace(cfg, **dict.fromkeys(uncharged, 0.0)), objective)
        assert np.float64(at.total).tobytes() == np.float64(at_zero.total).tobytes()
        assert at.gradient.tobytes() == at_zero.gradient.tobytes()

    def test_l1_reports_but_does_not_charge_an_overflowing_latency(self):
        schema = FeatureSchema(tuple(replace(f, cost=1e304) for f in default_schema().features))
        data = generate(GenConfig(n_queries=40, seed=5), schema)
        model = init_weights(schema, default_assignment(schema), 5, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bd = loss(model, data, ObjectiveConfig(), "l1")
        assert np.isfinite(bd.total) and np.isfinite(bd.gradient).all()
        assert bd.total == bd.nll + ObjectiveConfig().alpha * bd.l2
        assert bd.latency_penalty == math.inf

    @pytest.mark.parametrize("objective", OBJECTIVE_LEVELS)
    def test_threshold_counts_match_report_flags(self, objective):
        from cascade_ranker.evaluator import evaluate
        model, groups, cfg = _generated_problem(2, 0.5)
        per_query = evaluate(model, groups, cfg).per_query
        for want_grad in (True, False):
            bd = loss(model, groups, cfg, objective, want_grad)
            assert bd.queries_below_floor == sum(r.below_floor for r in per_query) == 9
            assert bd.queries_above_ceiling == sum(r.above_latency_ceiling for r in per_query) == 16

    def test_all_components_finite(self):
        model, groups, cfg = _random_problem(3)
        bd = loss(model, groups, cfg, "l3")
        for v in (bd.total, bd.nll, bd.l2, bd.expected_cost, bd.size_penalty,
                  bd.latency_penalty):
            assert np.isfinite(v)
        assert np.all(np.isfinite(bd.gradient))

    def test_monotone_in_beta_and_delta(self):
        model, groups, cfg = _random_problem(4)
        import dataclasses
        lo = loss(model, groups, dataclasses.replace(cfg, beta=0.5), "l2").total
        hi = loss(model, groups, dataclasses.replace(cfg, beta=1.5), "l2").total
        assert hi > lo  # expected_cost > 0 always (stage-1 term)
        bd = loss(model, groups, cfg, "l3")
        if bd.size_penalty > 0:
            lo = loss(model, groups, dataclasses.replace(cfg, delta=0.5), "l3").total
            hi = loss(model, groups, dataclasses.replace(cfg, delta=1.5), "l3").total
            assert hi > lo

    def test_reduction_order_stability(self):
        # vectorized whole-dataset loss vs per-group accumulation
        model, groups, cfg = _random_problem(5, n_groups=12)
        whole = loss(model, groups, cfg, "l3")
        nll = sum(_nll(model, [g], cfg) for g in groups)
        assert nll == pytest.approx(whole.nll, rel=1e-10)
        cost = sum(expected_cost(model, [g]) for g in groups)
        assert cost == pytest.approx(whole.expected_cost, rel=1e-10)
        size_pen = sum(
            float(_scaled_softplus_gap(cfg.result_floor - expected_count(model, g, model.n_stages),
                                       cfg.gamma)) for g in groups)
        assert size_pen == pytest.approx(whole.size_penalty, rel=1e-10)
        # penalty grows when latency exceeds the ceiling: threshold-from-below
        lat_pen = sum(
            float(_scaled_softplus_gap(expected_latency(model, g) - cfg.latency_ceiling, cfg.gamma))
            for g in groups)
        assert lat_pen == pytest.approx(whole.latency_penalty, rel=1e-10)


def _fd_gradient(model, groups, cfg, objective, h=1e-5):
    w = model.weights
    grad = np.zeros_like(w)
    for k in range(w.shape[0]):
        wp, wm = w.copy(), w.copy()
        wp[k] += h
        wm[k] -= h
        fp = loss(with_weights(model, wp), groups, cfg, objective, want_grad=False).total
        fm = loss(with_weights(model, wm), groups, cfg, objective, want_grad=False).total
        grad[k] = (fp - fm) / (2 * h)
    return grad


class TestGradients:
    @pytest.mark.parametrize("objective", ["l1", "l2", "l3"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_central_differences(self, objective, seed):
        model, groups, cfg = _random_problem(seed)
        analytic = loss(model, groups, cfg, objective).gradient
        numeric = _fd_gradient(model, groups, cfg, objective)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-5


# ties (0 and -0 among them), saturated logits and -inf, next to arbitrary values
_LSE_ELEMENTS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, -745.0, -800.0, 800.0, -np.inf]),
    st.floats(-800.0, 800.0),
)


class TestInlineLogsumexp:
    # up to 10 columns: numpy sums 8 or more in pairwise blocks
    @given(st.integers(1, 10).flatmap(lambda T: arrays(
        np.float64, st.tuples(st.integers(1, 20), st.just(T)), elements=_LSE_ELEMENTS)))
    @example(np.full((3, 3), -np.inf))
    @example(np.array([[-np.inf, -np.inf], [800.0, 800.0], [-800.0, -np.inf]]))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_scipy(self, a):
        assert _logsumexp_rows(a).tobytes() == logsumexp(a, axis=1).tobytes()

    @pytest.mark.parametrize("T", range(1, 11))
    def test_bit_identical_on_random_rows(self, T):
        # maxima near 0 leave the last bit of the summed exponentials visible
        a = np.random.default_rng(T).standard_normal((5000, T)) * 4.0 - 2.0
        assert _logsumexp_rows(a).tobytes() == logsumexp(a, axis=1).tobytes()


class TestSuffixSums:
    @given(st.integers(1, 10).flatmap(lambda T: arrays(
        np.float64, st.tuples(st.integers(1, 20), st.just(T)),
        elements=st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0]))))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_flipped_cumsum(self, M):
        expected = np.flip(np.cumsum(np.flip(M, axis=1), axis=1), axis=1)
        assert _suffix_sums(M).tobytes() == expected.tobytes()


def _generated_problem(seed, init_scale):
    """Generated groups of up to 40 rows, so the per-group sums run past the
    8-way unrolled blocks of numpy's pairwise summation."""
    schema = default_schema()
    groups = generate(GenConfig(n_queries=30, group_size_cap=40, seed=seed), schema)
    model = init_weights(schema, default_assignment(schema), seed, init_scale)
    return model, groups, ObjectiveConfig(result_floor=100.0, latency_ceiling=3000.0)


class TestGradientChain:
    @pytest.mark.parametrize("objective", OBJECTIVE_LEVELS)
    @pytest.mark.parametrize("problem", [
        lambda: _random_problem(0),
        lambda: _random_problem(3),
        lambda: _generated_problem(4, 0.5),
        lambda: _generated_problem(5, 40.0),
    ])
    @pytest.mark.parametrize("kwargs", [
        {},
        # a small gamma: penalty coefficients away from 0 and 1
        {"gamma": 0.05},
        # every query below its floor and above its ceiling: coefficients at 1
        {"result_floor": 1e9, "latency_ceiling": 1e-3},
        # near-zero NLL weight on every click and purchase row
        {"purchase_weight": 1.0, "price_weight": 1e-300},
    ])
    def test_bit_identical_to_per_column_chain(self, objective, problem, kwargs):
        import dataclasses
        model, groups, cfg = problem()
        cfg = dataclasses.replace(cfg, **kwargs)
        packed = pack_groups(groups)
        ours = loss(model, packed, cfg, objective).gradient
        assert ours.tobytes() == loss_gradient(model, packed, cfg, objective).tobytes()
