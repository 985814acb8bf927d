import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_ranker.cascade import batch_final_probs
from cascade_ranker.core import (
    Feature,
    FeatureSchema,
    StageAssignment,
    pack_groups,
    stage_costs,
)
from cascade_ranker.datagen import GenConfig, default_assignment, default_schema, generate
from cascade_ranker.objective import ObjectiveConfig
from cascade_ranker.simulator import SimQueryRecord, plan, serve_query, simulate
from cascade_ranker.trainer import init_weights
from groups import make_group
from oracle import expected_count
from oracle import plan as oracle_plan


def _logit(p):
    return math.log(p / (1.0 - p))


def _schema2():
    return FeatureSchema((Feature("a", 0.02), Feature("b", 0.74)), query_bin_edges=(10,))


def _unit_model(schema, stages):
    from cascade_ranker.core import CascadeModel
    asg = StageAssignment(stages)
    item = tuple(np.array([1.0] + [0.0] * (len(s) - 1)) for s in asg.stages)
    query = tuple(np.zeros(schema.query_feature_dim) for _ in asg.stages)
    return CascadeModel.from_stages(item, query, asg, schema)


def _group_with_stage1_probs(schema, probs, mcount=None, second_feature=0.0):
    mcount = mcount if mcount is not None else len(probs)
    return make_group(schema, mcount, [[_logit(p), second_feature] for p in probs])


def _serve_loop_records(model, data, cfg, stochastic=False, seed=0):
    """Per-query reference for ``simulate``: the per-query loop's keep
    counts, then serve_query, then scale by M_q / N_q, one query at a time."""
    records = []
    for idx, g in enumerate(data):
        rng = np.random.default_rng([seed, idx]) if stochastic else None
        served = serve_query(oracle_plan(model, g), model, g, stochastic=stochastic, rng=rng)
        scale = g.recalled_count / g.size
        latency = served.realized_cost * scale
        final = len(served.ranking) * scale
        records.append(SimQueryRecord(
            query_id=g.query_id, recalled_count=g.recalled_count, size=g.size,
            final_count=final, realized_cost=latency,
            realized_latency_ms=latency / cfg.cost_units_per_ms,
            below_floor=final < cfg.result_floor,
            above_latency_ceiling=latency > cfg.latency_ceiling,
        ))
    return tuple(records)


class TestPlan:
    def test_ceiling_of_expectation(self):
        # 100 items, every final probability 0.75 -> expected count 75
        schema = _schema2()
        model = _unit_model(schema, ((0, 1),))
        g = _group_with_stage1_probs(schema, [0.75] * 100)
        assert plan(model, g) == [75]

    def test_floor_of_one_survivor(self):
        schema = _schema2()
        model = _unit_model(schema, ((0, 1),))
        g = _group_with_stage1_probs(schema, [0.2])
        assert plan(model, g) == [1]

    def test_counts_non_increasing(self):
        schema = default_schema()
        asg = default_assignment(schema)
        for seed in range(4):
            model = init_weights(schema, asg, seed, 0.9)
            data = generate(GenConfig(n_queries=6, seed=seed), schema)
            for g in data:
                counts = plan(model, g)
                assert counts == oracle_plan(model, g)
                assert all(a >= b for a, b in zip(counts, counts[1:]))
                assert all(c >= 1 for c in counts)

    def test_counts_simulate_replays(self):
        # one stage of identical rows: the pass sum lands within an ulp of a
        # whole number, where the order of the additions decides the ceil
        schema = _schema2()
        model = _unit_model(schema, ((0, 1),))
        for n in range(8, 24):
            for k in range(1, n):
                g = _group_with_stage1_probs(schema, [k / n] * n)
                counts = plan(model, g)
                assert counts == oracle_plan(model, g)
                assert simulate(model, [g], ObjectiveConfig()).per_query[0].final_count == counts[0]

    def test_sample_scaling_matches_recall_scaled_expectation(self):
        # the keep count is the recall-scaled expectation times N_q / M_q:
        # ceil(100 * 0.75 * 10 / 100) for 10 samples of 100 recalled items
        schema = _schema2()
        model = _unit_model(schema, ((0, 1),))
        g_scaled = _group_with_stage1_probs(schema, [0.75] * 10, mcount=100)
        assert plan(model, g_scaled) == [8]


class TestServeQuery:
    def test_keep_all_matches_full_ranking(self):
        schema = default_schema()
        asg = default_assignment(schema)
        model = init_weights(schema, asg, 3, 0.8)
        rng = np.random.default_rng(0)
        g = make_group(schema, 12, rng.standard_normal((12, 5)))
        served = serve_query([12, 12, 12], model, g)
        finals = batch_final_probs(model, [g])
        want = np.lexsort((np.arange(12), -finals))
        np.testing.assert_array_equal(served.ranking, want)

    def test_two_stage_cost_arithmetic(self):
        # stage-1 cumulative probs (0.9, 0.8, 0.2, 0.1), keep 2 -> top two
        # enter stage 2; cost = 4 t1 + 2 t2
        schema = _schema2()
        model = _unit_model(schema, ((0,), (1,)))
        g = _group_with_stage1_probs(schema, [0.9, 0.8, 0.2, 0.1])
        served = serve_query([2, 2], model, g)
        t = stage_costs(model.assignment, model.schema)
        assert served.realized_cost == pytest.approx(4 * t[0] + 2 * t[1])
        assert served.stage_entrants == (4, 2)
        assert set(served.ranking) == {0, 1}

    def test_deterministic(self):
        schema = default_schema()
        asg = default_assignment(schema)
        model = init_weights(schema, asg, 5, 0.7)
        rng = np.random.default_rng(2)
        g = make_group(schema, 9, rng.standard_normal((9, 5)))
        a = serve_query([5, 3, 2], model, g)
        b = serve_query([5, 3, 2], model, g)
        assert a == b

    def test_filtering_never_increases_cost(self):
        schema = default_schema()
        asg = default_assignment(schema)
        model = init_weights(schema, asg, 7, 0.6)
        rng = np.random.default_rng(3)
        g = make_group(schema, 15, rng.standard_normal((15, 5)))
        keep_all = serve_query([15, 15, 15], model, g)
        filtered = serve_query([10, 4, 2], model, g)
        assert filtered.realized_cost < keep_all.realized_cost

    def test_ranking_consistency_among_survivors(self):
        # survivors keep the same relative order as the unfiltered ranking
        schema = default_schema()
        asg = default_assignment(schema)
        model = init_weights(schema, asg, 11, 0.8)
        rng = np.random.default_rng(4)
        g = make_group(schema, 20, rng.standard_normal((20, 5)))
        full = serve_query([20, 20, 20], model, g).ranking
        filtered = serve_query([12, 6, 4], model, g).ranking
        pos = {item: i for i, item in enumerate(full)}
        assert list(filtered) == sorted(filtered, key=lambda it: pos[it])

    def test_realized_counts_equal_plan(self):
        schema = default_schema()
        asg = default_assignment(schema)
        model = init_weights(schema, asg, 13, 0.5)
        rng = np.random.default_rng(5)
        g = make_group(schema, 18, rng.standard_normal((18, 5)))
        counts = plan(model, g)
        served = serve_query(counts, model, g)
        assert served.stage_survivors == tuple(counts)

    def test_stochastic_matches_expected_counts(self):
        # Bernoulli-pass replay survivor means vs the exact expectations,
        # within 3 standard errors over 1e4 trials
        schema = default_schema()
        asg = default_assignment(schema)
        model = init_weights(schema, asg, 17, 0.6)
        rng = np.random.default_rng(6)
        g = make_group(schema, 10, rng.standard_normal((10, 5)))
        trials = 10_000
        counts = np.zeros((trials, 3))
        for t in range(trials):
            served = serve_query([], model, g, stochastic=True,
                                 rng=np.random.default_rng([9, t]))
            counts[t] = served.stage_survivors
        for j in (1, 2, 3):
            exact = expected_count(model, g, j)
            se = counts[:, j - 1].std(ddof=1) / math.sqrt(trials)
            assert abs(counts[:, j - 1].mean() - exact) <= 3 * max(se, 1e-9)


class TestSimulate:
    def test_empty_data(self):
        schema, asg = default_schema(), default_assignment(schema=None)
        model = init_weights(schema, asg, 0, 0.1)
        report = simulate(model, [], ObjectiveConfig())
        assert report.total_cost == 0.0 and report.per_query == ()

    def test_aggregates_recomputable_from_records(self):
        schema, asg = default_schema(), default_assignment(schema=None)
        data = generate(GenConfig(n_queries=40, seed=9), schema)
        model = init_weights(schema, asg, 2, 0.5)
        cfg = ObjectiveConfig()
        rep = simulate(model, data, cfg)
        lat = np.array([r.realized_cost for r in rep.per_query])
        assert rep.total_cost == pytest.approx(lat.sum())
        assert rep.mean_latency_units == pytest.approx(lat.mean())
        assert rep.p95_latency_units == pytest.approx(np.percentile(lat, 95))
        assert rep.fraction_below_floor == pytest.approx(
            np.mean([r.final_count < cfg.result_floor for r in rep.per_query]))

    def test_final_count_bounded_by_recalled(self):
        schema, asg = default_schema(), default_assignment(schema=None)
        data = generate(GenConfig(n_queries=30, seed=12), schema)
        model = init_weights(schema, asg, 4, 0.7)
        rep = simulate(model, data, ObjectiveConfig())
        for r in rep.per_query:
            assert r.final_count <= r.recalled_count

    def test_matches_per_query_serve_loop(self):
        schema, asg = default_schema(), default_assignment(schema=None)
        data = generate(GenConfig(n_queries=15, seed=1), schema)
        model = init_weights(schema, asg, 1, 0.4)
        cfg = ObjectiveConfig()
        for stochastic in (False, True):
            rep = simulate(model, data, cfg, stochastic=stochastic, seed=4)
            oracle = _serve_loop_records(model, data, cfg, stochastic, seed=4)
            for got, want in zip(rep.per_query, oracle, strict=True):
                assert got == want
            assert rep.total_cost == sum(r.realized_cost for r in oracle)

    def test_packed_input_same_report(self):
        schema, asg = default_schema(), default_assignment(schema=None)
        data = generate(GenConfig(n_queries=10, seed=6), schema)
        model = init_weights(schema, asg, 6, 0.5)
        cfg = ObjectiveConfig()
        assert simulate(model, pack_groups(data), cfg) == simulate(model, data, cfg)


_SEEDS = st.integers(min_value=0, max_value=2**16)


class TestReplayProperties:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data_seed=_SEEDS, model_seed=_SEEDS, sim_seed=_SEEDS,
           n_queries=st.integers(1, 6), cap=st.integers(1, 25),
           scale=st.floats(0.05, 3.0), stochastic=st.booleans())
    def test_simulate_equals_serve_loop(self, data_seed, model_seed, sim_seed, n_queries,
                                        cap, scale, stochastic):
        schema, asg = default_schema(), default_assignment(schema=None)
        data = generate(GenConfig(n_queries=n_queries, group_size_cap=cap, seed=data_seed),
                        schema)
        model = init_weights(schema, asg, model_seed, scale)
        cfg = ObjectiveConfig()
        rep = simulate(model, data, cfg, stochastic=stochastic, seed=sim_seed)
        assert rep.per_query == _serve_loop_records(model, data, cfg, stochastic, sim_seed)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(seed=_SEEDS, size=st.integers(1, 40), extra=st.integers(0, 500),
           scale=st.floats(0.0, 5.0))
    def test_plan_counts_never_increase(self, seed, size, extra, scale):
        schema, asg = default_schema(), default_assignment(schema=None)
        model = init_weights(schema, asg, seed, scale)
        rng = np.random.default_rng(seed)
        mcount = size + extra
        g = make_group(schema, mcount, 3.0 * rng.standard_normal((size, schema.item_dim)),
                       prices=1.0)
        counts = plan(model, g)
        assert len(counts) == asg.n_stages
        assert 1 <= counts[0] <= size
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=_SEEDS, size=st.integers(1, 40), extra=st.integers(0, 5000),
           scale=st.sampled_from([0.0, 0.05, 1.0, 5.0, 1e3]),
           stages=st.sampled_from([((0, 1, 2, 3, 4),), ((0, 1), (2,), (3, 4)),
                                   ((0,), (1,), (2,), (3,), (4,))]))
    def test_plan_equals_per_query_loop(self, seed, size, extra, scale, stages):
        # the funnel's bincount sums go through ceil exactly as the per-query
        # row sums do, also when saturated weights make pass sums whole numbers
        schema = default_schema()
        model = init_weights(schema, StageAssignment(stages), seed, scale)
        rng = np.random.default_rng(seed)
        g = make_group(schema, size + extra, 3.0 * rng.standard_normal((size, schema.item_dim)))
        assert plan(model, g) == oracle_plan(model, g)
