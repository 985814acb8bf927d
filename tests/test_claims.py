"""The paper's first claim, that the cost-aware objectives trade a little
accuracy for lower cost and fewer queries outside their result-count and
latency bounds, as orderings of held-out reports.

Each seed pair (training data seed, test data seed) generates 1000 training
and 1000 test queries from the default generator; each model trains for 10
epochs under the default config but for its level and beta, and is reported
on the test queries, its cost as a ratio to the all-features single-stage
cost. The tests pin orderings only, never a figure: an ordering that fails
is a finding about the reproduction, to be reported rather than tuned away.
"""

import functools

import pytest

from cascade_ranker.datagen import GenConfig, default_assignment, default_schema, generate
from cascade_ranker.evaluator import evaluate
from cascade_ranker.objective import ObjectiveConfig
from cascade_ranker.trainer import TrainConfig, train

SEED_PAIRS = ((0, 1), (2, 3), (4, 5))


@pytest.fixture(scope="session")
def report():
    """``report(pair, objective, beta)``: the test report of the model trained
    at ``objective`` and ``beta`` on seed pair ``pair``, trained once per
    session for every test that reads it."""
    schema = default_schema()
    assignment = default_assignment(schema)

    @functools.cache
    def queries(seed):
        return generate(GenConfig(n_queries=1000, seed=seed), schema)

    @functools.cache
    def trained(pair, objective, beta):
        cfg = ObjectiveConfig(beta=beta)
        model, _ = train(queries(pair[0]), schema, assignment, cfg,
                         TrainConfig(objective=objective, epochs=10))
        test = queries(pair[1])
        return evaluate(model, test, cfg,
                        baseline_cost=float(test.n_instances * schema.costs().sum()))

    return lambda pair, objective, beta=1.0: trained(pair, objective, beta)


@pytest.mark.parametrize("pair", SEED_PAIRS)
def test_l2_costs_less_than_l1(report, pair):
    assert report(pair, "l2").expected_cost_ratio < report(pair, "l1").expected_cost_ratio


@pytest.mark.parametrize("pair", SEED_PAIRS)
def test_l3_puts_at_least_5_times_fewer_queries_above_the_ceiling_than_l1(report, pair):
    l1, l3 = report(pair, "l1"), report(pair, "l3")
    assert 5 * l3.fraction_above_latency_ceiling <= l1.fraction_above_latency_ceiling


@pytest.mark.parametrize("pair", SEED_PAIRS)
def test_l3_puts_fewer_queries_below_the_floor_than_l2(report, pair):
    assert report(pair, "l3").fraction_below_floor < report(pair, "l2").fraction_below_floor


@pytest.mark.parametrize("pair", SEED_PAIRS)
def test_a_larger_beta_lowers_the_l2_cost(report, pair):
    assert (report(pair, "l2", 10.0).expected_cost_ratio
            < report(pair, "l2", 1.0).expected_cost_ratio)
