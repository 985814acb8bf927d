"""Report text pinned at fixed seeds.

The strings were produced by the per-query evaluator and simulator that the
segmented kernels replaced. A change that alters any of them changes the
numbers a user sees, which a refactor or speed-up must not do.
"""

import pytest

from cascade_ranker.datagen import GenConfig, default_assignment, default_schema, generate
from cascade_ranker.evaluator import evaluate
from cascade_ranker.objective import ObjectiveConfig
from cascade_ranker.simulator import simulate
from cascade_ranker.trainer import TrainConfig, train

EVAL_TEXT = (
    "auc 0.824287\nexpected_cost 1923.46\nexpected_cost_ratio 1\nmean_final_count 423.411\n"
    "fraction_below_floor 0.205\nfraction_above_latency_ceiling 0.275\n"
    "mean_latency_units 2863.25\np95_latency_units 8344.5\nmean_latency_ms 19.0883\n"
    "p95_latency_ms 55.63\n"
)
SIM_TEXT = (
    "traffic_multiplier 1\ntotal_cost 652254\nutilization_proxy 652254\n"
    "mean_latency_units 3261.27\np95_latency_units 9534.49\nmean_latency_ms 21.7418\n"
    "p95_latency_ms 63.5632\nfraction_below_floor 0.185\nfraction_above_latency_ceiling 0.305\n"
)
STOCHASTIC_SIM_TEXT = (
    "traffic_multiplier 1\ntotal_cost 565265\nutilization_proxy 565265\n"
    "mean_latency_units 2826.32\np95_latency_units 8496.61\nmean_latency_ms 18.8422\n"
    "p95_latency_ms 56.6441\nfraction_below_floor 0.56\nfraction_above_latency_ceiling 0.265\n"
)


@pytest.fixture(scope="module")
def fixture():
    """200 generated queries and a 2-epoch l3 model, all at seed 11."""
    schema = default_schema()
    data = generate(GenConfig(n_queries=200, seed=11), schema)
    cfg = ObjectiveConfig(latency_ceiling=4000.0)
    model, _ = train(data, schema, default_assignment(schema), cfg,
                     TrainConfig(objective="l3", epochs=2, seed=11))
    return model, data, cfg


def test_eval_text(fixture):
    model, data, cfg = fixture
    assert evaluate(model, data, cfg).to_text() == EVAL_TEXT


def test_sim_text(fixture):
    model, data, cfg = fixture
    assert simulate(model, data, cfg).to_text() == SIM_TEXT


def test_stochastic_sim_text(fixture):
    model, data, cfg = fixture
    assert simulate(model, data, cfg, stochastic=True, seed=11).to_text() == STOCHASTIC_SIM_TEXT
