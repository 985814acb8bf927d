"""Report text and records pinned at fixed seeds.

The strings were produced by the per-query evaluator and simulator that the
segmented kernels replaced. A change that alters any of them changes the
numbers a user sees, which a refactor or speed-up must not do. The text
rounds to 6 digits, so the per-query records are pinned by sha256 and the
two-stage baseline by the ``repr`` of every figure, which catches a change
in the last bit. The model files written after two epochs of SGD at each
objective level are pinned by sha256 too: their 17-digit weights carry the
last bit of every loss gradient and update of the training run. The
records of those runs' training logs are pinned by sha256 of their JSON
lines without the wall time, which carry every batch loss sum in full.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from cascade_ranker.datagen import GenConfig, default_assignment, default_schema, generate
from cascade_ranker.evaluator import baseline_two_stage, evaluate
from cascade_ranker.objective import ObjectiveConfig
from cascade_ranker.simulator import simulate
from cascade_ranker.trainer import TrainConfig, save_model, train

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
EVAL_RECORDS_SHA256 = "009c74b7d73ca09a2d610ebe5b468c6cb165ee9a84136333f76b13e827728543"
SIM_RECORDS_SHA256 = "bc76f6499aa22ba6d9fcc20e7359a630b2fbf5eb8f7a3a27457191031a664381"
STOCHASTIC_SIM_RECORDS_SHA256 = "4f5822388fdfaacb4938b0d55d095eb883f6e376b28e34fe9adc77aadc91306e"
TWO_STAGE_RECORDS_SHA256 = "d45929e9f6e8f5255a3e85cb6183e7c4a8334565ee873e834349035c337a4d1d"
TWO_STAGE_FIGURES = {
    "auc": "0.7132772236364802",
    "expected_cost": "4682.599999999999",
    "expected_cost_ratio": "1.0",
    "mean_final_count": "4025.21675",
    "fraction_below_floor": "0.0",
    "fraction_above_latency_ceiling": "0.59",
    "mean_latency_units": "7528.538149999999",
    "p95_latency_units": "14085.488499999998",
    "mean_latency_ms": "50.19025433333333",
    "p95_latency_ms": "93.90325666666665",
}
MODEL_SHA256 = {
    "l1": "0625e4b5d19f764d045fa0002109855c401a0e6dc095081cbf22692945199bac",
    "l2": "583b2d884cfb165bd946b28ebc1f8832f29797354da03a54f69201b07e53aba9",
    "l3": "f4901dee4b196f498de12f36ba8729c4125c3289494891c9a7f1e791444e323e",
}
TRAINLOG_SHA256 = {
    "l1": "2f248c1cf8b136501ed6ea514c83ce4bfcc1943633984d80934daff97642c40b",
    "l2": "e98dded8ff6e3e876a762bae619ae03e1efabfc505d915e43a1c53cc5f69ea64",
    "l3": "59863802e9fd45d270bb065d456eea8afc7a8d4197a2259bdf711cb5c4352e3a",
}
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


def _records_sha256(report, tmp_path) -> str:
    path = tmp_path / "records.ndjson"
    report.write_records(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_eval_records(fixture, tmp_path):
    model, data, cfg = fixture
    assert _records_sha256(evaluate(model, data, cfg), tmp_path) == EVAL_RECORDS_SHA256


def test_sim_records(fixture, tmp_path):
    model, data, cfg = fixture
    assert _records_sha256(simulate(model, data, cfg), tmp_path) == SIM_RECORDS_SHA256


def test_stochastic_sim_records(fixture, tmp_path):
    model, data, cfg = fixture
    report = simulate(model, data, cfg, stochastic=True, seed=11)
    assert _records_sha256(report, tmp_path) == STOCHASTIC_SIM_RECORDS_SHA256


def test_two_stage_figures(fixture, tmp_path):
    _, data, cfg = fixture
    report = baseline_two_stage(data, default_schema(), 0, 6000, cfg,
                                TrainConfig(objective="l3", epochs=2, seed=11))
    assert {k: repr(getattr(report, k)) for k in TWO_STAGE_FIGURES} == TWO_STAGE_FIGURES
    assert _records_sha256(report, tmp_path) == TWO_STAGE_RECORDS_SHA256


@pytest.mark.parametrize("objective", sorted(MODEL_SHA256))
def test_trained_model_file(fixture, tmp_path, objective):
    _, data, cfg = fixture
    schema = default_schema()
    model, _ = train(data, schema, default_assignment(schema), cfg,
                     TrainConfig(objective=objective, epochs=2, seed=11))
    path = tmp_path / "model.txt"
    save_model(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MODEL_SHA256[objective]


@pytest.mark.parametrize("objective", sorted(TRAINLOG_SHA256))
def test_training_log_records(fixture, objective):
    _, data, cfg = fixture
    schema = default_schema()
    _, log = train(data, schema, default_assignment(schema), cfg,
                   TrainConfig(objective=objective, epochs=2, seed=11))
    lines = "".join(
        json.dumps({k: v for k, v in asdict(r).items() if k != "wall_time_s"}) + "\n"
        for r in log.records
    )
    assert hashlib.sha256(lines.encode()).hexdigest() == TRAINLOG_SHA256[objective]
