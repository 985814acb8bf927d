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
The ``dataset.txt`` that ``generate`` and ``write_dataset`` give is pinned by
sha256 for configs that reach each branch of the generator's draws, and for
hand-made groups that reach each branch of the writer.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from cascade_ranker.datagen import (
    GenConfig,
    default_assignment,
    default_schema,
    generate,
    write_dataset,
)
from cascade_ranker.evaluator import baseline_two_stage, evaluate
from cascade_ranker.objective import ObjectiveConfig
from cascade_ranker.simulator import simulate
from cascade_ranker.trainer import TrainConfig, save_model, train
from groups import edge_groups

EVAL_TEXT = (
    "auc 0.824287\nexpected_cost 1923.46\nexpected_cost_ratio 1\nmean_final_count 423.411\n"
    "fraction_below_floor 0.205\nfraction_above_latency_ceiling 0.275\n"
    "mean_latency_units 2863.25\np95_latency_units 8344.5\nmean_latency_ms 19.0883\n"
    "p95_latency_ms 55.63\n"
)
SIM_TEXT = (
    "total_cost 652254\nmean_latency_units 3261.27\n"
    "p95_latency_units 9534.49\nmean_latency_ms 21.7418\n"
    "p95_latency_ms 63.5632\nfraction_below_floor 0.185\nfraction_above_latency_ceiling 0.305\n"
)
EVAL_RECORDS_SHA256 = "367217ac13c58a14bd6497146fbc1179be63ab49b7df4faa478d0c366236d89c"
SIM_RECORDS_SHA256 = "543610065bbcb6469ff42bb1c711003eb3d0224a0e1b53aa47c3819dd9836489"
STOCHASTIC_SIM_RECORDS_SHA256 = "d76efe98297e64874f10f75299a65e07d2ea5531a14fc65ef2918887a0234d2f"
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
    "l2": "fd66882cd6f8e414d8742f8d70cc787a0d8a0a27ffd1394dda025f3a082e5670",
    "l3": "30ca7909e356b218375fdf15de298887861fc5f374e4f8a7e1cf05dbc70aabd3",
}
TRAINLOG_SHA256 = {
    "l1": "7ac8722b6302822e68e51448e927d0cc9365a23d31577de204fa77e615e521d3",
    "l2": "db9ca18c9d42cbd59ecb1251790bd0dda020e95fc412d12f41755d116694c4b6",
    "l3": "c1739afbcbadd4551d9229d78bd98efc4626f8a5e8d3b61081b84b8f9ac7609a",
}
# GenConfig fields of each pinned dataset; a purchase fraction of 0 or 1
# draws no purchase uniforms, and a range (k, k) draws no log-uniform count
DATASET_CONFIGS = {
    "default": {"seed": 7},
    "cap200": {"n_queries": 100, "group_size_cap": 200, "seed": 7},
    "cap1": {"n_queries": 300, "group_size_cap": 1, "seed": 7},
    "no_purchases": {"n_queries": 300, "purchase_fraction_of_positives": 0.0, "seed": 7},
    "all_purchases": {"n_queries": 300, "purchase_fraction_of_positives": 1.0, "seed": 7},
    "equal_range_ends": {"n_queries": 300, "head_mcount_range": (5000, 5000),
                         "tail_mcount_range": (7, 7), "seed": 7},
    "odd_count": {"n_queries": 513, "seed": 3},
    "one_query": {"n_queries": 1, "seed": 3},
}
DATASET_SHA256 = {
    "default": "294fbaaa3310bca2a357ff5672257a321511d4981f3ecd2bb6ab15b1904b9634",
    "cap200": "0b9525ad8f2fdc6dcae5ad41c05756eaeacd60f00ba0d3d55af1cb4589a8ae4b",
    "cap1": "ee69e54bb3919b0d05469aadb12e45f10e03e542ee64bf475267ca7da8454deb",
    "no_purchases": "4e9cd7f351e724a1647c3db01f8712702b0948af21e298b92817637b3fe8e2c8",
    "all_purchases": "936aafb7f59dd197de2d25a9084fb8e8da132c968f47ce0249f6fe778a798a71",
    "equal_range_ends": "c36fc5d47c1d4e71efda46464e790d1ed85c4ff834f1ca9021ac33b647a4f34f",
    "odd_count": "f7b1bc63c9503faa0863f0df67b8492384ca36e311416c6ed01fdee0780a5c4b",
    "one_query": "cfe08d824d4dfc281acc17c26adbc60d9c120bcd3d8523fafe2c979f935f026e",
}
# every feature index on every line: a zero feature is written as k:0, -0.0 as k:-0
EDGE_DATASET_SHA256 = "8f76a1a155d7b5f22973e6967633d4717fb144859ce4d0e122baeeaf1ed2dfc5"
STOCHASTIC_SIM_TEXT = (
    "total_cost 567591\nmean_latency_units 2837.96\n"
    "p95_latency_units 8525.21\nmean_latency_ms 18.9197\n"
    "p95_latency_ms 56.8347\nfraction_below_floor 0.61\nfraction_above_latency_ceiling 0.255\n"
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


def _file_sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(DATASET_SHA256))
def test_generated_dataset_file(tmp_path, name):
    path = tmp_path / "dataset.txt"
    write_dataset(path, generate(GenConfig(**DATASET_CONFIGS[name]), default_schema()))
    assert _file_sha256(path) == DATASET_SHA256[name]


def test_edge_groups_dataset_file(tmp_path):
    path = tmp_path / "dataset.txt"
    write_dataset(path, edge_groups(default_schema()))
    assert _file_sha256(path) == EDGE_DATASET_SHA256
