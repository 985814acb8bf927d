import contextlib
import hashlib
import inspect
import io
import json
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascade_ranker import datagen
from cascade_ranker.cli import (
    _FLAG_TO_KEY,
    build_parser,
    default_config,
    main,
    rerun_from_manifest,
)
from cascade_ranker.core import pack_groups, validate_dataset
from cascade_ranker.evaluator import PerQueryRecord
from cascade_ranker.objective import loss
from cascade_ranker.simulator import SimQueryRecord
from cascade_ranker.trainer import (
    GRADCHECK_H,
    GRADCHECK_TOLERANCE,
    MAX_INIT_SCALE,
    EpochRecord,
    gradient_check,
)


@pytest.fixture()
def small_config(tmp_path):
    """Config scaled down for fast CLI runs."""
    cfg = default_config()
    cfg["datagen"].update({"n_queries": 40, "seed": 5})
    cfg["train"].update({"epochs": 3, "seed": 5})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _gen(tmp_path, small_config, name="data"):
    out = tmp_path / name
    assert main(["datagen", "--config", str(small_config), "--out", str(out)]) == 0
    return out / "dataset.txt"


def _train(tmp_path, small_config, data, name="run"):
    out = tmp_path / name
    assert main(["train", "--config", str(small_config), "--dataset", str(data),
                 "--out", str(out)]) == 0
    return out / "model.txt"


def _with_first_line(data, name, **values):
    """Copy ``name`` of the dataset at ``data`` whose first line has the
    value of each tag in ``values`` (say ``price="inf"``) in place of its own."""
    lines = data.read_text().splitlines(keepends=True)
    fields = [next((f"{t}:{v}" for t, v in values.items() if f.startswith(f"{t}:")), f)
              for f in lines[0].split(" ")]
    bad = data.parent / name
    bad.write_text(" ".join(fields) + "".join(lines[1:]))
    return bad


def _with_nan_feature(data):
    """Copy of the dataset at ``data`` whose first line has a NaN feature 0."""
    return _with_first_line(data, "nan_dataset.txt", **{"0": "nan"})


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _assert_strict_records(tmp_path, small_config, command, row):
    """Every line of the records ``command`` writes is strict JSON (no NaN or
    Infinity) with the keys of ``row`` in order, one line per query."""
    data = _gen(tmp_path, small_config)
    model = _train(tmp_path, small_config, data)
    out = tmp_path / command
    assert main([command, "--config", str(small_config), "--dataset", str(data),
                 "--model", str(model), "--out", str(out)]) == 0
    name = "eval_records.ndjson" if command == "eval" else "sim_records.ndjson"
    lines = (out / name).read_text().splitlines()
    assert len(lines) == 40
    for line in lines:
        assert list(json.loads(line, parse_constant=_reject_constant)) == list(row._fields)


def _with_objective(tmp_path, small_config, key, value):
    """Copy of ``small_config`` whose objective ``key`` is ``value``."""
    cfg = json.loads(small_config.read_text())
    cfg["objective"][key] = value
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps(cfg))
    return path


def _with_costs(tmp_path, small_config, cost, **datagen):
    """Copy of ``small_config`` whose every feature costs ``cost`` and whose
    datagen keys in ``datagen`` take those values."""
    cfg = json.loads(small_config.read_text())
    for feature in cfg["schema"]["features"]:
        feature["cost"] = cost
    cfg["datagen"].update(datagen)
    path = tmp_path / "costly.json"
    path.write_text(json.dumps(cfg))
    return path


def _fails_cleanly(argv, capsys, *needles):
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err
    return err


class TestDatagenCommand:
    def test_output_feeds_train(self, tmp_path, small_config):
        data = _gen(tmp_path, small_config)
        out = tmp_path / "run"
        rc = main(["train", "--config", str(small_config),
                   "--dataset", str(data), "--out", str(out)])
        assert rc == 0
        assert (out / "model.txt").exists()
        assert (out / "trainlog.ndjson").exists()
        assert (out / "manifest.json").exists()
        records = [json.loads(l) for l in (out / "trainlog.ndjson").read_text().splitlines()]
        assert len(records) == 3 and records[0]["epoch"] == 1

    def test_same_seed_byte_identical(self, tmp_path, small_config):
        a = _gen(tmp_path, small_config, "a")
        b = _gen(tmp_path, small_config, "b")
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_fraction_names_field(self, tmp_path, capsys):
        cfg = default_config()
        cfg["datagen"]["positives_ratio"] = 1.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        rc = main(["datagen", "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc != 0
        assert "positives_ratio" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", [0, -1])
    def test_non_positive_price_sigma_exits_1(self, tmp_path, capsys, sigma):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"datagen": {"price_sigma_log": sigma}}))
        err = _fails_cleanly(["datagen", "--config", str(path), "--out", str(tmp_path / "x")],
                             capsys, f"error: price_sigma_log must be in (0, inf), got {sigma}")
        assert "Warning" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("config", [
        {"purchase_fraction_of_positives": 1e-308},
        {"purchase_price_tilt": 1e308},
        {"price_mean_log": -1e308},
    ], ids=["tiny-purchase-fraction", "huge-tilt", "huge-negative-price-mean"])
    def test_saturated_purchase_probability_warns_nothing(self, tmp_path, capsys, config):
        # the purchase probability is exactly 0 or 1 at these limits
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"datagen": {"n_queries": 40, **config}}))
        capsys.readouterr()
        assert main(["datagen", "--config", str(path), "--out", str(tmp_path / "x")]) == 0
        assert "Warning" not in capsys.readouterr().err
        schema = datagen.default_schema()
        data = datagen.read_dataset(tmp_path / "x" / "dataset.txt", schema)
        assert len(data) == 40 and validate_dataset(pack_groups(data), schema) == []

    @pytest.mark.parametrize("quality, named", [
        # generate rejects the config
        ([{"signal_strength": 1.0}], "error: feature_quality has 1 entries for 5 schema features"),
        # the config rejects an infinite noise
        ([{"signal_strength": 1.0, "noise": float("inf")}] * 5,
         "error: noise must be finite, got inf"),
        # generated data with a NaN feature, which its validation rejects
        (None,
         "generated data failed validation: ['group q00000 instance 0: non-finite feature value'"),
    ], ids=["generate-raises", "config-rejects", "validation-fails"])
    def test_failure_leaves_no_output(self, tmp_path, capsys, monkeypatch, quality, named):
        config = {"n_queries": 5}
        if quality is None:
            def generate_nan(cfg, schema):
                data = datagen.generate(cfg, schema)
                data.X[0, 0] = np.nan       # row 0 is instance 0 of query q00000
                return data

            monkeypatch.setattr("cascade_ranker.cli.generate", generate_nan)
        else:
            config["feature_quality"] = quality
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"datagen": config}))
        capsys.readouterr()
        rc = main(["datagen", "--config", str(path), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert named in err and "Traceback" not in err and "Warning" not in err
        assert not (tmp_path / "x").exists()


# sha256 of json.dumps(default_config(), indent=2): the manifests embed the
# resolved config, so a changed default changes every manifest
DEFAULT_CONFIG_SHA256 = "e0f1236d3cec00fc706888529c6ab702c645c518d3d555084a414784b862583d"


class TestConfigBoundary:
    def test_default_config_json_pinned(self):
        text = json.dumps(default_config(), indent=2)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DEFAULT_CONFIG_SHA256

    @pytest.mark.parametrize("content, named", [
        ("[1, 2]", "expected a JSON object, got list"),
        ('{"objective": {"alhpa": 0.1}}', "unknown key 'alhpa' in section 'objective'"),
        ('{"train": {"epoch": 1}}', "unknown key 'epoch' in section 'train'"),
        ('{"objectve": {}}', "unknown section 'objectve'"),
        ('{"objective": 0.1}', "section 'objective' is not an object"),
        ('{"schema": {"stages": [["sales_volume"], ["no_such_feature"]]}}',
         "section 'schema', key 'stages': no feature named 'no_such_feature'"),
        ('{"objective": {"squared_l2": false}}', "unknown key 'squared_l2' in section 'objective'"),
        ('{"objective": {"penalty_per_instance": true}}',
         "unknown key 'penalty_per_instance' in section 'objective'"),
        ('{"objective": {"latency_survivor_form": true}}',
         "unknown key 'latency_survivor_form' in section 'objective'"),
        ('{"simulate": {"traffic_multiplier": 1.0}}',
         "unknown key 'traffic_multiplier' in section 'simulate'"),
    ])
    def test_bad_config_exits_1(self, tmp_path, capsys, content, named):
        path = tmp_path / "bad.json"
        path.write_text(content)
        _fails_cleanly(["gradcheck", "--config", str(path), "--out", str(tmp_path / "x")],
                       capsys, named)

    @pytest.mark.parametrize("command, content, named", [
        ("gradcheck", '{"objective": {"alpha": "x"}}',
         "key 'alpha' in section 'objective' must be a number, got \"x\""),
        ("train", '{"train": {"epochs": "3"}}',
         "key 'epochs' in section 'train' must be an integer, got \"3\""),
        ("datagen", '{"datagen": {"feature_quality": [{"signal": 1}]}}',
         "key 'feature_quality' in section 'datagen', entry 0 lacks key 'signal_strength'"),
        ("gradcheck", '{"schema": {"features": [{"name": "sales_volume"}]}}',
         "key 'features' in section 'schema', entry 0 lacks key 'cost'"),
    ])
    def test_wrong_value_type_exits_1(self, tmp_path, capsys, command, content, named):
        path = tmp_path / "bad.json"
        path.write_text(content)
        argv = [command, "--config", str(path), "--out", str(tmp_path / "x")]
        if command == "train":
            argv += ["--dataset", str(tmp_path / "dataset.txt")]
        _fails_cleanly(argv, capsys, named)

    @pytest.mark.parametrize("cost", ["Infinity", "NaN"])
    def test_non_finite_feature_cost_exits_1(self, tmp_path, capsys, cost):
        # json.load reads Infinity and NaN
        path = tmp_path / "bad.json"
        path.write_text('{"schema": {"features": [{"name": "sales_volume", "cost": %s}]}}' % cost)
        _fails_cleanly(["gradcheck", "--config", str(path), "--out", str(tmp_path / "x")],
                       capsys, "error: config section 'schema', key 'features': feature "
                       "'sales_volume': cost must be finite, got "
                       + {"Infinity": "inf", "NaN": "nan"}[cost])

    @pytest.mark.parametrize("schema, named", [
        ({"query_bins": [10, 10]}, "error: config section 'schema', key 'query_bins': "
         "query bin edges must be strictly increasing, got [10, 10]"),
        ({"features": [{"name": "a", "cost": 0.1}, {"name": "a", "cost": 0.2}]},
         "error: config section 'schema', key 'features': feature name 'a' appears twice"),
    ], ids=["query_bins", "repeated feature"])
    @pytest.mark.parametrize("command", ["datagen", "gradcheck"])
    def test_bad_schema_names_the_key_and_value(self, tmp_path, capsys, schema, named, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": schema}))
        _fails_cleanly([command, "--config", str(path), "--out", str(tmp_path / "x")],
                       capsys, named)
        assert not (tmp_path / "x").exists()

    def test_unparsable_config_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"train": {"epochs": 2,}}')
        _fails_cleanly(["gradcheck", "--config", str(path), "--out", str(tmp_path / "x")],
                       capsys, f"error: config {path}: Expecting property name enclosed in "
                       "double quotes: line 1 column 24 (char 23)")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("fraction", [-0.5, 1.0, 1.5])
    def test_holdout_fraction_outside_unit_interval(self, tmp_path, small_config, capsys,
                                                    fraction):
        cfg = json.loads(small_config.read_text())
        cfg["train"]["holdout_fraction"] = fraction
        path = tmp_path / "holdout.json"
        path.write_text(json.dumps(cfg))
        data = _gen(tmp_path, small_config)
        _fails_cleanly(["train", "--config", str(path), "--dataset", str(data),
                        "--out", str(tmp_path / "run")],
                       capsys, "section 'train', key 'holdout_fraction': holdout_fraction "
                       f"must be in [0, 1), got {fraction}")
        assert not (tmp_path / "run").exists()

    def test_holdout_of_every_query(self, tmp_path, small_config, capsys):
        # 0.99 of 40 queries rounds to all 40
        cfg = json.loads(small_config.read_text())
        cfg["train"]["holdout_fraction"] = 0.99
        path = tmp_path / "holdout.json"
        path.write_text(json.dumps(cfg))
        data = _gen(tmp_path, small_config)
        _fails_cleanly(["train", "--config", str(path), "--dataset", str(data),
                        "--out", str(tmp_path / "run")],
                       capsys, "section 'train', key 'holdout_fraction': 0.99 holds out "
                       "40 of 40 queries")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, config, flags, named", [
        ("datagen", {"datagen": {"label_noise": float("nan")}}, [],
         "error: label_noise must be finite, got nan"),
        ("datagen", {"datagen": {"price_mean_log": 800}}, [],
         "error: price_mean_log 800 and price_sigma_log 0.8 draw a price whose z-score "
         "overflows to inf"),
        ("datagen", {}, ["--seed", "-1"], "error: seed must be in [0, inf), got -1"),
        ("datagen", {"datagen": {"label_noise": 1e200}}, [],
         "error: label_noise must be in [-1.3407807929942596e+154, 1.3407807929942596e+154], "
         "where its square stays finite, got 1e+200"),
        ("datagen", {"datagen": {"label_noise": -1e200}}, [],
         "error: label_noise must be in [-1.3407807929942596e+154, 1.3407807929942596e+154], "
         "where its square stays finite, got -1e+200"),
        ("datagen", {"datagen": {"feature_quality": [
            {"signal_strength": s} for s in (0.15, 0.4, 1e308, 0.9, 1.2)]}}, [],
         "error: feature_quality entry 2: FeatureQuality(signal_strength=1e+308"),
        ("train", {}, ["--alpha", "nan"], "error: alpha must be finite, got nan"),
        ("train", {}, ["--gamma", "nan"], "error: gamma must be finite, got nan"),
        ("train", {}, ["--gamma", "inf"], "error: gamma must be finite, got inf"),
        ("train", {}, ["--delta", "nan"], "error: delta must be finite, got nan"),
        ("train", {}, ["--latency-ceiling", "nan"], "error: latency_ceiling must be finite"),
        ("train", {}, ["--result-floor", "inf"], "error: result_floor must be finite, got inf"),
        ("train", {}, ["--beta", "inf"], "error: beta must be finite, got inf"),
        ("train", {}, ["--purchase-weight", "inf"], "error: purchase_weight must be finite"),
        ("train", {}, ["--lr", "nan"], "error: learning_rate must be finite, got nan"),
        ("train", {}, ["--lr", "inf"], "error: learning_rate must be finite, got inf"),
        ("train", {"train": {"lr_decay": float("inf")}}, [], "error: lr_decay must be finite"),
        ("train", {}, ["--seed", "-1"], "error: seed must be in [0, inf), got -1"),
        # above half the largest float the init draw range overflows
        ("train", {"train": {"init_scale": 1e308}}, [],
         "error: init_scale must be in [0, 8.988465674311579e+307], got "),
        ("train", {"train": {"init_scale": 9e307}}, [],
         "error: init_scale must be in [0, 8.988465674311579e+307], got "),
        # alpha times a batch's instance count would overflow to inf
        ("train", {"objective": {"alpha": 1e308}}, [],
         "error: alpha 1e+308 times the 640 training instances overflows to inf"),
    ])
    def test_bad_hyperparameter_named(self, tmp_path, small_config, capsys, command, config,
                                      flags, named):
        cfg = json.loads(small_config.read_text())
        for section, values in config.items():
            cfg[section].update(values)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path), "--out", str(tmp_path / "x"), *flags]
        if command == "train":
            argv += ["--dataset", str(_gen(tmp_path, small_config))]
        err = _fails_cleanly(argv, capsys, named)
        assert "Warning" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["eval", "simulate"])
    @pytest.mark.parametrize("ms", [0, -150])
    def test_non_positive_cost_units_per_ms(self, tmp_path, small_config, capsys, command, ms):
        data = _gen(tmp_path, small_config)
        model = _train(tmp_path, small_config, data)
        cfg = json.loads(small_config.read_text())
        cfg["objective"]["cost_units_per_ms"] = ms
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        err = _fails_cleanly([command, "--config", str(path), "--dataset", str(data),
                              "--model", str(model), "--out", str(tmp_path / "x")],
                             capsys, f"error: cost_units_per_ms must be in (0, inf), got {ms}")
        assert "Warning" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag, place", _FLAG_TO_KEY.items(), ids=list(_FLAG_TO_KEY))
    def test_override_flag_lands_in_manifest(self, tmp_path, small_config, flag, place):
        # "2" parses to the int 2 for an int key and to the float 2.0 for a float key
        section, key = place
        default = default_config()[section][key]
        value = "l2" if key == "objective" else "2"
        out = tmp_path / "d"
        assert main(["datagen", "--config", str(small_config), "--out", str(out),
                     "--" + flag.replace("_", "-"), value]) == 0
        resolved = json.loads((out / "manifest.json").read_text())["config"][section][key]
        assert resolved == ("l2" if key == "objective" else 2) != default
        assert type(resolved) is type(default)

    def test_unsquared_l2_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--unsquared-l2", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_zero_feature_costs_eval_exits_1(self, tmp_path, capsys):
        cfg = default_config()
        for feature in cfg["schema"]["features"]:
            feature["cost"] = 0.0
        cfg["datagen"]["n_queries"] = 30
        cfg["train"]["epochs"] = 1
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        data = _gen(tmp_path, path)
        model = _train(tmp_path, path, data)
        common = ["--config", str(path), "--dataset", str(data), "--model", str(model)]
        assert main(["simulate", *common, "--out", str(tmp_path / "sim")]) == 0
        err = _fails_cleanly(["eval", *common, "--out", str(tmp_path / "eval")], capsys,
                             "baseline cost is 0")
        assert err.count("\n") == 1


class TestDatasetValidation:
    def test_train_rejects_nan_feature(self, tmp_path, small_config, capsys):
        bad = _with_nan_feature(_gen(tmp_path, small_config))
        _fails_cleanly(["train", "--config", str(small_config), "--dataset", str(bad),
                        "--out", str(tmp_path / "run")],
                       capsys, "fails validation", "non-finite feature value")
        assert not (tmp_path / "run" / "model.txt").exists()

    def test_gradcheck_rejects_nan_feature(self, tmp_path, small_config, capsys):
        bad = _with_nan_feature(_gen(tmp_path, small_config))
        _fails_cleanly(["gradcheck", "--config", str(small_config), "--dataset", str(bad),
                        "--out", str(tmp_path / "gc")],
                       capsys, "fails validation",
                       "group q00000 instance 0: non-finite feature value")
        assert not (tmp_path / "gc").exists()

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_infinite_price_on_a_click_rejected(self, tmp_path, small_config, capsys, command):
        bad = _with_first_line(_gen(tmp_path, small_config), "inf.txt", label="1", price="inf")
        err = _fails_cleanly([command, "--config", str(small_config), "--dataset", str(bad),
                              "--out", str(tmp_path / "out")],
                             capsys, "fails validation",
                             "group q00000 instance 0: price inf is not finite")
        assert "RuntimeWarning" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_mcount_above_int64_names_the_line(self, tmp_path, small_config, capsys, command):
        mcount = "99999999999999999999"
        bad = tmp_path / "two_lines.txt"
        bad.write_text(f"qid:q0 mcount:{mcount} label:1 price:3.5 0:1 1:1 2:1 3:1 4:1\n" * 2)
        _fails_cleanly([command, "--config", str(small_config), "--dataset", str(bad),
                        "--out", str(tmp_path / "out")],
                       capsys, f"line 1: mcount must be <= 2**63 - 1, got {mcount}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "simulate"])
    def test_format_error_names_the_dataset(self, tmp_path, small_config, capsys, command):
        data = _gen(tmp_path, small_config)
        model = _train(tmp_path, small_config, data)
        bad = _with_first_line(data, "label9.txt", label="9")
        _fails_cleanly([command, "--config", str(small_config), "--dataset", str(bad),
                        "--model", str(model), "--out", str(tmp_path / "out")],
                       capsys, f"error: dataset {bad}: line 1: label must be 0, 1 or 2, got 9")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "simulate", "gradcheck"])
    def test_non_utf8_dataset_names_the_file_and_line(self, tmp_path, small_config, capsys,
                                                      command):
        data = _gen(tmp_path, small_config)
        lines = data.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][:-8] + b"\xff" + lines[1][-7:]
        bad = tmp_path / "latin.txt"
        bad.write_bytes(b"".join(lines))
        argv = [command, "--config", str(small_config), "--dataset", str(bad),
                "--out", str(tmp_path / "out")]
        if command in ("eval", "simulate"):
            argv += ["--model", str(_train(tmp_path, small_config, data))]
        err = _fails_cleanly(argv, capsys, f"error: dataset {bad}: line 2: not UTF-8 text (")
        assert "0xff" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "simulate"])
    def test_replay_commands_reject_nan_feature(self, tmp_path, small_config, capsys, command):
        data = _gen(tmp_path, small_config)
        model = _train(tmp_path, small_config, data)
        bad = _with_nan_feature(data)
        _fails_cleanly([command, "--config", str(small_config), "--dataset", str(bad),
                        "--model", str(model), "--out", str(tmp_path / "out")],
                       capsys, "group q00000 instance 0: non-finite feature value")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", ["", "\n  \n"])
    @pytest.mark.parametrize("command", ["train", "eval", "simulate", "gradcheck"])
    def test_dataset_without_queries_exits_1(self, tmp_path, small_config, capsys, command,
                                             content):
        empty = tmp_path / "empty.txt"
        empty.write_text(content)
        argv = [command, "--config", str(small_config), "--dataset", str(empty),
                "--out", str(tmp_path / "out")]
        if command in ("eval", "simulate"):
            argv += ["--model", str(_train(tmp_path, small_config, _gen(tmp_path, small_config)))]
        _fails_cleanly(argv, capsys, f"error: dataset {empty} has no queries")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "simulate"])
    def test_model_stages_must_match_config(self, tmp_path, small_config, capsys, command):
        data = _gen(tmp_path, small_config)
        model = _train(tmp_path, small_config, data)
        cfg = json.loads(small_config.read_text())
        cfg["schema"]["stages"] = [["sales_volume"], ["postpay_score", "ctr_score"],
                                   ["relevance_score", "deep_wide_score"]]
        other = tmp_path / "other.json"
        other.write_text(json.dumps(cfg))
        _fails_cleanly([command, "--config", str(other), "--dataset", str(data),
                        "--model", str(model), "--out", str(tmp_path / "out")],
                       capsys,
                       "[['sales_volume', 'postpay_score'], ['ctr_score'],",
                       "[['sales_volume'], ['postpay_score', 'ctr_score'],")

    @pytest.mark.parametrize("command", ["eval", "simulate"])
    def test_model_query_bins_must_match_config(self, tmp_path, small_config, capsys, command):
        # as many bins as the defaults, so only the recorded edges tell them apart
        data = _gen(tmp_path, small_config)
        model = _train(tmp_path, small_config, data)
        cfg = json.loads(small_config.read_text())
        cfg["schema"]["query_bins"] = [20000, 30000, 40000, 50000, 60000]
        other = tmp_path / "other.json"
        other.write_text(json.dumps(cfg))
        err = _fails_cleanly([command, "--config", str(other), "--dataset", str(data),
                              "--model", str(model), "--out", str(tmp_path / "out")], capsys)
        assert err == (f"error: model file {model}: query_bins [10, 100, 1000, 10000, 100000] "
                       "differs from the [20000, 30000, 40000, 50000, 60000] expected\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_training_exits_1(self, tmp_path, small_config, capsys):
        data = _gen(tmp_path, small_config)
        err = _fails_cleanly(["train", "--config", str(small_config), "--dataset", str(data),
                              "--out", str(tmp_path / "run"), "--lr", "1e308"],
                             capsys, "non-finite")
        assert "RuntimeWarning" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_initial_loss_exits_1_without_warnings(self, tmp_path, small_config,
                                                               capsys):
        data = _gen(tmp_path, small_config)
        cfg = json.loads(small_config.read_text())
        cfg["train"]["init_scale"] = MAX_INIT_SCALE
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        err = _fails_cleanly(["train", "--config", str(path), "--dataset", str(data),
                              "--out", str(tmp_path / "run")],
                             capsys, "error: non-finite loss or gradient at epoch 1, batch 0")
        assert "Warning" not in err

    @pytest.mark.parametrize("key", ["alpha", "beta", "delta", "purchase_weight",
                                     "price_weight"])
    def test_overflowing_gradient_norm_exits_1_without_warnings(self, tmp_path, small_config,
                                                                capsys, key):
        # the batch gradient's norm overflows before its entries do
        data = _gen(tmp_path, small_config)
        path = _with_objective(tmp_path, small_config, key, 1e200)
        err = _fails_cleanly(["train", "--config", str(path), "--dataset", str(data),
                              "--out", str(tmp_path / "run")],
                             capsys, "error: non-finite loss or gradient at epoch 1, batch 0")
        assert "Warning" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, section, key, value", [
        *(("train", "objective", key, value) for key, value in (
            ("alpha", 1e200), ("result_floor", 1e308), ("gamma", 1e-308))),
        *(("train", "objective", key, value)
          for key in ("beta", "delta", "latency_penalty_weight", "purchase_weight",
                      "price_weight") for value in (1e200, 1e308)),
        *(("train", "train", key, value)
          for key in ("learning_rate", "lr_decay") for value in (1e200, 1e308)),
        ("train", "train", "init_scale", 1e200),
        *(("gradcheck", "objective", key, 1e308)
          for key in ("alpha", "beta", "delta", "latency_penalty_weight", "result_floor",
                      "purchase_weight", "price_weight")),
        ("gradcheck", "objective", "gamma", 1e-308),
    ])
    def test_divergence_names_the_key(self, tmp_path, small_config, capsys, command, section,
                                      key, value):
        # a value the domain admits but whose loss, gradient or steps overflow
        cfg = json.loads(small_config.read_text())
        cfg[section][key] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path), "--out", str(tmp_path / "x")]
        if command == "train":
            argv += ["--dataset", str(_gen(tmp_path, small_config))]
        err = _fails_cleanly(argv, capsys, key)
        assert "Warning" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["eval", "simulate"])
    def test_latency_in_ms_that_overflows_exits_1(self, tmp_path, small_config, capsys,
                                                  command):
        data = _gen(tmp_path, small_config)
        model = _train(tmp_path, small_config, data)
        path = _with_objective(tmp_path, small_config, "cost_units_per_ms", 1e-308)
        err = _fails_cleanly([command, "--config", str(path), "--dataset", str(data),
                              "--model", str(model), "--out", str(tmp_path / "out")],
                             capsys, "error: cost_units_per_ms 1e-308 gives a latency in ms "
                                     "that is not finite")
        assert "Warning" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [["eval"], ["simulate"], ["simulate", "--stochastic"]])
    def test_latency_in_cost_units_that_overflows_names_the_query(self, tmp_path, small_config,
                                                                  capsys, flags):
        path = _with_costs(tmp_path, small_config, 1e291, n_queries=20,
                           head_mcount_range=[2**62, 2**62], tail_mcount_range=[2**62, 2**62])
        data = _gen(tmp_path, path)
        model = _train(tmp_path, small_config, data)
        err = _fails_cleanly([*flags, "--config", str(path), "--dataset", str(data),
                              "--model", str(model), "--out", str(tmp_path / "out")], capsys,
                             "error: query q00000's latency in cost units is not finite (check "
                             "the feature costs and recalled counts)")
        assert "Warning" not in err and "cost_units_per_ms" not in err
        assert not (tmp_path / "out").exists()

    def test_l1_rejects_an_uncharged_term_that_overflows(self, tmp_path, small_config, capsys):
        # l1 charges no cost or latency, so its loss is finite; the log records
        # the latency penalty all the same, and it is infinite
        path = _with_costs(tmp_path, small_config, 1e304)
        data = _gen(tmp_path, path)
        err = _fails_cleanly(["train", "--config", str(path), "--dataset", str(data),
                              "--objective", "l1", "--out", str(tmp_path / "x")], capsys,
                             "(check the feature costs and recalled counts)")
        assert "Warning" not in err
        for key in ("beta", "gamma", "delta", "latency_penalty_weight", "latency_ceiling",
                    "result_floor"):
            assert key not in err
        assert not (tmp_path / "x").exists()
        out = tmp_path / "gc"
        assert main(["gradcheck", "--config", str(path), "--dataset", str(data),
                     "--objective", "l1", "--out", str(out)]) == 0
        assert "Warning" not in capsys.readouterr().err
        assert not _NOT_FINITE.search((out / "gradcheck.txt").read_text())

    def test_epoch_sum_that_overflows_exits_1(self, tmp_path, small_config, capsys):
        # at l1 each batch's latency penalty is finite, about 1e307, and logged;
        # their sum over the first epoch is not
        path = _with_costs(tmp_path, small_config, 2e301, n_queries=400)
        data = _gen(tmp_path, path)
        err = _fails_cleanly(["train", "--config", str(path), "--dataset", str(data),
                              "--objective", "l1", "--out", str(tmp_path / "x")], capsys,
                             "error: the latency_penalty summed over epoch 1 is not finite, "
                             "though each batch's is (check the feature costs and recalled "
                             "counts)")
        assert "Warning" not in err
        assert not (tmp_path / "x").exists()

    def test_baseline_cost_that_overflows_exits_1(self, tmp_path, small_config, capsys):
        path = _with_costs(tmp_path, small_config, 1e306, n_queries=20)
        data = _gen(tmp_path, path)
        model = _train(tmp_path, small_config, data)
        err = _fails_cleanly(["eval", "--config", str(path), "--dataset", str(data),
                              "--model", str(model), "--out", str(tmp_path / "out")], capsys,
                             "error: the baseline cost, ", " instances times the sum of the "
                             "feature costs, is not finite (check the feature costs)")
        assert "Warning" not in err
        assert not (tmp_path / "out").exists()


class TestTrainCommand:
    def test_missing_dataset_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_beta_flag_changes_cost(self, tmp_path, small_config):
        data = _gen(tmp_path, small_config)
        outs = {}
        for beta in ("0.0", "10.0"):
            out = tmp_path / f"beta{beta}"
            rc = main(["train", "--config", str(small_config), "--dataset", str(data),
                       "--out", str(out), "--beta", beta, "--epochs", "6",
                       "--objective", "l2"])
            assert rc == 0
            log = [json.loads(l) for l in (out / "trainlog.ndjson").read_text().splitlines()]
            outs[beta] = log[-1]["expected_cost"]
        assert outs["10.0"] < outs["0.0"]

    def test_trainlog_lines_carry_every_record_field(self, tmp_path, small_config):
        run = _train(tmp_path, small_config, _gen(tmp_path, small_config)).parent
        log = [json.loads(l) for l in (run / "trainlog.ndjson").read_text().splitlines()]
        assert [r["epoch"] for r in log] == [1, 2, 3]
        assert list(log[0]) == [f.name for f in fields(EpochRecord)]
        assert log[1]["lr"] == pytest.approx(0.1 * 0.95)
        assert all(0.0 <= r[k] <= 1.0 for r in log for k in ("frac_below_floor",
                                                             "frac_above_ceiling"))
        assert all(r["grad_norm"] > 0.0 for r in log)

    def test_holdout_split_outputs_pinned(self, tmp_path, small_config):
        # l3 with the default holdout 0.2: the sha256 of the model file and
        # of the log records without their wall time pin which groups the
        # split holds out, and in which order the rest are trained on
        run = _train(tmp_path, small_config, _gen(tmp_path, small_config)).parent
        assert json.loads((run / "manifest.json").read_text())["config"]["train"][
            "holdout_fraction"] == 0.2
        assert hashlib.sha256((run / "model.txt").read_bytes()).hexdigest() == (
            "bcaca70ad6f9aa7f239814cafd5ca0023397ea34d6004f9b480b4683dd818fb7")
        lines = "".join(
            json.dumps({k: v for k, v in json.loads(l).items() if k != "wall_time_s"}) + "\n"
            for l in (run / "trainlog.ndjson").read_text().splitlines()
        )
        assert hashlib.sha256(lines.encode()).hexdigest() == (
            "22b2664155c2542beca0a58db735f9afd3e003702109348136ed2774213d7be6")

    def test_objective_flag_recorded_in_manifest(self, tmp_path, small_config):
        data = _gen(tmp_path, small_config)
        out = tmp_path / "l1run"
        main(["train", "--config", str(small_config), "--dataset", str(data),
              "--out", str(out), "--objective", "l1"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train"]["objective"] == "l1"
        assert manifest["command"] == "train"


class TestEvalCommand:
    def test_compare_table(self, tmp_path, small_config):
        data = _gen(tmp_path, small_config)
        run = tmp_path / "run"
        main(["train", "--config", str(small_config), "--dataset", str(data),
              "--out", str(run)])
        out = tmp_path / "eval"
        rc = main(["eval", "--config", str(small_config), "--dataset", str(data),
                   "--model", str(run / "model.txt"), "--out", str(out), "--compare"])
        assert rc == 0
        text = (out / "eval.txt").read_text()
        rows = {}
        for line in text.splitlines():
            if line.startswith("compare ") and "method" not in line:
                _, name, auc_s, ratio_s = line.split()
                rows[name] = (float(auc_s), float(ratio_s))
        assert set(rows) == {"single-all", "single-cheap", "two-stage",
                             "soft-cascade", "cloes"}
        for name, (auc_v, ratio) in rows.items():
            assert 0.0 <= auc_v <= 1.0
        assert rows["single-all"][1] == pytest.approx(1.0)
        assert (out / "eval_records.ndjson").exists()

    def test_compare_text_pinned(self, tmp_path, small_config):
        # l3 model, every baseline fit on the full set: the sha256 of eval.txt
        # pins the model's report and each row of the compare table
        data = _gen(tmp_path, small_config)
        model = _train(tmp_path, small_config, data)
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(small_config), "--dataset", str(data),
                     "--model", str(model), "--out", str(out), "--compare"]) == 0
        assert hashlib.sha256((out / "eval.txt").read_bytes()).hexdigest() == (
            "936257b4d246b318e83441df4a9120d2578a245ab3e702ef7a70cd1bc381aa62")

    def test_records_are_json_lines(self, tmp_path, small_config):
        _assert_strict_records(tmp_path, small_config, "eval", PerQueryRecord)

    def test_truncated_model_exits_1_without_traceback(self, tmp_path, small_config, capsys):
        data = _gen(tmp_path, small_config)
        run = tmp_path / "run"
        main(["train", "--config", str(small_config), "--dataset", str(data),
              "--out", str(run)])
        model = run / "model.txt"
        text = model.read_text()
        cut = text.index('"weights"')
        model.write_text(text[:cut])
        capsys.readouterr()
        rc = main(["eval", "--config", str(small_config), "--dataset", str(data),
                   "--model", str(model), "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == (f"error: model file {model}: Expecting property name enclosed in double "
                       f"quotes: line 1 column {cut + 1} (char {cut})\n")

    @pytest.mark.parametrize("key, entry, value, named", [
        ("weights", 7, "abc", "the document, key 'weights', entry 7 must be a number, got \"abc\""),
        ("stages", 1, ["two"], "the document, key 'stages', entry 1, entry 0 must be an integer, "
                               "got \"two\""),
        ("weights", 6, float("nan"), "weights must all be finite"),
    ], ids=["float", "int", "nan"])
    def test_bad_model_line_names_file_and_line(self, tmp_path, small_config, capsys, key,
                                                entry, value, named):
        data = _gen(tmp_path, small_config)
        model = _train(tmp_path, small_config, data)
        doc = json.loads(model.read_text())
        doc[key][entry] = value
        model.write_text(json.dumps(doc))
        err = _fails_cleanly(["eval", "--config", str(small_config), "--dataset", str(data),
                              "--model", str(model), "--out", str(tmp_path / "eval")], capsys)
        assert err == f"error: model file {model}: {named}\n"
        assert not (tmp_path / "eval").exists()

    def test_compare_failure_leaves_no_output(self, tmp_path, small_config, capsys):
        data = _gen(tmp_path, small_config)
        model = _train(tmp_path, small_config, data)
        cfg = json.loads(small_config.read_text())
        cfg["eval"]["two_stage_keep_k"] = 0
        path = tmp_path / "keep0.json"
        path.write_text(json.dumps(cfg))
        _fails_cleanly(["eval", "--config", str(path), "--dataset", str(data),
                        "--model", str(model), "--out", str(tmp_path / "eval"), "--compare"],
                       capsys, "keep_k must be in [1, inf), got 0")
        assert not (tmp_path / "eval").exists()

    def test_bad_keep_k_fits_no_baseline(self, tmp_path, small_config, capsys, monkeypatch):
        data = _gen(tmp_path, small_config)
        model = _train(tmp_path, small_config, data)
        cfg = json.loads(small_config.read_text())
        cfg["eval"]["two_stage_keep_k"] = 0
        path = tmp_path / "keep0.json"
        path.write_text(json.dumps(cfg))
        fits = []
        monkeypatch.setattr("cascade_ranker.evaluator.train", lambda *a, **k: fits.append(a))
        _fails_cleanly(["eval", "--config", str(path), "--dataset", str(data),
                        "--model", str(model), "--out", str(tmp_path / "eval"), "--compare"],
                       capsys, "section 'eval', key 'two_stage_keep_k': keep_k must be in "
                       "[1, inf), got 0")
        assert fits == []


class TestSimulateCommand:
    def test_records_are_json_lines(self, tmp_path, small_config):
        _assert_strict_records(tmp_path, small_config, "simulate", SimQueryRecord)


class TestGradcheckCommand:
    def test_step_and_tolerance_defaults_are_the_trainer_constants(self):
        signature = inspect.signature(gradient_check).parameters
        args = build_parser().parse_args(["gradcheck", "--out", "x"])
        assert args.h is signature["h"].default is GRADCHECK_H
        assert args.tolerance is signature["tolerance"].default is GRADCHECK_TOLERANCE

    def test_passes_by_default(self, tmp_path, small_config):
        out = tmp_path / "gc"
        rc = main(["gradcheck", "--config", str(small_config), "--out", str(out)])
        assert rc == 0
        assert "passed True" in (out / "gradcheck.txt").read_text()

    def test_l3_objective_path(self, tmp_path, small_config):
        out = tmp_path / "gc3"
        rc = main(["gradcheck", "--config", str(small_config), "--out", str(out),
                   "--objective", "l3"])
        assert rc == 0

    @pytest.mark.parametrize("objective, digest", [
        ("l1", "f393b5f36857370edb5a1451551040116b41619bd6de48f58bf44bf2106793e3"),
        ("l3", "46693a70df42d06724c4f19edcfa4840e8ef974fe30a56ab4a6127d7af70d1f5"),
    ])
    def test_report_on_dataset_pinned(self, tmp_path, small_config, objective, digest):
        data = _gen(tmp_path, small_config)
        out = tmp_path / "gc"
        assert main(["gradcheck", "--config", str(small_config), "--dataset", str(data),
                     "--out", str(out), "--objective", objective]) == 0
        assert hashlib.sha256((out / "gradcheck.txt").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("flags, named", [
        (["--tolerance", "0"], "error: tolerance must be in (0, inf), got 0.0"),
        (["--tolerance", "-1"], "error: tolerance must be in (0, inf), got -1.0"),
        (["--tolerance", "nan"], "error: tolerance must be finite, got nan"),
        (["--h", "nan"], "error: h must be finite, got nan"),
    ])
    def test_bad_step_or_tolerance_exits_1(self, tmp_path, small_config, capsys, flags, named):
        out = tmp_path / "gc"
        err = _fails_cleanly(["gradcheck", "--config", str(small_config), "--out", str(out),
                              *flags], capsys, named)
        assert "Warning" not in err and "FAILED" not in err
        assert not (out / "gradcheck.txt").exists()

    @pytest.mark.parametrize("key, value", [
        (key, 1e308) for key in ("beta", "delta", "latency_penalty_weight", "result_floor",
                                 "purchase_weight", "price_weight")] + [("gamma", 1e-308)])
    def test_non_finite_loss_is_named_not_blamed_on_the_gradient(self, tmp_path, small_config,
                                                                 capsys, key, value):
        path = _with_objective(tmp_path, small_config, key, value)
        out = tmp_path / "gc"
        err = _fails_cleanly(["gradcheck", "--config", str(path), "--out", str(out)], capsys,
                             "error: the l3 loss (inf) or its gradient at the checked weights "
                             "is not finite")
        assert "Warning" not in err and "FAILED" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["gamma", "latency_ceiling"])
    def test_huge_finite_coefficient_checks_without_warnings(self, tmp_path, small_config,
                                                              capsys, key):
        path = _with_objective(tmp_path, small_config, key, 1e308)
        out = tmp_path / "gc"
        capsys.readouterr()
        assert main(["gradcheck", "--config", str(path), "--out", str(out)]) == 0
        assert "Warning" not in capsys.readouterr().err
        assert "passed True" in (out / "gradcheck.txt").read_text()

    def test_default_step_passes_at_seed_952238(self, tmp_path):
        # a step of 1e-5 fails this correct gradient on the truncation error
        assert main(["gradcheck", "--seed", "952238", "--out", str(tmp_path / "gc")]) == 0
        assert "max_rel_error 2.009e-06\n" in (tmp_path / "gc" / "gradcheck.txt").read_text()
        assert main(["gradcheck", "--seed", "952238", "--out", str(tmp_path / "gc5"),
                     "--h", "1e-5"]) == 1
        assert "max_rel_error 1.465e-02\n" in (tmp_path / "gc5" / "gradcheck.txt").read_text()

    @pytest.mark.parametrize("command", ["gradcheck", "train"])
    def test_overflowing_features_are_named(self, tmp_path, capsys, command):
        # finite features that sum past the largest float: the loss or its gradient
        # overflows at the checked or initial weights with no coefficient to blame
        cfg = default_config()
        cfg["datagen"]["feature_quality"][0]["noise"] = -3.4712761183886917e307
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path), "--out", str(tmp_path / "x")]
        where = "the l3 loss (inf) or its gradient at the checked weights is not finite, from"
        if command == "train":
            argv += ["--dataset", str(_gen(tmp_path, path))]
            where = "non-finite loss or gradient at epoch 1, batch 0:"
        err = _fails_cleanly(argv, capsys)
        assert err.startswith(f"error: {where} overflowing feature values (check the dataset, "
                              "or datagen.feature_quality)")
        assert "Warning" not in err
        assert not (tmp_path / "x").exists()

    def test_corrupted_gradient_fails(self, tmp_path, small_config, capsys, monkeypatch):
        def corrupted(model_, data_, cfg_, objective_="l3", want_grad=True):
            bd = loss(model_, data_, cfg_, objective_, want_grad)
            if want_grad and bd.gradient.size:
                g = bd.gradient.copy()
                g[0] += 1.0 + abs(g[0])
                bd = replace(bd, gradient=g)
            return bd

        monkeypatch.setattr("cascade_ranker.trainer.loss", corrupted)
        out = tmp_path / "gcbad"
        rc = main(["gradcheck", "--config", str(small_config), "--out", str(out)])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().err


class TestManifestReproducibility:
    def test_datagen_rerun_byte_identical(self, tmp_path, small_config):
        first = tmp_path / "d1"
        main(["datagen", "--config", str(small_config), "--out", str(first)])
        second = tmp_path / "d2"
        rc = rerun_from_manifest(first / "manifest.json", second)
        assert rc == 0
        assert (first / "dataset.txt").read_bytes() == (second / "dataset.txt").read_bytes()

    def test_train_rerun_byte_identical(self, tmp_path, small_config):
        data = _gen(tmp_path, small_config)
        first = tmp_path / "t1"
        main(["train", "--config", str(small_config), "--dataset", str(data),
              "--out", str(first)])
        second = tmp_path / "t2"
        rc = rerun_from_manifest(first / "manifest.json", second)
        assert rc == 0
        assert (first / "model.txt").read_bytes() == (second / "model.txt").read_bytes()

    def test_eval_compare_rerun_byte_identical(self, tmp_path, small_config):
        data = _gen(tmp_path, small_config)
        model = _train(tmp_path, small_config, data)
        first = tmp_path / "e1"
        assert main(["eval", "--config", str(small_config), "--dataset", str(data),
                     "--model", str(model), "--out", str(first), "--compare"]) == 0
        second = tmp_path / "e2"
        assert rerun_from_manifest(first / "manifest.json", second) == 0
        text = (first / "eval.txt").read_bytes()
        assert b"compare cloes " in text
        assert (second / "eval.txt").read_bytes() == text

    @pytest.mark.parametrize("flags", [[], ["--stochastic"]], ids=["deterministic", "stochastic"])
    def test_simulate_rerun_byte_identical(self, tmp_path, small_config, flags):
        data = _gen(tmp_path, small_config)
        model = _train(tmp_path, small_config, data)
        first = tmp_path / "s1"
        assert main(["simulate", "--config", str(small_config), "--dataset", str(data),
                     "--model", str(model), "--out", str(first), *flags]) == 0
        second = tmp_path / "s2"
        assert rerun_from_manifest(first / "manifest.json", second) == 0
        for name in ("sim.txt", "sim_records.ndjson"):
            assert (second / name).read_bytes() == (first / name).read_bytes()

    def test_gradcheck_rerun_byte_identical(self, tmp_path, small_config):
        first = tmp_path / "g1"
        assert main(["gradcheck", "--config", str(small_config), "--out", str(first),
                     "--h", "1e-4", "--tolerance", "0.01"]) == 0
        text = (first / "gradcheck.txt").read_text()
        assert "tolerance 1.000e-02\n" in text
        second = tmp_path / "g2"
        assert rerun_from_manifest(first / "manifest.json", second) == 0
        assert (second / "gradcheck.txt").read_text() == text

    def test_rerun_of_manifest_without_gradcheck_flags(self, tmp_path, small_config):
        # a manifest that records no --h or --tolerance reruns at their defaults
        first = tmp_path / "g1"
        assert main(["gradcheck", "--config", str(small_config), "--out", str(first),
                     "--tolerance", "0.01"]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        del manifest["h"], manifest["tolerance"]
        (first / "manifest.json").write_text(json.dumps(manifest))
        second = tmp_path / "g2"
        assert rerun_from_manifest(first / "manifest.json", second) == 0
        assert "tolerance 1.000e-04\n" in (second / "gradcheck.txt").read_text()

    @pytest.mark.parametrize("change, named", [
        (lambda m: {}, " lacks key 'command'"),
        (lambda m: {**m, "inputs": None}, ", key 'inputs' must be an object, got null"),
        (lambda m: [m["command"]], " must be an object, got [\"datagen\"]"),
        (lambda m: {**m, "command": "fit"}, ", key 'command' names no command: 'fit'"),
        (lambda m: {**m, "command": "train"},
         ", key 'inputs' names no dataset, which train reads"),
    ], ids=["empty", "null_inputs", "list", "unknown_command", "missing_input"])
    def test_bad_manifest_named(self, tmp_path, small_config, change, named):
        first = tmp_path / "d1"
        assert main(["datagen", "--config", str(small_config), "--out", str(first)]) == 0
        path = first / "manifest.json"
        path.write_text(json.dumps(change(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match="^" + re.escape(f"manifest {path}{named}") + "$"):
            rerun_from_manifest(path, tmp_path / "d2")
        assert not (tmp_path / "d2").exists()

    @pytest.mark.parametrize("content, named", [
        (b"not json", "Expecting value: line 1 column 1 (char 0)"),
        (b'{"command": "\xff"}',
         "'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"),
    ], ids=["not_json", "not_utf8"])
    def test_unreadable_manifest_named(self, tmp_path, content, named):
        path = tmp_path / "manifest.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="^" + re.escape(f"manifest {path}: {named}") + "$"):
            rerun_from_manifest(path, tmp_path / "d2")
        assert not (tmp_path / "d2").exists()


# Every number of default_config() a command reads, with those commands; the
# large values of epochs, n_queries, group_size_cap and two_stage_keep_k are
# long jobs, not holes, so they are left out.
_LONG_JOBS = {"epochs", "n_queries", "group_size_cap", "two_stage_keep_k"}
_READERS = {"objective": ("train", "eval", "simulate", "gradcheck"),
            "train": ("train", "simulate", "gradcheck"), "datagen": ("datagen", "gradcheck")}
_SWEPT = [(section, key, command) for section, readers in _READERS.items()
          for key, value in default_config()[section].items()
          if type(value) in (int, float) and key not in _LONG_JOBS for command in readers]
_SWEPT += [("feature_quality", key, command) for key in ("signal_strength", "noise",
                                                        "price_strength")
           for command in _READERS["datagen"]]
_NOT_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _swept_case(place):
    """``place``, a value over the whole range of its key's type, and a
    ``feature_quality`` entry to put it in."""
    section, key, _ = place
    default = 1.0 if section == "feature_quality" else default_config()[section][key]
    values = (st.integers(-1, 2**63) if type(default) is int
              else st.floats(allow_nan=False, allow_infinity=False))
    return st.tuples(st.just(place), values, st.integers(0, 4))


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """A tiny dataset, the 2-epoch model trained on it, and their config."""
    root = tmp_path_factory.mktemp("sweep")
    cfg = default_config()
    cfg["datagen"].update({"n_queries": 40, "seed": 5})
    cfg["train"].update({"epochs": 2, "seed": 5})
    (root / "config.json").write_text(json.dumps(cfg))
    assert main(["datagen", "--config", str(root / "config.json"), "--out", str(root)]) == 0
    assert main(["train", "--config", str(root / "config.json"), "--dataset",
                 str(root / "dataset.txt"), "--out", str(root)]) == 0
    return root


class TestDomainSweep:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=st.sampled_from(_SWEPT).flatmap(_swept_case))
    # holes this sweep found: a z-score of the log price that overflows, a range numpy rejects
    @example(case=(("datagen", "price_mean_log", "datagen"), -1.7976931348623157e308, 0))
    @example(case=(("train", "init_scale", "train"), -0.0, 0))
    def test_every_number_works_or_is_rejected_by_name(self, sweep_dir, case):
        (section, key, command), value, entry = case
        cfg = json.loads((sweep_dir / "config.json").read_text())
        if section == "feature_quality":
            cfg["datagen"]["feature_quality"][entry][key] = value
        else:
            cfg[section][key] = value
        run = Path(tempfile.mkdtemp(dir=sweep_dir))
        (run / "config.json").write_text(json.dumps(cfg))
        argv = [command, "--config", str(run / "config.json"), "--out", str(run / "out")]
        if command in ("train", "eval", "simulate"):
            argv += ["--dataset", str(sweep_dir / "dataset.txt")]
        if command in ("eval", "simulate"):
            argv += ["--model", str(sweep_dir / "model.txt")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv)
        err = err.getvalue()
        assert "Warning" not in err
        if rc == 1:
            # a divergence after the first batch may name the learning rate instead
            assert err.startswith("error: ") and (key in err or "learning_rate" in err), err
        else:
            assert rc == 0, err
            for path in (run / "out").iterdir():
                assert not _NOT_FINITE.search(path.read_text()), (path.name, err)
