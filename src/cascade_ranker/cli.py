"""Command-line entry point: data generation, training, evaluation with
baseline comparison, gradient checking, and serving simulation.

Every hyperparameter lives in a JSON config file and can be overridden by a
flag (flags win). A command's outputs are written by one function,
``_write_outputs``, only after the command's work has succeeded: it makes
``--out``, writes each output, then a manifest with the fully resolved
config, enough to reproduce the run exactly. Diagnostics go to stderr; data
goes to files only.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
# pack_groups is not called here: it stays bound for the benchmark's tracer to wrap
from .core import (Feature, FeatureSchema, StageAssignment, check_domains, check_json,
                   pack_groups, validate_dataset)
from .datagen import (
    DatasetFormatError,
    FeatureQuality,
    GenConfig,
    default_assignment,
    default_schema,
    generate,
    read_dataset,
    write_dataset,
)
from .evaluator import TWO_STAGE_DOMAINS, baseline_l1, baseline_two_stage, evaluate
from .objective import OBJECTIVE_LEVELS, ObjectiveConfig
from .simulator import simulate
from .trainer import (
    GRADCHECK_H,
    GRADCHECK_TOLERANCE,
    TrainConfig,
    TrainingDiverged,
    gradient_check,
    init_weights,
    load_model,
    save_model,
    train,
)

MANIFEST_NAME = "manifest.json"


def default_config() -> dict:
    """Every config section and key with its default: the dataclass defaults
    of the package, as JSON reads them back (tuples become lists)."""
    schema = default_schema()
    return json.loads(json.dumps({
        "schema": {
            "features": [asdict(f) for f in schema.features],
            "stages": _stage_names(default_assignment(schema), schema),
            "query_bins": schema.query_bin_edges,
        },
        "objective": asdict(ObjectiveConfig()),
        "train": {**asdict(TrainConfig()), "holdout_fraction": 0.2},
        "datagen": asdict(GenConfig()),
        "eval": {"two_stage_keep_k": 6000},
        "simulate": {"stochastic": False},
    }))


def load_config(path: str | None) -> dict:
    """The default config overlaid with the JSON object at ``path``. Every
    section and key of the file must exist in the default config; a key's
    value replaces the default's whole."""
    cfg = default_config()
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                override = json.load(fh)
            except ValueError as exc:     # bad JSON, or bytes that are not UTF-8
                raise ValueError(f"config {path}: {exc}") from None
        if not isinstance(override, dict):
            raise ValueError(
                f"config {path}: expected a JSON object, got {type(override).__name__}"
            )
        for section, values in override.items():
            if section not in cfg:
                raise ValueError(f"config {path}: unknown section {section!r}")
            if not isinstance(values, dict):
                raise ValueError(f"config {path}: section {section!r} is not an object")
            for key, value in values.items():
                if key not in cfg[section]:
                    raise ValueError(f"config {path}: unknown key {key!r} in section {section!r}")
                check_json(f"config {path}: key {key!r} in section {section!r}", value,
                           cfg[section][key], _OPTIONAL_ENTRY_KEYS)
            cfg[section].update(values)
    return cfg


# keys that an entry of a config list of objects may leave out
_OPTIONAL_ENTRY_KEYS = frozenset({"kind", "noise", "price_strength"})


def schema_from_config(cfg: dict) -> FeatureSchema:
    """The config's schema; an error names its key, 'features' or 'query_bins'."""
    sc, key = cfg["schema"], "features"
    try:
        features = FeatureSchema([Feature(**f) for f in sc["features"]]).features
        key = "query_bins"
        return FeatureSchema(features, sc["query_bins"])
    except ValueError as exc:
        raise ValueError(f"config section 'schema', key {key!r}: {exc}") from None


def assignment_from_config(cfg: dict, schema: FeatureSchema) -> StageAssignment:
    try:
        return StageAssignment.from_names(schema, cfg["schema"]["stages"])
    except KeyError as exc:
        raise ValueError(f"config section 'schema', key 'stages': {exc.args[0]}") from None


def objective_from_config(cfg: dict) -> ObjectiveConfig:
    return ObjectiveConfig(**cfg["objective"])


def train_from_config(cfg: dict) -> TrainConfig:
    tc = dict(cfg["train"])
    check_domains(tc, {"holdout_fraction": "[0, 1)"},
                  "config section 'train', key 'holdout_fraction': ")
    del tc["holdout_fraction"]
    return TrainConfig(**tc)


def gen_from_config(cfg: dict) -> GenConfig:
    dg = dict(cfg["datagen"])
    dg["feature_quality"] = tuple(FeatureQuality(**q) for q in dg["feature_quality"])
    dg["head_mcount_range"] = tuple(dg["head_mcount_range"])
    dg["tail_mcount_range"] = tuple(dg["tail_mcount_range"])
    return GenConfig(**dg)


# each override flag and the config key it sets; an objective flag is named as its key
_FLAG_TO_KEY = {
    "objective": ("train", "objective"),
    **{key: ("objective", key) for key in ("alpha", "beta", "gamma", "delta")},
    "latency_penalty": ("objective", "latency_penalty_weight"),
    **{key: ("objective", key) for key in ("purchase_weight", "price_weight", "result_floor",
                                           "latency_ceiling")},
    "lr": ("train", "learning_rate"),
    "epochs": ("train", "epochs"),
    "batch_size": ("train", "batch_size"),
}

# the flags of a command that set no config key: its manifest records them, a rerun passes them
_COMMAND_FLAGS = {"eval": ("compare",), "gradcheck": ("h", "tolerance")}


def apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    cfg = copy.deepcopy(cfg)
    for flag, (section, key) in _FLAG_TO_KEY.items():
        val = getattr(args, flag, None)
        if val is not None:
            cfg[section][key] = val
    if getattr(args, "seed", None) is not None:
        cfg["train"]["seed"] = args.seed
        cfg["datagen"]["seed"] = args.seed
    if getattr(args, "stochastic", False):
        cfg["simulate"]["stochastic"] = True
    return cfg


def _begin(args: argparse.Namespace) -> tuple[float, dict, FeatureSchema]:
    """A command's start time, its resolved config and the config's schema."""
    started = time.monotonic()
    cfg = apply_overrides(load_config(args.config), args)
    return started, cfg, schema_from_config(cfg)


def _write_outputs(args: argparse.Namespace, cfg: dict, started: float, outputs: dict) -> None:
    """Make ``--out`` and write in it each of ``outputs``, a map from file
    name to the file's text or to a function that writes the path it is
    given, then the manifest of the command ``args.command``."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, output in outputs.items():
        if isinstance(output, str):
            with open(out_dir / name, "w", encoding="utf-8") as fh:
                fh.write(output)
        else:
            output(out_dir / name)
    manifest = {
        "command": args.command,
        "config_path": getattr(args, "config", None),
        "config": cfg,
        "seed": cfg["datagen" if args.command == "datagen" else "train"]["seed"],
        "inputs": {
            "dataset": getattr(args, "dataset", None),
            "model": getattr(args, "model", None),
        },
        "outputs": list(outputs),
        "out_dir": str(out_dir),
        "tool_version": __version__,
        "wall_time_s": time.monotonic() - started,
        **{flag: getattr(args, flag) for flag in _COMMAND_FLAGS.get(args.command, ())},
    }
    with open(out_dir / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _split_holdout(packed, fraction: float, seed: int):
    """(training, holdout) groups of ``packed``, each in file order; no
    holdout when ``fraction`` is 0 or there is only one group. Raises when
    the holdout would take every group."""
    if fraction <= 0 or packed.n_groups < 2:
        return packed, None
    order = np.random.default_rng([seed, 2]).permutation(packed.n_groups)
    n_hold = max(1, int(round(fraction * packed.n_groups)))
    if n_hold == packed.n_groups:
        raise ValueError(f"config section 'train', key 'holdout_fraction': {fraction} holds out "
                         f"{n_hold} of {packed.n_groups} queries and leaves none to train on")
    return packed.take(np.sort(order[n_hold:])), packed.take(np.sort(order[:n_hold]))


def _read_valid_dataset(path, schema: FeatureSchema):
    """The dataset at ``path``, validated; a format error names the file."""
    try:
        packed = read_dataset(path, schema)
    except DatasetFormatError as exc:
        raise ValueError(f"dataset {path}: {exc}") from None
    if not packed.n_groups:
        raise ValueError(f"dataset {path} has no queries")
    violations = validate_dataset(packed, schema)
    if violations:
        raise ValueError(f"dataset {path} fails validation ({len(violations)} violations): "
                         + "; ".join(violations[:3]))
    return packed


def _stage_names(assignment: StageAssignment, schema: FeatureSchema) -> list[list[str]]:
    return [[schema.features[i].name for i in stage] for stage in assignment.stages]


def _load_matching_model(path, cfg: dict, schema: FeatureSchema):
    """The model at ``path``, which must assign features to stages as the
    config's ``schema.stages`` does."""
    model = load_model(path, schema)
    assignment = assignment_from_config(cfg, schema)
    if model.assignment != assignment:
        raise ValueError(
            f"model {path} has stages {_stage_names(model.assignment, schema)} but the "
            f"config's schema.stages are {_stage_names(assignment, schema)}"
        )
    return model


def cmd_datagen(args) -> int:
    started, cfg, schema = _begin(args)
    packed = generate(gen_from_config(cfg), schema)
    violations = validate_dataset(packed, schema)
    if violations:
        print(f"generated data failed validation: {violations[:3]}", file=sys.stderr)
        return 1
    _write_outputs(args, cfg, started,
                   {"dataset.txt": lambda path: write_dataset(path, packed)})
    return 0


def cmd_train(args) -> int:
    started, cfg, schema = _begin(args)
    assignment = assignment_from_config(cfg, schema)
    obj_cfg = objective_from_config(cfg)
    train_cfg = train_from_config(cfg)
    train_data, holdout = _split_holdout(_read_valid_dataset(args.dataset, schema),
                                         cfg["train"]["holdout_fraction"], train_cfg.seed)
    model, log = train(train_data, schema, assignment, obj_cfg, train_cfg, eval_data=holdout)
    _write_outputs(args, cfg, started, {
        "model.txt": lambda path: save_model(model, path),
        "trainlog.ndjson": "".join(json.dumps(asdict(r)) + "\n" for r in log.records),
    })
    return 0


def cmd_eval(args) -> int:
    started, cfg, schema = _begin(args)
    obj_cfg = objective_from_config(cfg)
    keep_k = int(cfg["eval"]["two_stage_keep_k"])
    check_domains({"keep_k": keep_k}, TWO_STAGE_DOMAINS,
                  "config section 'eval', key 'two_stage_keep_k': ")
    model = _load_matching_model(args.model, cfg, schema)
    packed = _read_valid_dataset(args.dataset, schema)
    base = float(packed.n_instances * schema.costs().sum())
    report = evaluate(model, packed, obj_cfg, baseline_cost=base)

    text = report.to_text()
    if args.compare:
        train_cfg = train_from_config(cfg)
        all_feats = tuple(range(schema.item_dim))
        cheap = tuple(i for i, f in enumerate(schema.features) if f.kind == "statistical")
        filt = min(cheap or all_feats, key=lambda i: schema.features[i].cost)

        def l1(assignment):
            return baseline_l1(packed, schema, assignment, obj_cfg, train_cfg, base)[1]

        rows = [
            ("single-all", l1(StageAssignment((all_feats,)))),
            ("single-cheap", l1(StageAssignment((cheap or all_feats[:1],)))),
            ("two-stage", baseline_two_stage(packed, schema, filt, keep_k, obj_cfg, train_cfg,
                                             base)),
            ("soft-cascade", l1(model.assignment)),
            ("cloes", report),
        ]
        lines = ["compare method auc cost_ratio"]
        for name, rep in rows:
            lines.append(f"compare {name} {rep.auc:.4f} {rep.expected_cost_ratio:.4f}")
        text += "\n".join(lines) + "\n"
    _write_outputs(args, cfg, started,
                   {"eval.txt": text, "eval_records.ndjson": report.write_records})
    return 0


def cmd_simulate(args) -> int:
    started, cfg, schema = _begin(args)
    obj_cfg = objective_from_config(cfg)
    seed = train_from_config(cfg).seed
    model = _load_matching_model(args.model, cfg, schema)
    packed = _read_valid_dataset(args.dataset, schema)
    report = simulate(model, packed, obj_cfg, stochastic=bool(cfg["simulate"]["stochastic"]),
                      seed=seed)
    _write_outputs(args, cfg, started,
                   {"sim.txt": report.to_text(), "sim_records.ndjson": report.write_records})
    return 0


def cmd_gradcheck(args) -> int:
    started, cfg, schema = _begin(args)
    assignment = assignment_from_config(cfg, schema)
    obj_cfg = objective_from_config(cfg)
    train_cfg = train_from_config(cfg)
    if args.dataset:
        packed = _read_valid_dataset(args.dataset, schema)
    else:
        gen_cfg = gen_from_config(cfg)
        packed = generate(
            replace(gen_cfg, n_queries=min(gen_cfg.n_queries, 10), seed=train_cfg.seed), schema)
    model = init_weights(schema, assignment, train_cfg.seed, 0.5)
    report = gradient_check(model, packed, obj_cfg, objective=train_cfg.objective,
                            h=args.h, tolerance=args.tolerance, seed=train_cfg.seed)
    _write_outputs(args, cfg, started, {"gradcheck.txt": (
        f"objective {train_cfg.objective}\nchecked_coords {report.checked_coords}\n"
        f"max_rel_error {report.max_rel_error:.3e}\n"
        f"tolerance {report.tolerance:.3e}\npassed {report.passed}\n")})
    if not report.passed:
        print(f"gradient check FAILED: max relative error {report.max_rel_error:.3e} "
              f"exceeds {report.tolerance:.3e} at coords "
              f"{[c for c, _ in report.failures[:5]]}", file=sys.stderr)
        return 1
    return 0


# each command's function, help and the input files it requires
_COMMANDS = {
    "datagen": (cmd_datagen, "generate a synthetic dataset", ()),
    "train": (cmd_train, "train a cascade model", ("dataset",)),
    "eval": (cmd_eval, "evaluate a model, optionally vs baselines", ("dataset", "model")),
    "simulate": (cmd_simulate, "replay serving over a dataset", ("dataset", "model")),
    "gradcheck": (cmd_gradcheck, "verify analytic gradients against finite differences", ()),
}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", type=str, default=None)
    shared.add_argument("--out", type=str, required=True)
    shared.add_argument("--seed", type=int, default=None)
    defaults = default_config()
    for flag, (section, key) in _FLAG_TO_KEY.items():
        # each flag parses to the type of its key's default
        shared.add_argument("--" + flag.replace("_", "-"), type=type(defaults[section][key]),
                            choices=OBJECTIVE_LEVELS if key == "objective" else None)

    parser = argparse.ArgumentParser(prog="cascade-ranker",
                                     description="Cost-aware cascade ranking toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = {}
    for name, (fn, help_, inputs) in _COMMANDS.items():
        p[name] = sub.add_parser(name, parents=[shared], help=help_)
        p[name].set_defaults(fn=fn)
        for key in inputs:
            p[name].add_argument(f"--{key}", type=str, required=True)
    p["eval"].add_argument("--compare", action="store_true")
    p["simulate"].add_argument("--stochastic", action="store_true")
    p["gradcheck"].add_argument("--dataset", type=str, default=None)
    p["gradcheck"].add_argument("--h", type=float, default=GRADCHECK_H)
    p["gradcheck"].add_argument("--tolerance", type=float, default=GRADCHECK_TOLERANCE)
    return parser


def rerun_from_manifest(manifest_path, out_dir) -> int:
    """Re-execute a command from its manifest's resolved config snapshot. A manifest
    that ``_write_outputs`` would not write raises ValueError naming it and the key."""
    where = f"manifest {manifest_path}"
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:     # bad JSON, or bytes that are not UTF-8
            raise ValueError(f"{where}: {exc}") from None
    check_json(where, manifest, {
        "command": "", "config_path": None, "config": default_config(), "seed": 0,
        "inputs": {"dataset": None, "model": None}, "outputs": [""], "out_dir": "",
        "tool_version": "", "wall_time_s": 0.0, "compare": False, "h": 0.0, "tolerance": 0.0,
    }, _OPTIONAL_ENTRY_KEYS | {"compare", "h", "tolerance"})    # flags of one command
    command = manifest["command"]
    if command not in _COMMANDS:
        raise ValueError(f"{where}, key 'command' names no command: {command!r}")
    for key in _COMMANDS[command][2]:
        if not manifest["inputs"][key]:
            raise ValueError(f"{where}, key 'inputs' names no {key}, which {command} reads")
    cfg_path = Path(out_dir) / "_manifest_config.json"
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(manifest["config"], fh)
    argv = [command, "--config", str(cfg_path), "--out", str(out_dir)]
    for key, path in manifest["inputs"].items():
        if path:
            argv += [f"--{key}", path]
    for flag in _COMMAND_FLAGS.get(command, ()):
        value = manifest.get(flag)      # absent from a manifest that predates the flag
        if value is True:
            argv.append(f"--{flag}")
        elif value is not None and value is not False:
            argv += [f"--{flag}", repr(value)]
    return main(argv)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
