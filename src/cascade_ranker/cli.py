"""Command-line entry point: data generation, training, evaluation with
baseline comparison, gradient checking, and serving simulation.

Every hyperparameter lives in a JSON config file and can be overridden by a
flag (flags win). Every run writes a manifest next to its outputs with the
fully resolved config, enough to reproduce the run exactly. Diagnostics go to
stderr; data goes to files only.
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
from .core import Feature, FeatureSchema, StageAssignment, pack_groups, validate_dataset
from .datagen import (
    FeatureQuality,
    GenConfig,
    default_assignment,
    default_schema,
    generate,
    read_dataset,
    write_dataset,
)
from .evaluator import baseline_l1, baseline_two_stage, evaluate
from .objective import ObjectiveConfig
from .simulator import simulate
from .trainer import (
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
                _check_value(f"config {path}: key {key!r} in section {section!r}", value,
                             cfg[section][key])
            cfg[section].update(values)
    return cfg


# keys that an entry of a config list of objects may leave out
_OPTIONAL_ENTRY_KEYS = frozenset({"kind", "noise", "price_strength"})


def _check_value(where: str, value, default) -> None:
    """Raise ValueError naming ``where`` unless ``value`` has the JSON type of
    ``default``, the default config's value at that place. A number may stand
    for a float, but not a bool; a list is checked entry by entry against
    the default's first entry, and an object entry must carry every key of
    that entry except the optional ones, and no other key."""
    if isinstance(default, bool):
        ok, want = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok, want = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(default, float):
        ok, want = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    elif isinstance(default, str):
        ok, want = isinstance(value, str), "a string"
    elif isinstance(default, list):
        ok, want = isinstance(value, list), "a list"
    else:
        ok, want = isinstance(value, dict), "an object"
    if not ok:
        raise ValueError(f"{where} must be {want}, got {json.dumps(value)}")
    if isinstance(default, list) and default:
        for k, entry in enumerate(value):
            _check_value(f"{where}, entry {k}", entry, default[0])
    elif isinstance(default, dict):
        for key in default:
            if key not in value and key not in _OPTIONAL_ENTRY_KEYS:
                raise ValueError(f"{where} lacks key {key!r}")
        for key, entry in value.items():
            if key not in default:
                raise ValueError(f"{where} has unknown key {key!r}")
            _check_value(f"{where}, key {key!r}", entry, default[key])


def schema_from_config(cfg: dict) -> FeatureSchema:
    sc = cfg["schema"]
    return FeatureSchema(
        features=tuple(Feature(**f) for f in sc["features"]),
        query_bin_edges=tuple(sc["query_bins"]),
    )


def assignment_from_config(cfg: dict, schema: FeatureSchema) -> StageAssignment:
    try:
        return StageAssignment.from_names(schema, cfg["schema"]["stages"])
    except KeyError as exc:
        raise ValueError(f"config section 'schema', key 'stages': {exc.args[0]}") from None


def objective_from_config(cfg: dict) -> ObjectiveConfig:
    return ObjectiveConfig(**cfg["objective"])


def train_from_config(cfg: dict) -> TrainConfig:
    tc = dict(cfg["train"])
    if not 0 <= tc.pop("holdout_fraction") < 1:
        raise ValueError("config section 'train', key 'holdout_fraction': must be in [0, 1), "
                         f"got {cfg['train']['holdout_fraction']}")
    return TrainConfig(**tc)


def gen_from_config(cfg: dict) -> GenConfig:
    dg = dict(cfg["datagen"])
    dg["feature_quality"] = tuple(FeatureQuality(**q) for q in dg["feature_quality"])
    dg["head_mcount_range"] = tuple(dg["head_mcount_range"])
    dg["tail_mcount_range"] = tuple(dg["tail_mcount_range"])
    return GenConfig(**dg)


_FLAG_TO_KEY = {
    "objective": ("train", "objective"),
    "alpha": ("objective", "alpha"),
    "beta": ("objective", "beta"),
    "gamma": ("objective", "gamma"),
    "delta": ("objective", "delta"),
    "latency_penalty": ("objective", "latency_penalty_weight"),
    "purchase_weight": ("objective", "purchase_weight"),
    "price_weight": ("objective", "price_weight"),
    "result_floor": ("objective", "result_floor"),
    "latency_ceiling": ("objective", "latency_ceiling"),
    "lr": ("train", "learning_rate"),
    "epochs": ("train", "epochs"),
    "batch_size": ("train", "batch_size"),
}


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


def write_manifest(out_dir: Path, command: str, args: argparse.Namespace, cfg: dict,
                   outputs: list[str], started: float) -> None:
    manifest = {
        "command": command,
        "config_path": getattr(args, "config", None),
        "config": cfg,
        "seed": cfg["train"]["seed"] if command != "datagen" else cfg["datagen"]["seed"],
        "inputs": {
            "dataset": getattr(args, "dataset", None),
            "model": getattr(args, "model", None),
        },
        "outputs": outputs,
        "out_dir": str(out_dir),
        "tool_version": __version__,
        "wall_time_s": time.monotonic() - started,
    }
    if command == "eval":
        manifest["compare"] = args.compare
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
    """The dataset at ``path``, packed once and validated."""
    packed = pack_groups(read_dataset(path, schema))
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
    started = time.monotonic()
    cfg = apply_overrides(load_config(args.config), args)
    schema = schema_from_config(cfg)
    gen_cfg = gen_from_config(cfg)
    groups = generate(gen_cfg, schema)
    violations = validate_dataset(pack_groups(groups), schema)
    if violations:
        print(f"generated data failed validation: {violations[:3]}", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_dataset(out_dir / "dataset.txt", groups)
    write_manifest(out_dir, "datagen", args, cfg, ["dataset.txt"], started)
    return 0


def cmd_train(args) -> int:
    started = time.monotonic()
    cfg = apply_overrides(load_config(args.config), args)
    schema = schema_from_config(cfg)
    assignment = assignment_from_config(cfg, schema)
    obj_cfg = objective_from_config(cfg)
    train_cfg = train_from_config(cfg)
    train_data, holdout = _split_holdout(_read_valid_dataset(args.dataset, schema),
                                         cfg["train"]["holdout_fraction"], train_cfg.seed)
    model, log = train(train_data, schema, assignment, obj_cfg, train_cfg,
                       eval_data=holdout)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(model, out_dir / "model.txt")
    with open(out_dir / "trainlog.ndjson", "w", encoding="utf-8") as fh:
        for r in log.records:
            fh.write(json.dumps(asdict(r)) + "\n")
    write_manifest(out_dir, "train", args, cfg, ["model.txt", "trainlog.ndjson"], started)
    return 0


def _baseline_cost(schema: FeatureSchema, n_instances: int) -> float:
    return float(n_instances * schema.costs().sum())


def cmd_eval(args) -> int:
    started = time.monotonic()
    cfg = apply_overrides(load_config(args.config), args)
    schema = schema_from_config(cfg)
    obj_cfg = objective_from_config(cfg)
    keep_k = int(cfg["eval"]["two_stage_keep_k"])
    if keep_k < 1:
        raise ValueError("config section 'eval', key 'two_stage_keep_k': keep_k must be >= 1, "
                         f"got {keep_k}")
    model = _load_matching_model(args.model, cfg, schema)
    packed = _read_valid_dataset(args.dataset, schema)
    base = _baseline_cost(schema, packed.n_instances)
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
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "eval.txt", "w", encoding="utf-8") as fh:
        fh.write(text)
    report.write_records(out_dir / "eval_records.ndjson")
    write_manifest(out_dir, "eval", args, cfg, ["eval.txt", "eval_records.ndjson"], started)
    return 0


def cmd_simulate(args) -> int:
    started = time.monotonic()
    cfg = apply_overrides(load_config(args.config), args)
    schema = schema_from_config(cfg)
    obj_cfg = objective_from_config(cfg)
    model = _load_matching_model(args.model, cfg, schema)
    packed = _read_valid_dataset(args.dataset, schema)
    report = simulate(model, packed, obj_cfg, stochastic=bool(cfg["simulate"]["stochastic"]),
                      seed=int(cfg["train"]["seed"]))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "sim.txt", "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    report.write_records(out_dir / "sim_records.ndjson")
    write_manifest(out_dir, "simulate", args, cfg, ["sim.txt", "sim_records.ndjson"], started)
    return 0


def cmd_gradcheck(args) -> int:
    started = time.monotonic()
    cfg = apply_overrides(load_config(args.config), args)
    schema = schema_from_config(cfg)
    assignment = assignment_from_config(cfg, schema)
    obj_cfg = objective_from_config(cfg)
    seed = int(cfg["train"]["seed"])
    if args.dataset:
        packed = _read_valid_dataset(args.dataset, schema)
    else:
        gen_cfg = gen_from_config(cfg)
        packed = pack_groups(generate(
            replace(gen_cfg, n_queries=min(gen_cfg.n_queries, 10), seed=seed), schema))
    model = init_weights(schema, assignment, seed, 0.5)
    objective = cfg["train"]["objective"]
    report = gradient_check(model, packed, obj_cfg, objective=objective,
                            h=args.h, tolerance=args.tolerance, seed=seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "gradcheck.txt", "w", encoding="utf-8") as fh:
        fh.write(f"objective {objective}\nchecked_coords {report.checked_coords}\n"
                 f"max_rel_error {report.max_rel_error:.3e}\n"
                 f"tolerance {report.tolerance:.3e}\npassed {report.passed}\n")
    write_manifest(out_dir, "gradcheck", args, cfg, ["gradcheck.txt"], started)
    if not report.passed:
        print(f"gradient check FAILED: max relative error {report.max_rel_error:.3e} "
              f"exceeds {report.tolerance:.3e} at coords "
              f"{[c for c, _ in report.failures[:5]]}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", type=str, default=None)
    shared.add_argument("--out", type=str, required=True)
    shared.add_argument("--seed", type=int, default=None)
    shared.add_argument("--objective", choices=["l1", "l2", "l3"], default=None)
    for flag in ("--alpha", "--beta", "--gamma", "--delta", "--latency-penalty",
                 "--purchase-weight", "--price-weight", "--result-floor",
                 "--latency-ceiling", "--lr"):
        shared.add_argument(flag, type=float, default=None)
    shared.add_argument("--epochs", type=int, default=None)
    shared.add_argument("--batch-size", type=int, default=None)

    parser = argparse.ArgumentParser(prog="cascade-ranker",
                                     description="Cost-aware cascade ranking toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", parents=[shared], help="generate a synthetic dataset")
    p.set_defaults(fn=cmd_datagen)

    p = sub.add_parser("train", parents=[shared], help="train a cascade model")
    p.add_argument("--dataset", type=str, required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", parents=[shared], help="evaluate a model, optionally vs baselines")
    p.add_argument("--dataset", type=str, required=True)
    p.add_argument("--model", type=str, required=True)
    p.add_argument("--compare", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("simulate", parents=[shared], help="replay serving over a dataset")
    p.add_argument("--dataset", type=str, required=True)
    p.add_argument("--model", type=str, required=True)
    p.add_argument("--stochastic", action="store_true")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("gradcheck", parents=[shared],
                       help="verify analytic gradients against finite differences")
    p.add_argument("--dataset", type=str, default=None)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def rerun_from_manifest(manifest_path, out_dir) -> int:
    """Re-execute a command from its manifest's resolved config snapshot."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    cfg_path = Path(out_dir) / "_manifest_config.json"
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(manifest["config"], fh)
    argv = [manifest["command"], "--config", str(cfg_path), "--out", str(out_dir)]
    for key in ("dataset", "model"):
        if manifest["inputs"].get(key):
            argv += [f"--{key}", manifest["inputs"][key]]
    if manifest.get("compare"):
        argv.append("--compare")
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
