"""Stochastic gradient descent over the cascade objectives, a finite-difference
gradient checker, and the model file: one versioned JSON object that records
the item width and query bins the model was trained under.

Mini-batches are whole query groups, never split instances of one query, so
the per-query penalty gradients are exact within a batch. Each batch gradient
is the batch's additive share of the data terms plus the batch-proportional
share of the regularizer, normalized by the batch instance count so the
learning rate is insensitive to dataset size. Training is deterministic given
the seed. A divergence is an error that names the config keys to check.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import (CascadeModel, FeatureSchema, PackedDataset, QueryGroup, StageAssignment,
                   check_domains, check_json, pack_groups)
from .objective import OBJECTIVE_LEVELS, ObjectiveConfig, blame_term, forward_expectations, loss

# a model file's JSON object: its format and version, and a valid value of every other key
MODEL_TEMPLATE = {"format": "cascade-model", "version": 2, "item_dim": 0, "query_bins": [0.0],
                  "stages": [[0]], "weights": [0.0]}


class TrainingDiverged(RuntimeError):
    """Raised when a non-finite loss or gradient appears during training."""


MAX_INIT_SCALE = float(np.finfo(np.float64).max) / 2    # so the draw range 2 * it is finite
GRADCHECK_H = 1e-7     # gradient_check's step; 1e-6 fails the l3 gradient at train.seed 952238
GRADCHECK_TOLERANCE = 1e-4     # gradient_check's bound on the relative error


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "l3"
    learning_rate: float = 0.1
    lr_decay: float = 0.95
    epochs: int = 50
    batch_size: int = 32           # in query groups
    seed: int = 7
    init_scale: float = 0.01

    DOMAINS = dict(learning_rate="(0, inf)", lr_decay="[0, inf)", epochs="[1, inf)",
                   batch_size="[1, inf)", seed="[0, inf)", init_scale=f"[0, {MAX_INIT_SCALE!r}]")

    def __post_init__(self):
        check_domains(vars(self), self.DOMAINS)
        if self.objective not in OBJECTIVE_LEVELS:
            raise ValueError(f"objective must be one of {OBJECTIVE_LEVELS}")


@dataclass(frozen=True)
class EpochRecord:
    """What one epoch of ``train`` saw.

    The loss fields are sums over the epoch's batches of the ``LossBreakdown``
    each batch step computed, at the weights before that batch's update: not
    the loss of the whole training split at the end of the epoch. ``lr`` is
    the learning rate of the epoch's steps, ``grad_norm`` the mean L2 norm of
    the batch loss gradients, and ``frac_below_floor`` / ``frac_above_ceiling``
    the shares of training queries whose expected result count fell below
    ``result_floor`` / whose expected latency rose above ``latency_ceiling``
    at their batch's weights. ``auc`` is the macro AUC on the evaluation data
    at the end of the epoch.
    """

    epoch: int
    total: float
    nll: float
    expected_cost: float
    size_penalty: float
    latency_penalty: float
    lr: float
    grad_norm: float
    frac_below_floor: float
    frac_above_ceiling: float
    auc: float
    wall_time_s: float


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)


def init_weights(schema: FeatureSchema, assignment: StageAssignment, seed: int,
                 init_scale: float) -> CascadeModel:
    """Random model with weights i.i.d. uniform in [-init_scale, +init_scale].

    Deterministic given ``seed``; ``init_scale = 0`` gives the all-zero model.
    """
    check_domains(locals(), {"init_scale": TrainConfig.DOMAINS["init_scale"]})
    # a weight per stage feature and query bin; abs(-0.0) gives a range numpy takes
    n = sum(len(stage) + schema.query_feature_dim for stage in assignment.stages)
    w = np.random.default_rng(seed).uniform(-abs(init_scale), abs(init_scale), size=n)
    return CascadeModel(w, assignment, schema)


def train(data: PackedDataset | Sequence[QueryGroup], schema: FeatureSchema,
          assignment: StageAssignment, obj_cfg: ObjectiveConfig, train_cfg: TrainConfig,
          eval_data: PackedDataset | Sequence[QueryGroup] | None = None,
          ) -> tuple[CascadeModel, TrainLog]:
    """SGD over shuffled mini-batches of the query groups of ``data``.

    Each epoch appends an ``EpochRecord``. Its loss fields add up the loss
    breakdowns of the epoch's batches, each taken at the weights before that
    batch's update, so no extra pass over the training split is made. Its
    AUC is measured on ``eval_data`` (or the training split when no held-out
    data is given) at the end of the epoch.
    """
    from .evaluator import macro_auc  # local import: evaluator imports this module

    packed = pack_groups(data)
    if packed.n_instances == 0:
        raise ValueError("training data is empty")
    if packed.y.min() == packed.y.max():
        raise ValueError("training data needs at least one positive and one negative label")

    model = init_weights(schema, assignment, train_cfg.seed, train_cfg.init_scale)
    shuffle_rng = np.random.default_rng([train_cfg.seed, 1])
    n_total = packed.n_instances
    if not np.isfinite(obj_cfg.alpha * n_total):    # a batch scales alpha by <= n_total
        raise ValueError(f"alpha {obj_cfg.alpha} times the {n_total} training instances "
                         "overflows to inf")
    eval_packed = pack_groups(eval_data) if eval_data is not None else packed

    log = TrainLog()
    start = time.monotonic()
    lr = train_cfg.learning_rate
    for epoch in range(1, train_cfg.epochs + 1):
        order = shuffle_rng.permutation(packed.n_groups)
        total = nll = cost = size_pen = lat_pen = grad_norms = 0.0
        below = above = n_batches = 0
        for b0 in range(0, len(order), train_cfg.batch_size):
            batch = packed.take(order[b0 : b0 + train_cfg.batch_size])
            batch_cfg = replace(obj_cfg, alpha=obj_cfg.alpha * batch.n_instances / n_total)
            # a loss, gradient or gradient norm that overflows is reported below
            with np.errstate(over="ignore", invalid="ignore"):
                bd = loss(model, batch, batch_cfg, train_cfg.objective)
                grad_norm = float(np.linalg.norm(bd.gradient))
            at = f"at epoch {epoch}, batch {b0 // train_cfg.batch_size}"
            if not (np.isfinite(bd.total) and np.isfinite(grad_norm)):
                cause = blame_term(bd, batch_cfg, train_cfg.objective, batch)
                if epoch > 1 or b0 > 0:
                    cause += " or the steps before it (check learning_rate, lr_decay)"
                elif not np.isfinite(bd.l2):
                    cause = "the l2 term of the initial weights (check init_scale)"
                raise TrainingDiverged(f"non-finite loss or gradient {at}: {cause}")
            # an overflowing step is reported by the model's finiteness check
            with np.errstate(over="ignore", invalid="ignore"):
                w = model.weights - lr * bd.gradient / batch.n_instances
            try:
                model = CascadeModel(w, assignment, schema)
            except ValueError:
                raise TrainingDiverged(f"non-finite weights after update {at}: the step "
                                       "(check learning_rate, lr_decay)") from None
            total += bd.total
            nll += bd.nll
            cost += bd.expected_cost
            size_pen += bd.size_penalty
            lat_pen += bd.latency_penalty
            grad_norms += grad_norm
            below += bd.queries_below_floor
            above += bd.queries_above_ceiling
            n_batches += 1

        with np.errstate(over="ignore"):    # a cost sum may overflow; only P is read
            scores = forward_expectations(model, eval_packed)[0]
        try:
            auc_val = macro_auc(scores, eval_packed)
        except ValueError:
            auc_val = float("nan")
        log.records.append(EpochRecord(
            epoch=epoch, total=total, nll=nll, expected_cost=cost, size_penalty=size_pen,
            latency_penalty=lat_pen, lr=lr, grad_norm=grad_norms / n_batches,
            frac_below_floor=below / packed.n_groups, frac_above_ceiling=above / packed.n_groups,
            auc=auc_val, wall_time_s=time.monotonic() - start,
        ))
        lr *= train_cfg.lr_decay
    return model, log


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    checked_coords: int
    failures: tuple[tuple[int, float], ...]   # (coordinate, relative error)
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def gradient_check(model: CascadeModel, data, obj_cfg: ObjectiveConfig, objective: str = "l3",
                   h: float = GRADCHECK_H, tolerance: float = GRADCHECK_TOLERANCE,
                   max_coords: int = 100, seed: int = 0) -> GradCheckReport:
    """Compare the analytic gradient to central finite differences.

    Checks every weight, or a seeded random subset of ``max_coords`` when the
    model is larger. A coordinate's relative error is
    |analytic - numeric| / max(|analytic|, |numeric|, R / tolerance), where
    R = 16 * eps * max(|f(w + h)|, |f(w - h)|) / h bounds the rounding error
    of the central difference with a margin of 16 (eps is the float64
    machine epsilon). So a small gradient fails only when it is off by more
    than that rounding noise, and a large one when it is off by ``tolerance``
    relative to itself. ``max_rel_error`` uses the same denominator. A
    coordinate whose numeric derivative or bound R is not finite fails with
    relative error ``inf``. Raises ValueError when the loss or its gradient
    at the model's weights is not finite, naming the term to blame and its
    keys: there is then no gradient to check. Every loss is taken under the
    ``np.errstate`` of ``train``, so numpy warns of nothing.
    """
    check_domains(locals(), dict(h="(0, inf)", tolerance="(0, inf)", max_coords="[1, inf)"))
    packed = pack_groups(data)
    w = model.weights
    with np.errstate(over="ignore", invalid="ignore"):
        bd = loss(model, packed, obj_cfg, objective)
    if not (np.isfinite(bd.total) and np.isfinite(bd.gradient).all()):
        raise ValueError(f"the {objective} loss ({bd.total}) or its gradient at the checked "
                         f"weights is not finite, from {blame_term(bd, obj_cfg, objective, packed)}"
                         ", so there is no gradient to check")
    analytic = bd.gradient

    n = w.shape[0]
    if n <= max_coords:
        coords = np.arange(n)
    else:
        coords = np.random.default_rng(seed).choice(n, size=max_coords, replace=False)

    failures = []
    max_rel = 0.0
    for k in coords:
        wp, wm = w.copy(), w.copy()
        wp[k] += h
        wm[k] -= h
        with np.errstate(over="ignore", invalid="ignore"):
            fp, fm = (loss(CascadeModel(v, model.assignment, model.schema), packed, obj_cfg,
                           objective, want_grad=False).total for v in (wp, wm))
            numeric = (fp - fm) / (2.0 * h)
            rounding = 16.0 * np.finfo(np.float64).eps * max(abs(fp), abs(fm)) / h
        if np.isfinite(numeric) and np.isfinite(rounding):
            denom = max(abs(analytic[k]), abs(numeric), rounding / tolerance)
            rel = abs(analytic[k] - numeric) / denom if denom > 0 else 0.0
        else:
            rel = np.inf
        max_rel = max(max_rel, rel)
        if rel >= tolerance:
            failures.append((int(k), float(rel)))
    return GradCheckReport(
        max_rel_error=float(max_rel), checked_coords=len(coords),
        failures=tuple(failures), tolerance=tolerance,
    )


def save_model(model: CascadeModel, path) -> None:
    """One JSON object of the keys of ``MODEL_TEMPLATE``; ``json`` writes each
    weight in its shortest round-trip form, so the round trip is bit-exact."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({**MODEL_TEMPLATE, "item_dim": model.schema.item_dim,
                             "query_bins": list(model.schema.query_bin_edges),
                             "stages": model.assignment.stages,
                             "weights": model.weights.tolist()}) + "\n")


def load_model(path, schema: FeatureSchema) -> CascadeModel:
    """Read a model that ``save_model`` wrote under ``schema``'s item width
    and query bins. Any other file raises ValueError naming the file and the
    fault: the JSON error, the key, or the ``CascadeModel`` check that fails."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.startswith("cascade-model v1 "):
            raise ValueError("format v1, the line format, is no longer read (retrain the model)")
        doc = json.loads(text)
        check_json("the document", doc, MODEL_TEMPLATE)
        want = dict(MODEL_TEMPLATE, item_dim=schema.item_dim, query_bins=[*schema.query_bin_edges])
        for key in ("format", "version", "item_dim", "query_bins"):
            if doc[key] != want[key]:
                raise ValueError(f"{key} {doc[key]!r} differs from the {want[key]!r} expected")
        return CascadeModel(np.array(doc["weights"], dtype=np.float64),
                            StageAssignment(doc["stages"]), schema)
    except (ValueError, OverflowError) as exc:   # OverflowError: an integer beyond float64
        raise ValueError(f"model file {path}: {exc}") from None
