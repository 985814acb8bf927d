"""Stochastic gradient descent over the cascade objectives, a finite-difference
gradient checker, and the versioned flat-text model format.

Mini-batches are whole query groups, never split instances of one query, so
the per-query penalty gradients are exact within a batch. Each batch gradient
is the batch's additive share of the data terms plus the batch-proportional
share of the regularizer, normalized by the batch instance count so the
learning rate is insensitive to dataset size. Training is deterministic given
the seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .cascade import batch_final_probs
from .core import (CascadeModel, FeatureSchema, PackedDataset, QueryGroup, StageAssignment,
                   pack_groups, require_finite)
from .objective import OBJECTIVE_LEVELS, ObjectiveConfig, loss

MODEL_FORMAT_VERSION = 1


class TrainingDiverged(RuntimeError):
    """Raised when a non-finite loss or gradient appears during training."""


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "l3"
    learning_rate: float = 0.1
    lr_decay: float = 0.95
    epochs: int = 50
    batch_size: int = 32           # in query groups
    seed: int = 7
    init_scale: float = 0.01

    def __post_init__(self):
        require_finite(self)
        if self.objective not in OBJECTIVE_LEVELS:
            raise ValueError(f"objective must be one of {OBJECTIVE_LEVELS}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.lr_decay < 0:
            raise ValueError("lr_decay must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        _check_init_scale(self.init_scale)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


MAX_INIT_SCALE = float(np.finfo(np.float64).max) / 2    # so the draw range 2 * it is finite


def _check_init_scale(init_scale: float) -> None:
    if not 0 <= init_scale <= MAX_INIT_SCALE:
        raise ValueError(f"init_scale must be in [0, {MAX_INIT_SCALE!r}], got {init_scale}")


def init_weights(schema: FeatureSchema, assignment: StageAssignment, seed: int,
                 init_scale: float) -> CascadeModel:
    """Random model with weights i.i.d. uniform in [-init_scale, +init_scale].

    Deterministic given ``seed``; ``init_scale = 0`` gives the all-zero model.
    """
    _check_init_scale(init_scale)
    # one weight per stage feature and per stage query bin
    n = sum(len(stage) + schema.query_feature_dim for stage in assignment.stages)
    w = np.random.default_rng(seed).uniform(-init_scale, init_scale, size=n)
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
            if not (np.isfinite(bd.total) and np.isfinite(grad_norm)):
                raise TrainingDiverged(
                    f"non-finite loss or gradient at epoch {epoch}, "
                    f"batch {b0 // train_cfg.batch_size}"
                )
            # an overflowing step is reported by the model's finiteness check
            with np.errstate(over="ignore", invalid="ignore"):
                w = model.weights - lr * bd.gradient / batch.n_instances
            try:
                model = CascadeModel(w, assignment, schema)
            except ValueError:
                raise TrainingDiverged(f"non-finite weights after update at epoch {epoch}, "
                                       f"batch {b0 // train_cfg.batch_size}") from None
            total += bd.total
            nll += bd.nll
            cost += bd.expected_cost
            size_pen += bd.size_penalty
            lat_pen += bd.latency_penalty
            grad_norms += grad_norm
            below += bd.queries_below_floor
            above += bd.queries_above_ceiling
            n_batches += 1

        scores = batch_final_probs(model, eval_packed)
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


def gradient_check(model: CascadeModel, data, obj_cfg: ObjectiveConfig,
                   objective: str = "l3", h: float = 1e-5, tolerance: float = 1e-4,
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
    relative error ``inf``. ``h`` and ``tolerance`` must be finite and > 0,
    and ``max_coords`` at least 1. Raises ValueError when the loss or its
    gradient at the model's weights is not finite: there is then no
    gradient to check. Every loss is taken under the ``np.errstate`` of
    ``train``, so numpy warns of nothing.
    """
    for name, value in (("h", h), ("tolerance", tolerance)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if max_coords < 1:
        raise ValueError(f"max_coords must be >= 1, got {max_coords}")
    packed = pack_groups(data)
    w = model.weights
    with np.errstate(over="ignore", invalid="ignore"):
        bd = loss(model, packed, obj_cfg, objective)
    if not (np.isfinite(bd.total) and np.isfinite(bd.gradient).all()):
        raise ValueError(f"the {objective} loss ({bd.total}) or its gradient at the checked "
                         "weights is not finite, so there is no gradient to check")
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
    """Versioned flat text format; weights at 17 significant digits so the
    round trip is bit-exact."""
    lines = [
        f"cascade-model v{MODEL_FORMAT_VERSION} stages {model.n_stages} "
        f"item_dim {model.schema.item_dim} query_dim {model.schema.query_feature_dim}"
    ]
    for j, stage in enumerate(model.assignment.stages):
        lines.append(f"stage {j} features " + " ".join(str(i) for i in stage))
    for j in range(model.n_stages):
        lines.append(f"item_weights {j} " + " ".join(
            format(x, ".17g") for x in model.stage_item_weights[j]))
        lines.append(f"query_weights {j} " + " ".join(
            format(x, ".17g") for x in model.stage_query_weights[j]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path, schema: FeatureSchema) -> CascadeModel:
    """Read a model written by ``save_model``. A malformed, empty or truncated
    file raises ValueError naming the file and the line that is wrong or
    missing."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.rstrip("\n")) for n, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise ValueError(f"model file {path} ends before its header line")

    def values(k: int, key: str, convert=float) -> list:
        """The values after ``key`` on the k-th nonblank line, converted."""
        if k >= len(lines):
            raise ValueError(f"model file {path} ends before its '{key}' line")
        n, text = lines[k]
        head, fields = key.split(), text.split()
        try:
            if fields[: len(head)] != head:
                raise ValueError(f"expected the '{key}' line, got {text!r}")
            out = [convert(x) for x in fields[len(head):]]
            if convert is float and not np.isfinite(out).all():
                raise ValueError("weights must be finite")
        except ValueError as exc:
            raise ValueError(f"model file {path} line {n}: {exc}") from None
        return out

    where, head = f"model file {path} line {lines[0][0]}", lines[0][1].split()
    if head[:2] != ["cascade-model", f"v{MODEL_FORMAT_VERSION}"]:
        raise ValueError(f"{where}: unsupported model header: {lines[0][1]!r}")
    try:
        T, item_dim, query_dim = (
            int(head[head.index(key) + 1]) for key in ("stages", "item_dim", "query_dim")
        )
    except (ValueError, IndexError):
        raise ValueError(f"{where}: malformed model header: {lines[0][1]!r}") from None
    if item_dim != schema.item_dim or query_dim != schema.query_feature_dim:
        raise ValueError(
            f"{where}: model dims (item {item_dim}, query {query_dim}) do not match schema "
            f"(item {schema.item_dim}, query {schema.query_feature_dim})"
        )
    stages = tuple(tuple(values(1 + j, f"stage {j} features", int)) for j in range(T))
    item, query = [], []
    for j in range(T):
        item.append(values(1 + T + 2 * j, f"item_weights {j}"))
        query.append(values(2 + T + 2 * j, f"query_weights {j}"))
    try:
        return CascadeModel.from_stages(item, query, StageAssignment(stages), schema)
    except ValueError as exc:
        raise ValueError(f"model file {path}: {exc}") from None
