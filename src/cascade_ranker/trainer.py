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
from typing import Callable, Sequence

import numpy as np

from .core import CascadeModel, FeatureSchema, PackedDataset, QueryGroup, StageAssignment, pack_groups
from .objective import OBJECTIVE_LEVELS, LossBreakdown, ObjectiveConfig, loss

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
        if self.init_scale < 0:
            raise ValueError("init_scale must be >= 0")


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
    if init_scale < 0:
        raise ValueError("init_scale must be >= 0")
    rng = np.random.default_rng(seed)
    dq = schema.query_feature_dim
    item, query = [], []
    for stage in assignment.stages:
        item.append(rng.uniform(-init_scale, init_scale, size=len(stage)))
        query.append(rng.uniform(-init_scale, init_scale, size=dq))
    return CascadeModel(tuple(item), tuple(query), assignment, schema)


def _packed(data: PackedDataset | Sequence[QueryGroup]) -> PackedDataset:
    return data if isinstance(data, PackedDataset) else pack_groups(data)


def train(data: PackedDataset | Sequence[QueryGroup], schema: FeatureSchema,
          assignment: StageAssignment, obj_cfg: ObjectiveConfig, train_cfg: TrainConfig,
          eval_data: PackedDataset | Sequence[QueryGroup] | None = None,
          ) -> tuple[CascadeModel, TrainLog]:
    """SGD over shuffled mini-batches of query groups, given as a
    ``PackedDataset`` or a sequence of ``QueryGroup``s.

    Each epoch appends an ``EpochRecord``. Its loss fields add up the loss
    breakdowns of the epoch's batches, each taken at the weights before that
    batch's update, so no extra pass over the training split is made. Its
    AUC is measured on ``eval_data`` (or the training split when no held-out
    data is given) at the end of the epoch.
    """
    from .evaluator import macro_auc  # local import: evaluator depends on objective
    from .cascade import batch_final_probs

    packed = _packed(data)
    if packed.n_instances == 0:
        raise ValueError("training data is empty")
    if packed.y.min() == packed.y.max():
        raise ValueError("training data needs at least one positive and one negative label")

    model = init_weights(schema, assignment, train_cfg.seed, train_cfg.init_scale)
    w = model.flat_weights()
    shuffle_rng = np.random.default_rng([train_cfg.seed, 1])
    n_total = packed.n_instances
    eval_packed = _packed(eval_data) if eval_data is not None else packed

    log = TrainLog()
    start = time.monotonic()
    lr = train_cfg.learning_rate
    for epoch in range(1, train_cfg.epochs + 1):
        order = shuffle_rng.permutation(packed.n_groups)
        sizes, offsets, rows = packed._group_rows(order)
        total = nll = cost = size_pen = lat_pen = grad_norms = 0.0
        below = above = n_batches = 0
        for b0 in range(0, len(order), train_cfg.batch_size):
            b1 = min(b0 + train_cfg.batch_size, len(order))
            batch = packed._select(order[b0:b1], rows[offsets[b0] : offsets[b1]],
                                   sizes[b0:b1], offsets[b0 : b1 + 1] - offsets[b0])
            batch_cfg = replace(obj_cfg, alpha=obj_cfg.alpha * batch.n_instances / n_total)
            # the checks below stand in for those of with_flat_weights
            bd = loss(model._flat_view(w), batch, batch_cfg, train_cfg.objective)
            if not (np.isfinite(bd.total) and np.all(np.isfinite(bd.gradient))):
                raise TrainingDiverged(
                    f"non-finite loss or gradient at epoch {epoch}, "
                    f"batch {b0 // train_cfg.batch_size}"
                )
            # an overflowing step is reported by the check below, not by numpy
            with np.errstate(over="ignore", invalid="ignore"):
                w = w - lr * bd.gradient / batch.n_instances
            if not np.all(np.isfinite(w)):
                raise TrainingDiverged(
                    f"non-finite weights after update at epoch {epoch}, "
                    f"batch {b0 // train_cfg.batch_size}"
                )
            total += bd.total
            nll += bd.nll
            cost += bd.expected_cost
            size_pen += bd.size_penalty
            lat_pen += bd.latency_penalty
            grad_norms += float(np.linalg.norm(bd.gradient))
            below += bd.queries_below_floor
            above += bd.queries_above_ceiling
            n_batches += 1

        model = model.with_flat_weights(w)
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
                   max_coords: int = 100, seed: int = 0,
                   loss_fn: Callable[..., LossBreakdown] | None = None) -> GradCheckReport:
    """Compare the analytic gradient to central finite differences.

    Checks every weight, or a seeded random subset of ``max_coords`` when the
    model is larger. A coordinate's relative error is
    |analytic - numeric| / max(|analytic|, |numeric|, R / tolerance), where
    R = 16 * eps * max(|f(w + h)|, |f(w - h)|) / h bounds the rounding error
    of the central difference with a margin of 16 (eps is the float64
    machine epsilon). So a small gradient fails only when it is off by more
    than that rounding noise, and a large one when it is off by ``tolerance``
    relative to itself. ``max_rel_error`` uses the same denominator.
    ``loss_fn`` exists as a test hook and defaults to the real loss.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    fn = loss_fn if loss_fn is not None else loss
    packed = _packed(data)
    w = model.flat_weights()
    analytic = fn(model, packed, obj_cfg, objective).gradient

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
        fp = fn(model.with_flat_weights(wp), packed, obj_cfg, objective, want_grad=False).total
        fm = fn(model.with_flat_weights(wm), packed, obj_cfg, objective, want_grad=False).total
        numeric = (fp - fm) / (2.0 * h)
        rounding = 16.0 * np.finfo(np.float64).eps * max(abs(fp), abs(fm)) / h
        denom = max(abs(analytic[k]), abs(numeric), rounding / tolerance)
        rel = abs(analytic[k] - numeric) / denom if denom > 0 else 0.0
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
        f"item_dim {model.schema.item_dim} query_dim {model.query_feature_dim}"
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
    file raises ValueError naming the line that is wrong or missing."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]

    def line(k: int, what: str) -> str:
        if k >= len(lines):
            raise ValueError(f"model file {path} ends before its {what} line")
        return lines[k]

    head = line(0, "header").split()
    if head[:2] != ["cascade-model", f"v{MODEL_FORMAT_VERSION}"]:
        raise ValueError(f"unsupported model header: {lines[0]!r}")
    try:
        T, item_dim, query_dim = (
            int(head[head.index(key) + 1]) for key in ("stages", "item_dim", "query_dim")
        )
    except (ValueError, IndexError):
        raise ValueError(f"malformed model header: {lines[0]!r}") from None
    if item_dim != schema.item_dim or query_dim != schema.query_feature_dim:
        raise ValueError(
            f"model dims (item {item_dim}, query {query_dim}) do not match schema "
            f"(item {schema.item_dim}, query {schema.query_feature_dim})"
        )
    stages = []
    for j in range(T):
        text = line(1 + j, f"'stage {j} features'")
        parts = text.split()
        if parts[:2] != ["stage", str(j)]:
            raise ValueError(f"expected stage {j} line, got {text!r}")
        stages.append(tuple(int(x) for x in parts[3:]))
    assignment = StageAssignment(tuple(stages))
    item, query = [], []
    pos = 1 + T
    for j in range(T):
        ip = line(pos, f"'item_weights {j}'").split()
        qp = line(pos + 1, f"'query_weights {j}'").split()
        if ip[:2] != ["item_weights", str(j)] or qp[:2] != ["query_weights", str(j)]:
            raise ValueError(f"malformed weight lines for stage {j}")
        item.append(np.array([float(x) for x in ip[2:]]))
        query.append(np.array([float(x) for x in qp[2:]]))
        pos += 2
    return CascadeModel(tuple(item), tuple(query), assignment, schema)
