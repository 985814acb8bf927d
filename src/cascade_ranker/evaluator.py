"""Offline metrics and comparison baselines.

``auc`` is the flat rank-sum primitive. Reports carry the per-query mean AUC
(click and purchase both count as positive): ranking quality is a within-query
notion here, since the query-only feature deliberately shifts whole queries'
score magnitudes to control result size and cost. Costs are reported as ratios
against a caller-supplied baseline, conventionally the single-stage
all-features expected cost.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .cascade import batch_final_probs
from .core import (
    CascadeModel,
    FeatureSchema,
    PackedDataset,
    QueryGroup,
    StageAssignment,
    pack_groups,
)
from .objective import ObjectiveConfig, expected_cost, per_query_expectations
from .trainer import TrainConfig, train


def _tied_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; ties share the average of their rank range."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    avg = ends - (counts - 1) / 2.0
    return avg[inverse]


def auc(scores: Sequence[tuple[float, int]]) -> float:
    """Probability that a uniformly random positive outranks a uniformly
    random negative; ties contribute 1/2. Sort-and-rank-sum, O(n log n)."""
    vals = np.array([s for s, _ in scores], dtype=np.float64)
    y = np.array([int(l) for _, l in scores])
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0:
        raise ValueError("AUC undefined: no positive labels")
    if n_neg == 0:
        raise ValueError("AUC undefined: no negative labels")
    ranks = _tied_ranks(vals)
    rank_sum = float(np.sum(ranks[y == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def macro_auc(scores: np.ndarray, packed: PackedDataset) -> float:
    """Mean per-query AUC over queries holding both classes.

    One segmented pass over all rows: a single sort by (query, score), the
    average rank for each run of tied scores within a query, and per-query
    sums of the positives' ranks. Ranks are half-integers, so every sum is
    exact and each query's AUC equals ``auc`` on its rows bit for bit.

    Raises when no query has both a positive and a negative instance.
    """
    scores = np.asarray(scores, dtype=np.float64)
    starts = packed.offsets[:-1]
    n_pos = np.add.reduceat(packed.y, starts)
    both = (n_pos > 0) & (n_pos < packed.sizes)
    if not both.any():
        raise ValueError("AUC undefined: no query has both a positive and a negative")

    group = np.repeat(np.arange(packed.n_groups), packed.sizes)
    order = np.lexsort((scores, group))
    s, g = scores[order], group[order]
    new_run = np.ones(len(s), dtype=bool)
    new_run[1:] = (s[1:] != s[:-1]) | (g[1:] != g[:-1])
    run_start = np.flatnonzero(new_run)
    run_len = np.diff(np.append(run_start, len(s)))
    # 1-based rank of each run's last row within its query, as in _tied_ranks
    run_end = run_start + run_len - packed.offsets[g[run_start]]
    ranks = np.repeat(run_end - (run_len - 1) / 2.0, run_len)
    pos_rank_sum = np.add.reduceat(ranks * packed.y[order], starts)

    p = n_pos[both]
    n = packed.sizes[both] - p
    return float(np.mean((pos_rank_sum[both] - p * (p + 1) / 2.0) / (p * n)))


@dataclass(frozen=True)
class PerQueryRecord:
    query_id: str
    recalled_count: int
    size: int
    expected_final_count: float
    expected_latency_units: float
    expected_latency_ms: float
    below_floor: bool
    above_latency_ceiling: bool


@dataclass(frozen=True)
class EvalReport:
    auc: float
    expected_cost: float
    expected_cost_ratio: float
    mean_final_count: float
    fraction_below_floor: float
    fraction_above_latency_ceiling: float
    mean_latency_units: float
    p95_latency_units: float
    mean_latency_ms: float
    p95_latency_ms: float
    per_query: tuple[PerQueryRecord, ...]

    def to_text(self) -> str:
        pairs = [
            ("auc", self.auc),
            ("expected_cost", self.expected_cost),
            ("expected_cost_ratio", self.expected_cost_ratio),
            ("mean_final_count", self.mean_final_count),
            ("fraction_below_floor", self.fraction_below_floor),
            ("fraction_above_latency_ceiling", self.fraction_above_latency_ceiling),
            ("mean_latency_units", self.mean_latency_units),
            ("p95_latency_units", self.p95_latency_units),
            ("mean_latency_ms", self.mean_latency_ms),
            ("p95_latency_ms", self.p95_latency_ms),
        ]
        return "\n".join(f"{k} {v:.6g}" for k, v in pairs) + "\n"

    def write_records(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for r in self.per_query:
                fh.write(json.dumps({
                    "query_id": r.query_id, "recalled_count": r.recalled_count,
                    "size": r.size, "expected_final_count": r.expected_final_count,
                    "expected_latency_units": r.expected_latency_units,
                    "expected_latency_ms": r.expected_latency_ms,
                    "below_floor": r.below_floor,
                    "above_latency_ceiling": r.above_latency_ceiling,
                }) + "\n")


def _report_from_per_query(auc_val: float, cost: float, baseline_cost: float,
                           packed: PackedDataset, counts: np.ndarray,
                           latencies: np.ndarray, cfg: ObjectiveConfig) -> EvalReport:
    ms = cfg.cost_units_per_ms
    records = tuple(
        PerQueryRecord(
            query_id=packed.query_ids[q],
            recalled_count=int(packed.mcounts[q]),
            size=int(packed.sizes[q]),
            expected_final_count=float(counts[q]),
            expected_latency_units=float(latencies[q]),
            expected_latency_ms=float(latencies[q] / ms),
            below_floor=bool(counts[q] < cfg.result_floor),
            above_latency_ceiling=bool(latencies[q] > cfg.latency_ceiling),
        )
        for q in range(packed.n_groups)
    )
    return EvalReport(
        auc=float(auc_val),
        expected_cost=float(cost),
        expected_cost_ratio=float(cost / baseline_cost),
        mean_final_count=float(np.mean(counts)) if len(counts) else 0.0,
        fraction_below_floor=float(np.mean(counts < cfg.result_floor)) if len(counts) else 0.0,
        fraction_above_latency_ceiling=(
            float(np.mean(latencies > cfg.latency_ceiling)) if len(latencies) else 0.0
        ),
        mean_latency_units=float(np.mean(latencies)) if len(latencies) else 0.0,
        p95_latency_units=float(np.percentile(latencies, 95)) if len(latencies) else 0.0,
        mean_latency_ms=float(np.mean(latencies) / ms) if len(latencies) else 0.0,
        p95_latency_ms=float(np.percentile(latencies, 95) / ms) if len(latencies) else 0.0,
        per_query=records,
    )


def evaluate(model: CascadeModel, data, cfg: ObjectiveConfig,
             baseline_cost: float | None = None) -> EvalReport:
    """Full model-based report: per-query mean AUC, expected cost (normalized
    to ``baseline_cost``; to itself when omitted), and per-query expected
    result counts and latencies."""
    packed = data if isinstance(data, PackedDataset) else pack_groups(data)
    scores = batch_final_probs(model, packed)
    auc_val = macro_auc(scores, packed)
    cost = expected_cost(model, packed)
    counts, latencies = per_query_expectations(model, packed, cfg)
    return _report_from_per_query(
        auc_val, cost, baseline_cost if baseline_cost is not None else cost,
        packed, counts, latencies, cfg,
    )


def baseline_single_stage(data, schema: FeatureSchema, feature_indices: Sequence[int],
                          obj_cfg: ObjectiveConfig, train_cfg: TrainConfig,
                          baseline_cost: float | None = None,
                          ) -> tuple[CascadeModel, EvalReport]:
    """Plain logistic regression over ``feature_indices`` (a 1-stage cascade)."""
    assignment = StageAssignment((tuple(feature_indices),))
    cfg = replace(train_cfg, objective="l1")
    model, _ = train(data, schema, assignment, obj_cfg, cfg)
    return model, evaluate(model, data, obj_cfg, baseline_cost)


@dataclass(frozen=True)
class TwoStageBaseline:
    """Deployed-style heuristic: a single cheap feature filters each query down
    to a constant result size, then a logistic regression over the remaining
    features ranks the survivors."""

    filter_feature: int
    keep_k: int
    model: CascadeModel           # stage 1 = raw filter feature, stage 2 = fitted LR

    def keep_counts(self, group: QueryGroup) -> list[int]:
        """Sample-scaled stage-1 keep count, then no further filtering."""
        k = min(group.size, max(1, math.ceil(self.keep_k * group.size / group.recalled_count)))
        return [k, k]


def fit_two_stage(data, schema: FeatureSchema, filter_feature: int, keep_k: int,
                  obj_cfg: ObjectiveConfig, train_cfg: TrainConfig) -> TwoStageBaseline:
    if not 0 <= filter_feature < schema.item_dim:
        raise ValueError(f"filter feature index {filter_feature} not in schema")
    if keep_k < 1:
        raise ValueError("keep_k must be >= 1")
    rest = tuple(i for i in range(schema.item_dim) if i != filter_feature)
    lr_assignment = StageAssignment((rest,))
    lr_model, _ = train(data, schema, lr_assignment, obj_cfg,
                        replace(train_cfg, objective="l1"))
    dq = schema.query_feature_dim
    model = CascadeModel(
        stage_item_weights=(np.array([1.0]), lr_model.stage_item_weights[0]),
        stage_query_weights=(np.zeros(dq), lr_model.stage_query_weights[0]),
        assignment=StageAssignment(((filter_feature,), rest)),
        schema=schema,
    )
    return TwoStageBaseline(filter_feature=filter_feature, keep_k=keep_k, model=model)


def baseline_two_stage(data, schema: FeatureSchema, filter_feature: int, keep_k: int,
                       obj_cfg: ObjectiveConfig, train_cfg: TrainConfig,
                       baseline_cost: float | None = None) -> EvalReport:
    """Report for the two-stage heuristic. Non-survivors of the filter rank
    below every survivor (tied among themselves) in the pooled AUC; cost is
    N * t_filter for the filter pass plus t_rest per survivor."""
    two = fit_two_stage(data, schema, filter_feature, keep_k, obj_cfg, train_cfg)
    packed = data if isinstance(data, PackedDataset) else pack_groups(data)
    costs = schema.costs()
    t_filter = float(costs[filter_feature])
    t_rest = float(costs.sum() - t_filter)

    lr_scores = batch_final_probs(
        CascadeModel(
            (two.model.stage_item_weights[1],), (two.model.stage_query_weights[1],),
            StageAssignment((two.model.assignment.stages[1],)), schema,
        ),
        packed,
    )
    scores = np.full(packed.n_instances, -1.0)   # below every survivor's (0,1) score
    survivor_total = 0
    counts = np.zeros(packed.n_groups)
    latencies = np.zeros(packed.n_groups)
    for q in range(packed.n_groups):
        rows = packed.group_rows(q)
        n_q = int(packed.sizes[q])
        m_q = int(packed.mcounts[q])
        k = min(n_q, max(1, math.ceil(keep_k * n_q / m_q)))
        filt = packed.X[rows, filter_feature]
        order = np.argsort(-filt, kind="stable")
        keep_rows = np.arange(rows.start, rows.stop)[order[:k]]
        scores[keep_rows] = lr_scores[keep_rows]
        survivor_total += k
        scale = m_q / n_q
        counts[q] = k * scale
        latencies[q] = m_q * t_filter + k * scale * t_rest
    auc_val = macro_auc(scores, packed)
    cost = packed.n_instances * t_filter + survivor_total * t_rest
    return _report_from_per_query(
        auc_val, cost, baseline_cost if baseline_cost is not None else cost,
        packed, counts, latencies, obj_cfg,
    )


def baseline_soft_cascade(data, schema: FeatureSchema, assignment: StageAssignment,
                          obj_cfg: ObjectiveConfig, train_cfg: TrainConfig,
                          baseline_cost: float | None = None) -> EvalReport:
    """Jointly trained noisy-AND cascade with no cost or experience shaping
    (level-1 objective only)."""
    model, _ = train(data, schema, assignment, obj_cfg,
                     replace(train_cfg, objective="l1"))
    return evaluate(model, data, obj_cfg, baseline_cost)
