"""Offline metrics, comparison baselines, and the per-query report that
evaluation and serving replay share.

Reports carry the per-query mean AUC (click and purchase both count as
positive): ranking quality is a within-query notion here, since the
query-only feature deliberately shifts whole queries' score magnitudes to
control result size and cost. The expected cost is the sum that the loss
charges, and costs are reported as ratios against a caller-supplied
baseline, conventionally the single-stage all-features expected cost.

There are two baselines: ``baseline_l1`` fits any stage assignment on the
level-1 objective (one stage: logistic regression; the model's stages: the
soft cascade), and ``baseline_two_stage`` is the deployed-style heuristic.

``EvalReport`` and the simulator's ``SimReport`` each hold one table of
per-query rows. ``query_table`` builds every row once, from each query's
counts and latencies, as a named tuple of the report's row type
(``PerQueryRecord`` or ``SimQueryRecord``) whose fields are the record keys
in order; the reports keep the rows as they are and print and write
themselves through ``QueryReport``.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import (CascadeModel, FeatureSchema, PackedDataset, StageAssignment, check_domains,
                   pack_groups)
from .objective import ObjectiveConfig, forward_expectations
# Not called here since evaluate takes everything from forward_expectations;
# still bound because the benchmark's tracer wraps these names in this module.
from .objective import expected_cost, per_query_expectations  # noqa: F401
from .trainer import TrainConfig, train


def macro_auc(scores: np.ndarray, packed: PackedDataset) -> float:
    """Mean per-query AUC over queries holding both classes.

    One segmented pass over all rows: a single sort by (query, score), the
    average rank for each run of tied scores within a query, and per-query
    sums of the positives' ranks. Ranks are half-integers, so every sum is
    exact and each query's AUC equals the flat rank-sum AUC of its rows,
    ``tests/oracle.py``'s ``auc``, bit for bit.

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
    # 1-based rank of each run's last row within its query
    run_end = run_start + run_len - packed.offsets[g[run_start]]
    ranks = np.repeat(run_end - (run_len - 1) / 2.0, run_len)
    pos_rank_sum = np.add.reduceat(ranks * packed.y[order], starts)

    p = n_pos[both]
    n = packed.sizes[both] - p
    return float(np.mean((pos_rank_sum[both] - p * (p + 1) / 2.0) / (p * n)))


class QueryReport:
    """Output shared by the per-query reports, whose ``per_query`` is the
    tuple of rows ``query_table`` built: ``to_text`` prints every scalar
    field in declaration order, ``write_records`` writes each row as one JSON
    object whose keys are the row's fields in order."""

    def to_text(self) -> str:
        return "".join(
            f"{f.name} {getattr(self, f.name):.6g}\n" for f in fields(self) if f.name != "per_query"
        )

    def write_records(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r._asdict()) + "\n" for r in self.per_query)


def query_table(packed: PackedDataset, counts: np.ndarray, latencies: np.ndarray,
                cfg: ObjectiveConfig, row: type) -> tuple[tuple, dict]:
    """The per-query rows and the floor and latency summary of a report.

    ``counts`` and ``latencies`` hold each query's recall-scaled result count
    and latency in cost units. Each row is ``row``, a named tuple, of the
    query id, recalled count, size, count, latency, latency in ms and the
    below-floor and above-ceiling flags; the summary maps the six figures
    both reports carry to their values, all 0 when there are no queries.
    Raises ValueError naming the first query whose latency in cost units is
    not finite (or their mean, if it overflows), and ``cost_units_per_ms``
    only when the division by it overflows.
    """
    ms = cfg.cost_units_per_ms
    below = counts < cfg.result_floor
    above = latencies > cfg.latency_ceiling
    names = ("fraction_below_floor", "fraction_above_latency_ceiling", "mean_latency_units",
             "p95_latency_units", "mean_latency_ms", "p95_latency_ms")
    bad = np.flatnonzero(~np.isfinite(latencies))
    values = (0.0,) * 4
    with np.errstate(over="ignore"):    # an overflow is named below
        if len(latencies) and not bad.size:
            values = (np.mean(below), np.mean(above), np.mean(latencies),
                      np.percentile(latencies, 95))
        in_ms = (latencies / ms, values[2] / ms, values[3] / ms)
    if bad.size or not np.isfinite(values[2]):
        where = f"query {packed.query_ids[bad[0]]}'s" if bad.size else "the mean"
        raise ValueError(f"{where} latency in cost units is not finite (check the feature costs "
                         "and recalled counts)")
    if not all(np.isfinite(v).all() for v in in_ms):
        raise ValueError(f"cost_units_per_ms {ms} gives a latency in ms that is not finite")
    rows = tuple(map(row, packed.query_ids, packed.mcounts.tolist(), packed.sizes.tolist(),
                     counts.tolist(), latencies.tolist(), in_ms[0].tolist(),
                     below.tolist(), above.tolist()))
    return rows, {k: float(v) for k, v in zip(names, (*values, *in_ms[1:]))}


PerQueryRecord = namedtuple("PerQueryRecord", (
    "query_id", "recalled_count", "size", "expected_final_count", "expected_latency_units",
    "expected_latency_ms", "below_floor", "above_latency_ceiling"))


@dataclass(frozen=True)
class EvalReport(QueryReport):
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


def _report(auc_val: float, cost: float, baseline_cost: float | None, packed: PackedDataset,
            counts: np.ndarray, latencies: np.ndarray, cfg: ObjectiveConfig) -> EvalReport:
    base = cost if baseline_cost is None else baseline_cost
    if base == 0:
        raise ValueError("expected cost ratio is undefined: the baseline cost is 0")
    rows, summary = query_table(packed, counts, latencies, cfg, PerQueryRecord)
    return EvalReport(
        auc=float(auc_val),
        expected_cost=float(cost),
        expected_cost_ratio=float(cost / base),
        mean_final_count=float(np.mean(counts)),
        **summary,
        per_query=rows,
    )


def evaluate(model: CascadeModel, data, cfg: ObjectiveConfig,
             baseline_cost: float | None = None) -> EvalReport:
    """Full model-based report: per-query mean AUC, expected cost (normalized
    to ``baseline_cost``; to itself when omitted), and per-query expected
    result counts and latencies, all from one forward pass."""
    packed = pack_groups(data)
    scores, _, cost, counts, latencies = forward_expectations(model, packed)
    return _report(macro_auc(scores, packed), cost, baseline_cost, packed, counts, latencies, cfg)


def baseline_l1(data, schema: FeatureSchema, assignment: StageAssignment,
                obj_cfg: ObjectiveConfig, train_cfg: TrainConfig,
                baseline_cost: float | None = None) -> tuple[CascadeModel, EvalReport]:
    """The cascade of ``assignment`` trained on the level-1 objective alone,
    with no cost or result-size shaping, and its report. With a one-stage
    assignment it is a plain logistic regression over that stage's features;
    with the model's assignment it is the soft cascade, the noisy-AND cascade
    of Raykar, Krishnapuram & Yu (KDD 2010)."""
    model, _ = train(data, schema, assignment, obj_cfg, replace(train_cfg, objective="l1"))
    return model, evaluate(model, data, obj_cfg, baseline_cost)


TWO_STAGE_DOMAINS = dict(keep_k="[1, inf)")


def baseline_two_stage(data, schema: FeatureSchema, filter_feature: int, keep_k: int,
                       obj_cfg: ObjectiveConfig, train_cfg: TrainConfig,
                       baseline_cost: float | None = None) -> EvalReport:
    """Report for the deployed-style heuristic: a single cheap feature filters
    each query down to a constant result size (``keep_k`` recalled items,
    sample-scaled), then a logistic regression over the remaining features
    ranks the survivors. Non-survivors rank below every survivor (tied among
    themselves) in the per-query AUC; cost is N * t_filter for the filter
    pass plus t_rest per survivor."""
    if not 0 <= filter_feature < schema.item_dim:
        raise ValueError(f"filter feature index {filter_feature} not in schema")
    check_domains({"keep_k": keep_k}, TWO_STAGE_DOMAINS)
    rest = tuple(i for i in range(schema.item_dim) if i != filter_feature)
    lr_model, _ = train(data, schema, StageAssignment((rest,)), obj_cfg,
                        replace(train_cfg, objective="l1"))
    packed = pack_groups(data)
    costs = schema.costs()
    t_filter = float(costs[filter_feature])
    t_rest = float(costs.sum() - t_filter)

    sizes, mcounts = packed.sizes, packed.mcounts
    # any keep_k >= M_q keeps all of query q; the bound keeps keep_k * sizes in int64
    keep_k = min(keep_k, int(mcounts.max(initial=1)))
    keep = np.minimum(sizes, np.maximum(1, np.ceil(keep_k * sizes / mcounts).astype(np.int64)))
    # each query's rows by descending filter value, ties in row order; the
    # first keep[q] of query q survive the filter
    group = np.repeat(np.arange(packed.n_groups), sizes)
    order = np.lexsort((-packed.X[:, filter_feature], group))
    survivors = order[np.arange(packed.n_instances) - packed.offsets[group] < keep[group]]
    scores = np.full(packed.n_instances, -1.0)   # below every survivor's (0,1) score
    scores[survivors] = forward_expectations(lr_model, packed)[0][survivors]

    scaled_keep = keep * (mcounts / sizes)
    latencies = mcounts * t_filter + scaled_keep * t_rest
    cost = packed.n_instances * t_filter + int(keep.sum()) * t_rest
    return _report(macro_auc(scores, packed), cost, baseline_cost, packed, scaled_keep,
                   latencies, obj_cfg)
