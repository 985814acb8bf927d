"""Serve-time replay: hard cascade filtering with per-query, per-stage keep
counts derived from the model's expected pass counts.

Replay walks each query's instances through the stages, keeping the top-k by
cumulative pass probability at every stage (deterministic; a stochastic
Bernoulli-pass mode exists for oracle comparisons). Raw replay accounting is
in sample units; the report scales each query by M_q / N_q to the equivalent
figures over the full recalled set, which is what the result floor and the
latency ceiling are expressed against.

``plan`` and ``serve_query`` replay one query at a time and are the reference
that ``simulate`` matches record for record. ``simulate`` replays a whole
dataset with one forward pass and stage-by-stage accounting vectorised over
queries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit

from .cascade import batch_log_pass
from .core import CascadeModel, PackedDataset, QueryGroup, pack_groups, stage_costs
from .objective import ObjectiveConfig


def plan(model: CascadeModel, group: QueryGroup, sample_scaled: bool = True) -> list[int]:
    """Integer keep counts per stage: ceil of the expected pass count, clamped
    to [1, items remaining]; non-increasing across stages.

    With ``sample_scaled`` (default) the expectation is over the group's
    sampled instances, i.e. the recall-scaled expectation times N_q / M_q,
    which is the threshold actually applicable when replaying a sample.
    ``sample_scaled=False`` uses the recall-scaled expectation directly and is
    only meaningful when the group holds the full recalled set.
    """
    packed = pack_groups([group])
    _, cum_log_p = batch_log_pass(model, packed)
    pass_sums = np.exp(cum_log_p).sum(axis=0)
    scale = 1.0 if sample_scaled else group.recalled_count / group.size
    remaining = group.size
    counts = []
    for j in range(model.n_stages):
        k = min(remaining, max(1, math.ceil(pass_sums[j] * scale)))
        counts.append(int(k))
        remaining = k
    return counts


@dataclass(frozen=True)
class ServePlan:
    """Threshold rule bound to a model; keep counts derive per query at run time."""

    model: CascadeModel
    rule: str = "expected_count_topk"
    sample_scaled: bool = True

    def keep_counts(self, group: QueryGroup) -> list[int]:
        if self.rule != "expected_count_topk":
            raise ValueError(f"unknown threshold rule {self.rule!r}")
        return plan(self.model, group, self.sample_scaled)


@dataclass(frozen=True)
class ServedQuery:
    ranking: tuple[int, ...]          # surviving instance indices, best first
    realized_cost: float              # sample units
    realized_latency_units: float     # == realized_cost (single shard)
    stage_entrants: tuple[int, ...]
    stage_survivors: tuple[int, ...]


def serve_query(keep_counts: Sequence[int], model: CascadeModel, group: QueryGroup,
                stochastic: bool = False, rng: np.random.Generator | None = None,
                ) -> ServedQuery:
    """Replay one query through the cascade.

    Each stage scores the current survivors by cumulative pass probability and
    keeps the top ``keep_counts[j]`` (ties broken by input order); every
    entrant pays the stage cost. In stochastic mode survivors instead pass
    each stage independently with their stage pass probability and
    ``keep_counts`` is ignored; the result list may be empty (this mode is a
    pure Bernoulli oracle, so no survivor floor is applied).
    """
    T = model.n_stages
    if not stochastic and len(keep_counts) != T:
        raise ValueError(f"need {T} keep counts, got {len(keep_counts)}")
    packed = pack_groups([group])
    Z, cum_log_p = batch_log_pass(model, packed)
    if stochastic and rng is None:
        rng = np.random.default_rng(0)

    survivors = np.arange(group.size)
    t = stage_costs(model.assignment, model.schema)
    cost = 0.0
    entrants, kept = [], []
    for a in range(T):
        entrants.append(len(survivors))
        cost += len(survivors) * t[a]
        if stochastic:
            p_stage = expit(Z[survivors, a])
            survivors = np.sort(survivors[rng.random(len(survivors)) < p_stage])
        else:
            order = np.lexsort((survivors, -cum_log_p[survivors, a]))
            survivors = np.sort(survivors[order[: int(keep_counts[a])]])
        kept.append(len(survivors))
    final_order = np.lexsort((survivors, -cum_log_p[survivors, -1]))
    ranking = tuple(int(i) for i in survivors[final_order])
    return ServedQuery(
        ranking=ranking, realized_cost=float(cost), realized_latency_units=float(cost),
        stage_entrants=tuple(entrants), stage_survivors=tuple(kept),
    )


@dataclass(frozen=True)
class SimQueryRecord:
    query_id: str
    recalled_count: int
    size: int
    final_count: float                # recall-scaled
    realized_cost: float              # recall-scaled cost units
    realized_latency_units: float
    realized_latency_ms: float
    below_floor: bool
    above_latency_ceiling: bool


@dataclass(frozen=True)
class SimReport:
    traffic_multiplier: float
    total_cost: float
    utilization_proxy: float          # traffic_multiplier * total_cost
    mean_latency_units: float
    p95_latency_units: float
    mean_latency_ms: float
    p95_latency_ms: float
    fraction_below_floor: float
    fraction_above_latency_ceiling: float
    per_query: tuple[SimQueryRecord, ...]

    def to_text(self) -> str:
        pairs = [
            ("traffic_multiplier", self.traffic_multiplier),
            ("total_cost", self.total_cost),
            ("utilization_proxy", self.utilization_proxy),
            ("mean_latency_units", self.mean_latency_units),
            ("p95_latency_units", self.p95_latency_units),
            ("mean_latency_ms", self.mean_latency_ms),
            ("p95_latency_ms", self.p95_latency_ms),
            ("fraction_below_floor", self.fraction_below_floor),
            ("fraction_above_latency_ceiling", self.fraction_above_latency_ceiling),
        ]
        return "\n".join(f"{k} {v:.6g}" for k, v in pairs) + "\n"

    def write_records(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for r in self.per_query:
                fh.write(json.dumps({
                    "query_id": r.query_id, "recalled_count": r.recalled_count,
                    "size": r.size, "final_count": r.final_count,
                    "realized_cost": r.realized_cost,
                    "realized_latency_units": r.realized_latency_units,
                    "realized_latency_ms": r.realized_latency_ms,
                    "below_floor": r.below_floor,
                    "above_latency_ceiling": r.above_latency_ceiling,
                }) + "\n")


def _deterministic_funnel(model: CascadeModel, packed: PackedDataset):
    """(entrants (n_groups, T), final counts) of the top-k replay under
    ``plan``'s keep counts, computed for every query at once.

    The keep counts are ceil-clamped and non-increasing, so top-k keeps
    exactly k: the entrants of stage j are the keep count of stage j - 1 and
    no per-query ranking is needed for the accounting.
    """
    cum_log_p = batch_log_pass(model, packed)[1]    # Z is released at once
    pass_prob = np.exp(cum_log_p, out=cum_log_p)
    group_of_row = np.repeat(np.arange(packed.n_groups), packed.sizes)
    keep = np.empty((packed.n_groups, model.n_stages), dtype=np.int64)
    remaining = packed.sizes
    for j in range(model.n_stages):
        # bincount adds each query's rows in row order, as plan's sum(axis=0)
        # does, so the sums match plan bit for bit (reduceat adds pairwise).
        pass_sum = np.bincount(group_of_row, weights=pass_prob[:, j], minlength=packed.n_groups)
        remaining = np.minimum(remaining, np.maximum(1, np.ceil(pass_sum).astype(np.int64)))
        keep[:, j] = remaining
    entrants = np.concatenate([packed.sizes[:, None], keep[:, :-1]], axis=1)
    return entrants, keep[:, -1]


def _stochastic_funnel(model: CascadeModel, packed: PackedDataset, seed: int):
    """(entrants (n_groups, T), final counts) of the Bernoulli replay; query
    q draws from its own stream ``default_rng([seed, q])`` as in
    ``serve_query``."""
    p_stage = expit(batch_log_pass(model, packed)[0])
    entrants = np.empty((packed.n_groups, model.n_stages), dtype=np.int64)
    final = np.empty(packed.n_groups, dtype=np.int64)
    for q in range(packed.n_groups):
        rng = np.random.default_rng([seed, q])
        survivors = np.arange(packed.offsets[q], packed.offsets[q + 1])
        for a in range(model.n_stages):
            entrants[q, a] = len(survivors)
            survivors = survivors[rng.random(len(survivors)) < p_stage[survivors, a]]
        final[q] = len(survivors)
    return entrants, final


def simulate(model: CascadeModel, data, cfg: ObjectiveConfig,
             traffic_multiplier: float = 1.0, stochastic: bool = False,
             seed: int = 0) -> SimReport:
    """Replay every query of ``data`` (QueryGroups or a PackedDataset) and
    aggregate; each record equals what ``plan`` then ``serve_query`` give
    for that query.

    Every entrant of stage j pays t_j, accumulated stage by stage. The
    utilization proxy is traffic_multiplier times total cost (open loop);
    per-query latency does not depend on the multiplier.
    """
    if traffic_multiplier <= 0:
        raise ValueError("traffic_multiplier must be > 0")
    packed = data if isinstance(data, PackedDataset) else pack_groups(data)
    if packed.n_groups == 0:
        return SimReport(
            traffic_multiplier=float(traffic_multiplier), total_cost=0.0,
            utilization_proxy=0.0, mean_latency_units=0.0, p95_latency_units=0.0,
            mean_latency_ms=0.0, p95_latency_ms=0.0, fraction_below_floor=0.0,
            fraction_above_latency_ceiling=0.0, per_query=(),
        )
    if stochastic:
        entrants, final = _stochastic_funnel(model, packed, seed)
    else:
        entrants, final = _deterministic_funnel(model, packed)

    t = stage_costs(model.assignment, model.schema)
    cost = np.zeros(packed.n_groups)
    for a in range(model.n_stages):
        cost += entrants[:, a] * t[a]
    scale = packed.mcounts / packed.sizes
    latency = cost * scale
    latency_ms = latency / cfg.cost_units_per_ms
    final_count = final * scale
    below = final_count < cfg.result_floor
    above = latency > cfg.latency_ceiling
    records = tuple(
        SimQueryRecord(
            query_id=qid, recalled_count=m, size=n, final_count=fc, realized_cost=lat,
            realized_latency_units=lat, realized_latency_ms=ms, below_floor=lo,
            above_latency_ceiling=hi,
        )
        for qid, m, n, fc, lat, ms, lo, hi in zip(
            packed.query_ids, packed.mcounts.tolist(), packed.sizes.tolist(),
            final_count.tolist(), latency.tolist(), latency_ms.tolist(),
            below.tolist(), above.tolist(),
        )
    )
    # builtin sum adds left to right over the records; np.sum would add pairwise
    total = float(sum(latency.tolist()))
    p95 = np.percentile(latency, 95)
    return SimReport(
        traffic_multiplier=float(traffic_multiplier), total_cost=total,
        utilization_proxy=float(traffic_multiplier * total),
        mean_latency_units=float(latency.mean()),
        p95_latency_units=float(p95),
        mean_latency_ms=float(latency.mean() / cfg.cost_units_per_ms),
        p95_latency_ms=float(p95 / cfg.cost_units_per_ms),
        fraction_below_floor=float(np.mean(below)),
        fraction_above_latency_ceiling=float(np.mean(above)),
        per_query=records,
    )
