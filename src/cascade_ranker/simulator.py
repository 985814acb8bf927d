"""Serve-time replay: hard cascade filtering with per-query, per-stage keep
counts derived from the model's expected pass counts.

Replay walks each query's instances through the stages, keeping the top-k by
cumulative pass probability at every stage (deterministic; a stochastic
Bernoulli-pass mode exists for oracle comparisons). Raw replay accounting is
in sample units; the report scales each query by M_q / N_q to the equivalent
figures over the full recalled set, which is what the result floor and the
latency ceiling are expressed against. A query's realized cost is its
latency, and the report's total cost is their sum; there is no model of
traffic or utilization.

``_keep_counts`` is the one rule for the keep counts. ``simulate`` replays a
whole dataset under them, vectorised over queries, and its ``SimReport``
shares the per-query table, text and records of the evaluator's
``EvalReport``. ``plan`` is one query's row of those counts; ``plan`` then
``serve_query`` is the reference that ``simulate`` matches record for record.
The per-query loop the counts are checked against is ``tests/oracle.plan``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit

from .cascade import batch_log_pass
from .core import CascadeModel, PackedDataset, QueryGroup, pack_groups, stage_costs
from .evaluator import QueryReport, query_table
from .objective import ObjectiveConfig


def plan(model: CascadeModel, group: QueryGroup) -> list[int]:
    """The keep counts per stage of ``group``, as ``simulate`` replays them
    (see ``_keep_counts``)."""
    return _keep_counts(model, pack_groups([group]))[0].tolist()


@dataclass(frozen=True)
class ServedQuery:
    ranking: tuple[int, ...]          # surviving instance indices, best first
    realized_cost: float              # sample units
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
        ranking=ranking, realized_cost=float(cost), stage_entrants=tuple(entrants),
        stage_survivors=tuple(kept),
    )


@dataclass(frozen=True)
class SimQueryRecord:
    query_id: str
    recalled_count: int
    size: int
    final_count: float                # recall-scaled
    realized_cost: float              # recall-scaled cost units
    realized_latency_ms: float
    below_floor: bool
    above_latency_ceiling: bool


@dataclass(frozen=True)
class SimReport(QueryReport):
    total_cost: float
    mean_latency_units: float
    p95_latency_units: float
    mean_latency_ms: float
    p95_latency_ms: float
    fraction_below_floor: float
    fraction_above_latency_ceiling: float
    per_query: tuple[SimQueryRecord, ...]


def _keep_counts(model: CascadeModel, packed: PackedDataset) -> np.ndarray:
    """Integer keep counts per query and stage, shape (n_groups, T): ceil of
    the expected pass count over the query's sampled instances (the
    recall-scaled expectation times N_q / M_q, the threshold that applies
    when replaying a sample), clamped to [1, items remaining]; non-increasing
    across stages.

    Top-k keeps exactly k under these counts, so stage j's entrants are
    stage j - 1's keep count, with no per-query ranking.
    """
    cum_log_p = batch_log_pass(model, packed)[1]    # Z is released at once
    pass_prob = np.exp(cum_log_p, out=cum_log_p)
    group_of_row = np.repeat(np.arange(packed.n_groups), packed.sizes)
    keep = np.empty((packed.n_groups, model.n_stages), dtype=np.int64)
    remaining = packed.sizes
    for j in range(model.n_stages):
        # bincount adds each query's rows in row order (reduceat adds
        # pairwise), so a query's sum is the same packed alone or with others.
        pass_sum = np.bincount(group_of_row, weights=pass_prob[:, j], minlength=packed.n_groups)
        remaining = np.minimum(remaining, np.maximum(1, np.ceil(pass_sum).astype(np.int64)))
        keep[:, j] = remaining
    return keep


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


def simulate(model: CascadeModel, data, cfg: ObjectiveConfig, *, stochastic: bool = False,
             seed: int = 0) -> SimReport:
    """Replay every query of ``data`` (QueryGroups or a PackedDataset) and
    aggregate; each record equals what ``plan`` then ``serve_query`` give
    for that query.

    Every entrant of stage j pays t_j, accumulated stage by stage.
    """
    packed = data if isinstance(data, PackedDataset) else pack_groups(data)
    if stochastic:
        entrants, final = _stochastic_funnel(model, packed, seed)
    else:
        keep = _keep_counts(model, packed)
        entrants = np.concatenate([packed.sizes[:, None], keep[:, :-1]], axis=1)
        final = keep[:, -1]

    t = stage_costs(model.assignment, model.schema)
    cost = np.zeros(packed.n_groups)
    for a in range(model.n_stages):
        cost += entrants[:, a] * t[a]
    scale = packed.mcounts / packed.sizes
    latency = cost * scale
    columns, summary = query_table(packed, final * scale, latency, cfg)
    qid, m, n, final_count, lat, lat_ms, below, above = columns
    # builtin sum adds left to right over the records; np.sum would add pairwise
    total = float(sum(lat))
    return SimReport(
        total_cost=total, **summary,
        per_query=tuple(map(SimQueryRecord, qid, m, n, final_count, lat, lat_ms, below, above)),
    )
