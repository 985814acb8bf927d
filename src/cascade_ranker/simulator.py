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

``_keep_counts`` is the one rule for the keep counts: it rounds up the
expected pass counts S of ``forward_expectations``, whose last column eval
reports. ``simulate`` replays a dataset under them, vectorised over queries,
and its ``SimReport`` holds the rows that the evaluator's ``query_table``
builds, one ``SimQueryRecord`` per query, printed and written as
``EvalReport``'s are. ``plan`` (one query's row of the counts) then
``serve_query`` is the per-query reference whose figures each row equals,
and ``tests/oracle.plan`` the per-query loop the counts are checked against.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit

from .cascade import batch_log_pass
from .core import CascadeModel, PackedDataset, QueryGroup, pack_groups, stage_costs
from .evaluator import QueryReport, query_table
from .objective import ObjectiveConfig, forward_expectations


def plan(model: CascadeModel, group: QueryGroup) -> list[int]:
    """The keep counts per stage of ``group``, as ``simulate`` replays them
    (see ``_keep_counts``)."""
    packed = pack_groups([group])
    return _keep_counts(packed.sizes, forward_expectations(model, packed)[1])[0].tolist()


ServedQuery = namedtuple("ServedQuery", (
    "ranking",                        # surviving instance indices, best first
    "realized_cost",                  # sample units
    "stage_entrants", "stage_survivors"))


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
    return ServedQuery(ranking, float(cost), tuple(entrants), tuple(kept))


SimQueryRecord = namedtuple("SimQueryRecord", (
    "query_id", "recalled_count", "size",
    "final_count",                    # recall-scaled
    "realized_cost",                  # recall-scaled cost units
    "realized_latency_ms", "below_floor", "above_latency_ceiling"))


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


def _keep_counts(sizes: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Integer keep counts per query and stage, shape (n_groups, T): the
    expected pass counts ``S`` of each query's sample (the threshold that
    applies when replaying a sample) rounded up, clamped to [1, items
    remaining], so non-increasing across stages. Top-k keeps exactly k under
    these counts, so stage j's entrants are stage j - 1's keep count."""
    at_least_one = np.maximum(1, np.ceil(S).astype(np.int64))
    return np.minimum(sizes[:, None], np.minimum.accumulate(at_least_one, axis=1))


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
    """Replay every query of ``data`` and aggregate; each row equals what
    ``plan`` then ``serve_query`` give for that query.

    Every entrant of stage j pays t_j, accumulated stage by stage.
    """
    packed = pack_groups(data)
    if stochastic:
        entrants, final = _stochastic_funnel(model, packed, seed)
    else:
        keep = _keep_counts(packed.sizes, forward_expectations(model, packed)[1])
        entrants = np.concatenate([packed.sizes[:, None], keep[:, :-1]], axis=1)
        final = keep[:, -1]

    t = stage_costs(model.assignment, model.schema)
    cost = np.zeros(packed.n_groups)
    for a in range(model.n_stages):
        cost += entrants[:, a] * t[a]
    scale = packed.mcounts / packed.sizes
    latency = cost * scale
    rows, summary = query_table(packed, final * scale, latency, cfg, SimQueryRecord)
    # builtin sum adds left to right over the rows; np.sum would add pairwise
    return SimReport(total_cost=float(sum(r.realized_cost for r in rows)), **summary,
                     per_query=rows)
