"""Serve-time replay: hard cascade filtering with per-query, per-stage keep
counts derived from the model's expected pass counts.

Replay walks each query's instances through the stages, keeping the top-k by
cumulative pass probability at every stage. A Bernoulli mode instead lets
each instance pass each stage with its pass probability; its means are the
expected pass counts, which it checks are unbiased. Raw replay accounting is
in sample units; the report scales each query by M_q / N_q to the equivalent
figures over the full recalled set, which is what the result floor and the
latency ceiling are expressed against. A query's realized cost is its
latency, and the report's total cost is their sum; there is no model of
traffic or utilization.

Both modes give one (n_groups, T) matrix of survivors per query and stage,
from which ``simulate`` derives the entrants, final counts and cost in one
place. ``_keep_counts`` is the one rule for the deterministic survivors: it
rounds up the expected pass counts S of ``forward_expectations``, whose last
column eval reports. ``_bernoulli_survivors`` draws one uniform stream over
all rows. ``SimReport`` holds the rows that the evaluator's ``query_table``
builds, one ``SimQueryRecord`` per query, printed and written as
``EvalReport``'s are. ``plan`` (one query's row of the counts) then
``serve_query`` is the per-query top-k reference whose figures each
deterministic row equals; ``tests/oracle`` holds the per-query loops the
counts and the Bernoulli draw are checked against.
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
                ) -> ServedQuery:
    """Replay one query through the cascade: the per-query reference whose
    figures each deterministic row of ``simulate`` equals.

    Each stage scores the current survivors by cumulative pass probability and
    keeps the top ``keep_counts[j]`` (ties broken by input order); every
    entrant pays the stage cost.
    """
    T = model.n_stages
    if len(keep_counts) != T:
        raise ValueError(f"need {T} keep counts, got {len(keep_counts)}")
    _, cum_log_p = batch_log_pass(model, pack_groups([group]))
    survivors = np.arange(group.size)
    t = stage_costs(model.assignment, model.schema)
    cost = 0.0
    entrants, kept = [], []
    for a in range(T):
        entrants.append(len(survivors))
        cost += len(survivors) * t[a]
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


def _bernoulli_survivors(model: CascadeModel, packed: PackedDataset, seed: int) -> np.ndarray:
    """Survivors per query and stage, shape (n_groups, T), of the Bernoulli
    replay. With U = ``default_rng(seed).random((n_instances, T))``, row i
    survives stage j iff U[i, k] < p_k(i) for every k <= j, p_k being its
    stage-k pass probability. Nothing is rounded and no survivor floor
    applies, so the means are the expected pass counts S."""
    U = np.random.default_rng(seed).random((packed.n_instances, model.n_stages))
    alive = np.logical_and.accumulate(U < expit(batch_log_pass(model, packed)[0]), axis=1)
    group_of_row = np.repeat(np.arange(packed.n_groups), packed.sizes)
    return np.column_stack([np.bincount(group_of_row[alive[:, j]], minlength=packed.n_groups)
                            for j in range(model.n_stages)])


def simulate(model: CascadeModel, data, cfg: ObjectiveConfig, *, stochastic: bool = False,
             seed: int = 0) -> SimReport:
    """Replay every query of ``data`` and aggregate.

    The survivors per query and stage are the keep counts of ``_keep_counts``
    (each row equals what ``plan`` then ``serve_query`` give for that query)
    or, if ``stochastic``, the Bernoulli draw of ``_bernoulli_survivors``.
    Stage j's entrants are stage j - 1's survivors (N_q at stage 0), and
    every entrant of stage j pays t_j, accumulated stage by stage.
    """
    packed = pack_groups(data)
    if stochastic:
        survivors = _bernoulli_survivors(model, packed, seed)
    else:
        survivors = _keep_counts(packed.sizes, forward_expectations(model, packed)[1])
    entrants = np.concatenate([packed.sizes[:, None], survivors[:, :-1]], axis=1)

    t = stage_costs(model.assignment, model.schema)
    cost = np.zeros(packed.n_groups)
    for a in range(model.n_stages):
        cost += entrants[:, a] * t[a]
    scale = packed.mcounts / packed.sizes
    latency = cost * scale
    rows, summary = query_table(packed, survivors[:, -1] * scale, latency, cfg, SimQueryRecord)
    # builtin sum adds left to right over the rows; np.sum would add pairwise
    return SimReport(total_cost=float(sum(r.realized_cost for r in rows)), **summary,
                     per_query=rows)
