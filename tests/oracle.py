"""Reference implementations the tests check the fast paths against: per-item
and per-query math written stage by stage, the loss gradient chained one
stage column at a time, dataset validation group by group, the
flat rank-sum AUC that ``evaluator.macro_auc`` computes per query, the
per-query keep counts of the replay's funnel, the synthetic generator one
query at a time and the dataset writer one line at a time; and the distance
in units in the last place by which a float is checked against scipy's."""

import math

import numpy as np
from scipy import special

from cascade_ranker.cascade import batch_log_pass, batch_logits, expit, log_expit
from cascade_ranker.core import (
    LABEL_CLICK,
    LABEL_NONE,
    LABEL_PURCHASE,
    QueryGroup,
    pack_groups,
    stage_costs,
)
from cascade_ranker.datagen import _log_uniform_int
from cascade_ranker.objective import _masked_coeffs, instance_weights


def ulp_distance(a, b) -> np.ndarray:
    """How many float64 steps lie between ``a`` and ``b``, elementwise, as
    Python ints; -0.0 and 0.0 are the same step."""
    def ordinal(x):
        i = np.asarray(x, dtype=np.float64).view(np.int64)
        return np.where(i < 0, np.iinfo(np.int64).min - i, i).astype(object)
    return np.abs(ordinal(a) - ordinal(b))


def stage_probabilities(model, query_features, x) -> np.ndarray:
    """sigma(w_x . f_j(x) + w_q . g(q)) for every stage j of one item."""
    w = model.weights
    return np.array([
        special.expit(x[list(cols)] @ w[item] + query_features @ w[query])
        for cols, (item, query) in zip(model.assignment.stages, model.stage_slices)
    ])


def cumulative_probabilities(model, query_features, x) -> np.ndarray:
    """Element k is the probability of passing stages 1..k+1."""
    return np.cumprod(stage_probabilities(model, query_features, x))


def expected_count(model, group, j: int) -> float:
    """(M_q / N_q) * sum_i P(item i passes stages 1..j); M_q for j = 0."""
    if j == 0:
        return float(group.recalled_count)
    passed = sum(cumulative_probabilities(model, group.query_features, x)[j - 1] for x in group.X)
    return float(group.recalled_count / group.size * passed)


def expected_latency(model, group) -> float:
    """t_j charged to stage j's expected entrants."""
    t = stage_costs(model.assignment, model.schema)
    return float(sum(t[j] * expected_count(model, group, j) for j in range(len(t))))


def accumulate_weight_grad(model, packed, dZ) -> np.ndarray:
    """Chain dLoss/dZ (n, T) back to the flat weight vector, one stage column
    at a time."""
    parts = []
    for a in range(model.n_stages):
        cols = list(model.assignment.stages[a])
        parts.append(packed.X[:, cols].T @ dZ[:, a])
        per_group = np.add.reduceat(dZ[:, a], packed.offsets[:-1])
        parts.append(packed.G.T @ per_group)
    return np.concatenate(parts)


def _suffix_sums(M) -> np.ndarray:
    return np.flip(np.cumsum(np.flip(M, axis=1), axis=1), axis=1)


def loss_gradient(model, packed, cfg, objective: str) -> np.ndarray:
    """``loss(model, packed, cfg, objective).gradient`` from the package's
    ``expit`` and ``log_expit``, through numpy's row-wise cumulative sums,
    scipy's logsumexp, the expected pass counts S added by one ``bincount``
    per stage, and one ``accumulate_weight_grad`` call on the summed
    dLoss/dZ of all four data terms."""
    t = stage_costs(model.assignment, model.schema)
    Z = batch_logits(model, packed)
    cum_log_p = np.cumsum(log_expit(Z), axis=1)
    log_q = log_expit(-Z)
    prefix = np.hstack([np.zeros((len(Z), 1)), cum_log_p[:, :-1]])
    log_p_final = cum_log_p[:, -1]
    log_1mp = special.logsumexp(log_q + prefix, axis=1)
    wgt = instance_weights(packed.labels, packed.prices, cfg)
    P = np.exp(cum_log_p)
    sizes = packed.sizes
    mratio = packed.mcounts / sizes
    group = np.repeat(np.arange(packed.n_groups), sizes)
    S = np.column_stack([np.bincount(group, weights=P[:, j], minlength=packed.n_groups)
                         for j in range(model.n_stages)])
    after_first = np.zeros(packed.n_groups)
    for j in range(1, model.n_stages):
        after_first = after_first + S[:, j - 1] * t[j]
    counts_final = mratio * S[:, -1]
    latencies = t[0] * packed.mcounts + mratio * after_first
    suffix = np.zeros_like(P)
    suffix[:, :-1] = _suffix_sums(P[:, :-1] * t[1:])

    beta, delta, lat_w = _masked_coeffs(cfg, objective)
    sig_neg = np.exp(log_q)
    neg_term = np.exp((log_p_final - log_1mp)[:, None] + log_q)
    size_coef = -expit(cfg.gamma * (cfg.result_floor - counts_final)) * mratio
    lat_coef = expit(cfg.gamma * (latencies - cfg.latency_ceiling)) * mratio
    suffix_coef = beta + lat_w * np.repeat(lat_coef, sizes)
    final_coef = delta * np.repeat(size_coef, sizes) * P[:, -1]
    dZ = (wgt[:, None] * np.where(packed.y[:, None] > 0, -sig_neg, neg_term)
          + sig_neg * (suffix_coef[:, None] * suffix + final_coef[:, None]))
    return accumulate_weight_grad(model, packed, dZ) + cfg.alpha * (2.0 * model.weights)


def validate_dataset(groups, schema) -> list[str]:
    """``cascade_ranker.core.validate_dataset``, one group at a time."""
    violations: list[str] = []
    d, dq = schema.item_dim, schema.query_feature_dim
    for group in groups:
        gid = group.query_id
        g = group.query_features
        if g.shape != (dq,):
            violations.append(f"group {gid}: query vector has dim {g.shape}, expected ({dq},)")
        else:
            nonzero = np.flatnonzero(g)
            if len(nonzero) != 1 or g[nonzero[0]] != 1.0:
                violations.append(f"group {gid}: query vector is not one-hot")
        if group.size < 1:
            violations.append(f"group {gid}: has no instances")
        if group.recalled_count < group.size:
            violations.append(
                f"group {gid}: recalled_count {group.recalled_count} < {group.size} instances"
            )
        if group.size and group.X.shape[1] != d:
            violations.append(f"group {gid}: feature dim {group.X.shape[1]} != schema dim {d}")
        else:
            for i in np.flatnonzero(~np.isfinite(group.X).all(axis=1)).tolist():
                violations.append(f"group {gid} instance {i}: non-finite feature value")
        prices = group.prices
        for i in np.flatnonzero(~(prices > 0) | (prices == np.inf)).tolist():
            violations.append(
                f"group {gid} instance {i}: price {float(prices[i])} is not "
                + ("positive" if not prices[i] > 0 else "finite")
            )
        low = (group.labels != LABEL_NONE) & (prices > 0) & (prices <= 1.0)
        for i in np.flatnonzero(low).tolist():
            violations.append(
                f"group {gid} instance {i}: click or purchase at price {float(prices[i])} <= 1"
                " has importance weight log(price) <= 0"
            )
    return violations


def _tied_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; ties share the average of their rank range."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    avg = ends - (counts - 1) / 2.0
    return avg[inverse]


def auc(scores) -> float:
    """Probability that a uniformly random positive outranks a uniformly
    random negative over ``(score, label)`` pairs; ties contribute 1/2.
    Sort-and-rank-sum, O(n log n)."""
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


def plan(model, group) -> list[int]:
    """Integer keep counts per stage: ceil of the expected pass count over the
    group's sampled instances (the recall-scaled expectation times N_q / M_q,
    the threshold that applies when replaying a sample), clamped to
    [1, items remaining]; non-increasing across stages."""
    packed = pack_groups([group])
    _, cum_log_p = batch_log_pass(model, packed)
    # rows in row order: sum(axis=0) adds a one-stage column pairwise, which
    # can move a sum within an ulp of a whole number across it
    pass_sums = np.cumsum(np.exp(cum_log_p), axis=0)[-1]
    remaining = group.size
    counts = []
    for j in range(model.n_stages):
        k = min(remaining, max(1, math.ceil(pass_sums[j])))
        counts.append(int(k))
        remaining = k
    return counts


def bernoulli_replay(model, groups, seed: int) -> list[tuple[float, tuple[int, ...]]]:
    """(realized cost in sample units, survivors per stage) of each group's
    Bernoulli replay, one query and one stage at a time. The uniform draws are
    ``default_rng(seed).random((n_instances, T))`` over the groups' rows in
    order; an entrant survives stage j iff its draw is below its stage-j pass
    probability."""
    t = stage_costs(model.assignment, model.schema)
    U = np.random.default_rng(seed).random((sum(g.size for g in groups), model.n_stages))
    replays, row = [], 0
    for g in groups:
        p_stage = expit(batch_log_pass(model, pack_groups([g]))[0])
        u = U[row: row + g.size]
        row += g.size
        survivors = np.arange(g.size)
        cost, kept = 0.0, []
        for a in range(model.n_stages):
            cost += len(survivors) * t[a]
            survivors = survivors[u[survivors, a] < p_stage[survivors, a]]
            kept.append(len(survivors))
        replays.append((cost, tuple(kept)))
    return replays


def generate(cfg, schema) -> list[QueryGroup]:
    """``cascade_ranker.datagen.generate``, drawing and computing one query at
    a time: d + 1 separate ``standard_normal(n_q)`` calls for the features and
    the label noise, and every expression over the query's rows alone."""
    rng = np.random.default_rng(cfg.seed)
    mix_sd = math.sqrt(1.0 + cfg.label_noise ** 2)
    label_threshold = special.ndtri(1.0 - cfg.positives_ratio) * mix_sd
    purchase_base = math.log(
        cfg.purchase_fraction_of_positives / (1.0 - cfg.purchase_fraction_of_positives)
    ) if 0 < cfg.purchase_fraction_of_positives < 1 else None

    blocks = []
    for qi in range(cfg.n_queries):
        if rng.random() < cfg.head_fraction:
            m_q = _log_uniform_int(rng, *cfg.head_mcount_range)
        else:
            m_q = _log_uniform_int(rng, *cfg.tail_mcount_range)
        n_q = min(m_q, cfg.group_size_cap)

        relevance = rng.standard_normal(n_q)
        prices = np.maximum(
            rng.lognormal(cfg.price_mean_log, cfg.price_sigma_log, size=n_q),
            cfg.price_floor,
        )
        price_factor = (np.log(prices) - cfg.price_mean_log) / cfg.price_sigma_log

        X = np.empty((n_q, schema.item_dim))
        for k, fq in enumerate(cfg.feature_quality):
            X[:, k] = (fq.signal_strength * relevance
                       + fq.price_strength * price_factor
                       + fq.noise * rng.standard_normal(n_q))

        positive = (relevance + cfg.label_noise * rng.standard_normal(n_q)) > label_threshold
        labels = np.where(positive, LABEL_CLICK, LABEL_NONE)
        if purchase_base is None:
            purchased = positive & (cfg.purchase_fraction_of_positives >= 1.0)
        else:
            p_purchase = 1.0 / (1.0 + np.exp(-(purchase_base + cfg.purchase_price_tilt * price_factor)))
            purchased = positive & (rng.random(n_q) < p_purchase)
        labels = np.where(purchased, LABEL_PURCHASE, labels).astype(np.int8)

        blocks.append((m_q, X, labels, prices))
    G = schema.query_onehots([m_q for m_q, _, _, _ in blocks])
    return [QueryGroup(f"q{qi:05d}", g, m_q, X, labels, prices)
            for qi, (g, (m_q, X, labels, prices)) in enumerate(zip(G, blocks))]


def write_dataset(path, groups, every_index: bool = False) -> None:
    """The dataset file of ``groups``, one line and one feature at a time:
    with ``every_index``, as ``cascade_ranker.datagen.write_dataset`` writes
    it; without, every zero feature omitted, a layout the reader accepts
    but the package never writes."""
    with open(path, "w", encoding="utf-8") as fh:
        for group in groups:
            head = f"qid:{group.query_id} mcount:{group.recalled_count} "
            for x, label, price in zip(group.X.tolist(), group.labels.tolist(),
                                       group.prices.tolist()):
                feats = " ".join(f"{k}:{v:.17g}" for k, v in enumerate(x)
                                 if every_index or v != 0.0)
                line = f"{head}label:{label} price:{price:.17g}"
                fh.write(line + (" " + feats if feats else "") + "\n")
