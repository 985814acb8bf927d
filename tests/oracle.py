"""Reference implementations the tests check the fast paths against: per-item
and per-query math written stage by stage, the loss gradient chained one
term and one stage column at a time, dataset validation group by group, and
the flat rank-sum AUC that ``evaluator.macro_auc`` computes per query."""

import numpy as np
from scipy.special import expit, log_expit, logsumexp

from cascade_ranker.cascade import batch_logits
from cascade_ranker.core import LABEL_NONE, stage_costs
from cascade_ranker.objective import _masked_coeffs, instance_weights


def stage_probabilities(model, query_features, x) -> np.ndarray:
    """sigma(w_x . f_j(x) + w_q . g(q)) for every stage j of one item."""
    return np.array([
        expit(x[list(cols)] @ wx + query_features @ wq)
        for cols, wx, wq in zip(model.assignment.stages, model.stage_item_weights,
                                model.stage_query_weights)
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
    """``loss(model, packed, cfg, objective).gradient`` through numpy's
    row-wise cumulative sums, scipy's logsumexp and one
    ``accumulate_weight_grad`` call per loss term."""
    t = stage_costs(model.assignment, model.schema)
    Z = batch_logits(model, packed)
    cum_log_p = np.cumsum(log_expit(Z), axis=1)
    log_q = log_expit(-Z)
    prefix = cum_log_p - log_expit(Z)
    log_p_final = cum_log_p[:, -1]
    log_1mp = logsumexp(log_q + prefix, axis=1)
    wgt = instance_weights(packed.labels, packed.prices, cfg)
    P = np.exp(cum_log_p)
    sizes = packed.sizes
    mratio = packed.mcounts / sizes
    starts = packed.offsets[:-1]
    suffix = np.zeros_like(P)
    suffix[:, :-1] = _suffix_sums(P[:, :-1] * t[1:])
    counts_final = mratio * np.add.reduceat(P[:, -1], starts)
    latencies = t[0] * packed.mcounts + mratio * np.add.reduceat(suffix[:, 0], starts)

    sig_neg = np.exp(log_q)
    neg_term = np.exp((log_p_final - log_1mp)[:, None] + log_q)
    dZ_nll = wgt[:, None] * np.where(packed.y[:, None] > 0, -sig_neg, neg_term)
    grad_nll = accumulate_weight_grad(model, packed, dZ_nll)
    grad_cost = accumulate_weight_grad(model, packed, sig_neg * suffix)
    size_coef = -expit(cfg.gamma * (cfg.result_floor - counts_final)) * mratio
    dZ_size = np.repeat(size_coef, sizes)[:, None] * P[:, -1][:, None] * sig_neg
    grad_size = accumulate_weight_grad(model, packed, dZ_size)
    lat_coef = expit(cfg.gamma * (latencies - cfg.latency_ceiling)) * mratio
    dZ_lat = np.repeat(lat_coef, sizes)[:, None] * sig_neg * suffix
    grad_latency = accumulate_weight_grad(model, packed, dZ_lat)

    beta, delta, lat_w = _masked_coeffs(cfg, objective)
    return (grad_nll + cfg.alpha * (2.0 * model.flat_weights()) + beta * grad_cost
            + delta * grad_size + lat_w * grad_latency)


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
