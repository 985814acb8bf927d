"""Loss functions and their analytic gradients.

Three nested objectives over a cascade model; which level charges which term
is ``TERMS``, and ``total`` adds the charged terms alone:

  level 1: behavior-weighted negative log-likelihood + ridge regularization
           alpha * |w|^2
  level 2: level 1 + a CPU-cost term charging each stage's cost to the items
           expected to enter it
  level 3: level 2 + smooth (softplus) penalties, one per query, keeping the
           expected result count above a floor and the expected latency (stage
           j's cost charged to its expected entrants) below a ceiling

Everything is computed in log space from the stage logits, so no intermediate
log(0) occurs for finite weights. The key identity used for log(1 - prod_j p_j)
is the telescoping expansion

    1 - p_1...p_T = sum_j (1 - p_j) * prod_{k<j} p_k

whose terms are products of sigmoids, each stable as a sum of log-sigmoids.
Cost, size and latency are functions of the expected pass counts S (see
``_query_expectations``), which eval and the replay's keep counts read too.
The gradient chains one summed dLoss/dZ back to the weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .cascade import batch_log_pass, expit
from .core import (
    LABEL_CLICK,
    LABEL_PURCHASE,
    CascadeModel,
    PackedDataset,
    check_domains,
    pack_groups,
)

OBJECTIVE_LEVELS = ("l1", "l2", "l3")

# The objective's terms in the order ``total`` adds them: the ``LossBreakdown``
# field, the ``ObjectiveConfig`` key of its coefficient (None: added as it is),
# the levels that charge it, and the other keys to check when it is not finite.
TERMS = (("nll", None, OBJECTIVE_LEVELS, ("purchase_weight", "price_weight")),
         ("l2", "alpha", OBJECTIVE_LEVELS, ()),
         ("expected_cost", "beta", ("l2", "l3"), ()),
         ("size_penalty", "delta", ("l3",), ("gamma", "result_floor")),
         ("latency_penalty", "latency_penalty_weight", ("l3",), ("gamma", "latency_ceiling")))


@cache
def charged_terms(objective: str) -> tuple:
    """The rows of ``TERMS`` that the level ``objective`` charges."""
    if objective not in OBJECTIVE_LEVELS:
        raise ValueError(f"objective must be one of {OBJECTIVE_LEVELS}, got {objective!r}")
    return tuple(row for row in TERMS if objective in row[2])


@dataclass(frozen=True)
class ObjectiveConfig:
    """Coefficients and thresholds of the objective; ``TERMS`` names the
    term each coefficient scales.

    gamma      softplus sharpness; the softplus-hinge gap is ln(2)/gamma.
    result_floor       desired minimum expected result count per query (N_o).
    latency_ceiling    latency threshold per query, in cost units (T_l).
    purchase_weight    how many times more important a purchase is than a click.
    price_weight       multiplier on log(price) in behavior weights.
    cost_units_per_ms  reporting-only conversion between cost units and ms.
    """

    alpha: float = 0.1
    beta: float = 1.0
    gamma: float = 10.0
    delta: float = 1.0
    latency_penalty_weight: float = 0.05
    result_floor: float = 200.0
    latency_ceiling: float = 19_500.0
    purchase_weight: float = 10.0
    price_weight: float = 1.0
    cost_units_per_ms: float = 150.0

    DOMAINS = dict(alpha="[0, inf)", beta="[0, inf)", gamma="(0, inf)", delta="[0, inf)",
                   latency_penalty_weight="[0, inf)", result_floor="(0, inf)",
                   latency_ceiling="(0, inf)", cost_units_per_ms="(0, inf)",
                   purchase_weight="[1, inf) (purchases never matter less than clicks)",
                   price_weight="(0, inf) (at 0 clicks and purchases weigh 0)")

    def __post_init__(self):
        check_domains(vars(self), self.DOMAINS)


@dataclass(frozen=True)
class LossBreakdown:
    """Every term of ``TERMS``, their ``total`` at one level and its gradient.
    ``queries_below_floor`` and ``queries_above_ceiling`` count the queries
    whose expected result count is below ``result_floor`` and whose expected
    latency is above ``latency_ceiling``, at every objective level.
    """

    total: float
    nll: float
    l2: float
    expected_cost: float
    size_penalty: float
    latency_penalty: float
    queries_below_floor: int
    queries_above_ceiling: int
    gradient: np.ndarray


def instance_weights(labels: np.ndarray, prices: np.ndarray, cfg: ObjectiveConfig) -> np.ndarray:
    """Importance weight of each instance by behavior type and log price.

    purchase -> purchase_weight * price_weight * log(price)
    click    -> price_weight * log(price)
    none     -> 1
    Positive for prices above 1 (natural log). Prices must all be finite
    and above 0.
    """
    if not np.all((prices > 0) & (prices < np.inf)):
        raise ValueError("prices must all be finite and positive")
    w = np.ones_like(prices)
    logp = np.log(prices)
    w = np.where(labels == LABEL_CLICK, cfg.price_weight * logp, w)
    w = np.where(labels == LABEL_PURCHASE, cfg.purchase_weight * cfg.price_weight * logp, w)
    return w


def _scaled_softplus_gap(diff, gamma):
    """(1/gamma) * ln(1 + exp(gamma * diff)) as hinge plus residual: a smooth
    upper bound of the hinge max(diff, 0), at most ln(2)/gamma above it, with
    that gap at diff = 0.

    Writing it as max(diff, 0) + log1p(exp(-gamma*|diff|))/gamma adds a
    nonnegative residual to the hinge, so the smooth penalty never dips below
    the hinge it bounds, even in floating point.
    """
    return np.maximum(diff, 0.0) + np.log1p(np.exp(-gamma * np.abs(diff))) / gamma


def _weight_grad(model: CascadeModel, packed: PackedDataset, dZ: np.ndarray) -> np.ndarray:
    """Chain dLoss/dZ (n, T) back to the flat weight vector, one matrix-vector
    product per stage column. The per-group sums are copied to contiguous rows,
    since BLAS adds a strided vector in another order."""
    if packed.n_instances == 0:    # pack_groups([]) has no feature columns to gather
        return np.zeros(model.weights.size)
    per_group = np.ascontiguousarray(np.add.reduceat(dZ, packed.offsets[:-1], axis=0).T)
    grad = np.empty(model.weights.size)
    for a, (stage, (item, query)) in enumerate(zip(model.assignment.stages, model.stage_slices)):
        grad[item] = packed.X[:, list(stage)].T @ dZ[:, a]
        grad[query] = packed.G.T @ per_group[a]
    return grad


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """``scipy.special.logsumexp(a, axis=1)`` for a real 2-D ``a``, bit for
    bit: scipy's operation order without its per-call array-API overhead.
    The row maximum is taken out of the sum of the shifted exponentials,
    and a row whose result is not finite (all -inf, say) falls back to
    log(sum(exp(a))).

    numpy reduces a short row one call at a time, so the maximum, the
    count and the sum run over the columns instead: a maximum is exact in
    any order, and numpy adds fewer than 8 columns left to right, as the
    column-wise adds do."""
    a_max = reduce(np.maximum, a.T)
    at_max = a == a_max[:, None]
    m = reduce(np.add, at_max.T.astype(a.dtype))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shifted = np.exp(np.where(at_max, -np.inf, a) - a_max[:, None])
        s = reduce(np.add, shifted.T) if a.shape[1] < 8 else np.sum(shifted, axis=1)
        out = np.log1p(s / m) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.sum(np.exp(a[bad]), axis=1))
    return out


def _suffix_sums(M: np.ndarray) -> np.ndarray:
    """``np.flip(np.cumsum(np.flip(M, axis=1), axis=1), axis=1)``: the sum of
    every column with those to its right, added column by column in the
    same order, which is faster than numpy's row-wise accumulation."""
    out = M.copy()
    for k in range(M.shape[1] - 2, -1, -1):
        out[:, k] += out[:, k + 1]
    return out


def _query_expectations(packed: PackedDataset, t: np.ndarray, P: np.ndarray):
    """(S, cost, counts_final, latencies) from the cumulative pass probabilities
    ``P`` (n, T). S[q, j], query q's expected number of sampled items that pass
    stages 0..j, derives the rest: the expected cost, and per query the
    recall-scaled expected final count and latency."""
    group_of_row = np.repeat(np.arange(packed.n_groups), packed.sizes)
    # bincount adds each query's rows in row order, the same packed alone or not
    S = np.column_stack([np.bincount(group_of_row, weights=P[:, j], minlength=packed.n_groups)
                         for j in range(P.shape[1])])
    mratio = packed.mcounts / packed.sizes     # M_q / N_q
    with np.errstate(over="ignore"):    # a cost that overflows is inf, for its reader to name
        # sum_j t_{j+1} S[:, j] column by column: BLAS would round a query by its row
        after_first = reduce(np.add, (S[:, :-1] * t[1:]).T, np.zeros(packed.n_groups))
        cost = float(t[0] * packed.n_instances + np.sum(after_first))
        latencies = t[0] * packed.mcounts + mratio * after_first
    counts_final = mratio * S[:, -1]
    return S, cost, counts_final, latencies


def expected_cost(model: CascadeModel, data) -> float:
    """Total expected CPU cost: every item entering stage j pays t_j, with all
    instances entering stage 1 and no cost beyond the final stage."""
    return forward_expectations(model, pack_groups(data))[2]


def blame_term(bd: LossBreakdown, cfg: ObjectiveConfig, objective: str, model: CascadeModel,
               packed: PackedDataset) -> str:
    """What to blame for a term, loss or gradient ``bd`` of ``model`` on ``packed`` that is
    not finite, and its keys: the feature values if their absolute sum overflows, as the
    logits and gradient then can; the feature costs and recalled counts if the expected
    cost or a latency overflows; else the first charged term not finite as ``total`` adds
    it, then the first uncharged one not finite as it is, else the largest charged one."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(np.abs(packed.X).sum()):
            return "overflowing feature values (check the dataset, or datagen.feature_quality)"
        _, _, cost, _, latencies = forward_expectations(model, packed)
    if not np.isfinite(np.append(latencies, cost)).all():
        return ("an overflowing expected cost or latency (check the feature costs and "
                "recalled counts)")
    charged = [(field, getattr(bd, field) * (getattr(cfg, key) if key else 1.0),
                tuple(filter(None, (key, *keys))))
               for field, key, _, keys in charged_terms(objective)]
    uncharged = [(field, getattr(bd, field), keys)
                 for field, _, levels, keys in TERMS if objective not in levels]
    term, _, keys = next((t for t in charged + uncharged if not np.isfinite(t[1])),
                         max(charged, key=lambda t: abs(t[1])))
    return f"the {term} term (check {', '.join(keys)})"


def loss(model: CascadeModel, data, cfg: ObjectiveConfig, objective: str = "l3",
         want_grad: bool = True, *, weights: np.ndarray | None = None) -> LossBreakdown:
    """Loss breakdown (and analytic gradient) at the requested objective level.

    One forward sweep over the rows gives every term of ``TERMS``. With
    ``want_grad`` one backward sweep chains the data terms the level charges
    to the weights together; otherwise ``gradient`` is empty. A term that
    overflows is reported as it is, with no numpy warning. ``weights``, when
    given, must be the rows' ``instance_weights`` under ``cfg``: ``train``
    computes them, with their price check, once per run and passes each
    batch its rows' share.
    """
    packed = pack_groups(data)
    coef = {field: getattr(cfg, key) if key else 1.0
            for field, key, _, _ in charged_terms(objective)}
    t = model.stage_costs
    _, cum_log_p, log_q = batch_log_pass(model, packed, log_q=True)   # log_q: log(1 - p)
    prefix = np.zeros_like(cum_log_p)          # sum of log p over stages < j
    prefix[:, 1:] = cum_log_p[:, :-1]
    log_p_final = cum_log_p[:, -1]
    # telescoping: log(1 - prod p) = logsumexp_j [log(1-p_j) + sum_{k<j} log p_k]
    log_1mp = _logsumexp_rows(log_q + prefix)

    wgt = instance_weights(packed.labels, packed.prices, cfg) if weights is None else weights
    y = packed.y
    w = model.weights
    P = np.exp(cum_log_p)                      # cumulative pass probabilities
    _, cost, counts_final, latencies = _query_expectations(packed, t, P)
    with np.errstate(over="ignore"):           # a term that overflows is reported as inf
        terms = dict(
            nll=-float(np.sum(wgt * (y * log_p_final + (1.0 - y) * log_1mp))), l2=float(w @ w),
            expected_cost=cost,
            size_penalty=float(np.sum(_scaled_softplus_gap(cfg.result_floor - counts_final,
                                                           cfg.gamma))),
            latency_penalty=float(np.sum(_scaled_softplus_gap(latencies - cfg.latency_ceiling,
                                                              cfg.gamma))))
    total = reduce(lambda a, b: a + b, (c * terms[field] for field, c in coef.items()))
    gradient = np.zeros(0)
    if want_grad:
        sig_neg = np.exp(log_q)                # 1 - p per stage, underflow-safe
        # y=0 term is p * (1 - p_j) / (1 - p): <= 1 analytically, so summing the
        # exponents before exponentiating cannot overflow.
        neg_term = np.exp((log_p_final - log_1mp)[:, None] + log_q)
        dZ = wgt[:, None] * np.where(y[:, None] > 0, -sig_neg, neg_term)
        if "expected_cost" in coef:            # levels nest: a penalty comes with the cost
            sizes = packed.sizes
            mratio = packed.mcounts / sizes    # M_q / N_q
            # suffix[i, b] = sum_{k=b}^{T-2} t[k+1] * P[i, k]: the cost the item is
            # expected to incur in stages after b, given it passes stage b.
            suffix = np.zeros_like(P)
            suffix[:, :-1] = _suffix_sums(P[:, :-1] * t[1:])
            suffix_coef = coef["expected_cost"]
            if "latency_penalty" in coef:
                lat_coef = expit(cfg.gamma * (latencies - cfg.latency_ceiling)) * mratio
                suffix_coef = (suffix_coef
                               + coef["latency_penalty"] * np.repeat(lat_coef, sizes))[:, None]
            charge = suffix_coef * suffix
            if "size_penalty" in coef:
                size_coef = -expit(cfg.gamma * (cfg.result_floor - counts_final)) * mratio
                charge = charge + (coef["size_penalty"] * np.repeat(size_coef, sizes)
                                   * P[:, -1])[:, None]
            dZ = dZ + sig_neg * charge
        gradient = _weight_grad(model, packed, dZ) + coef["l2"] * (2.0 * w)
    return LossBreakdown(
        total=float(total), **terms,
        queries_below_floor=int(np.count_nonzero(counts_final < cfg.result_floor)),
        queries_above_ceiling=int(np.count_nonzero(latencies > cfg.latency_ceiling)),
        gradient=gradient,
    )


def per_query_expectations(model: CascadeModel, data):
    """(expected final counts, expected latencies) per query, recall-scaled."""
    return forward_expectations(model, pack_groups(data))[3:]


def forward_expectations(model: CascadeModel, packed: PackedDataset):
    """From one forward pass over ``packed``: the final pass probability per
    instance, then S, the expected cost, and per query the expected final count
    and latency, as ``_query_expectations`` gives them to ``loss``."""
    P = np.exp(batch_log_pass(model, packed)[1])
    return (P[:, -1], *_query_expectations(packed, model.stage_costs, P))
