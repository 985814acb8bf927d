"""Forward inference of the cascade: per-stage pass probabilities, cumulative
pass probabilities, and the final positive probability.

All probabilities come from numerically stable log-sigmoid forms; nothing is
ever clamped away from {0, 1}, so downstream log computations must use the
log-space quantities also provided here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_expit

from .core import CascadeModel, PackedDataset, QueryGroup, pack_groups


@dataclass(frozen=True)
class StageProbs:
    """Per-stage pass probabilities for one item under one query.

    ``cumulative[k]`` is the probability of passing stages 1..k+1; ``final``
    is the positive-class probability (product over all stages).
    """

    per_stage: np.ndarray
    cumulative: np.ndarray
    final: float


def stage_probability(model: CascadeModel, group: QueryGroup, item_features: np.ndarray, j: int) -> float:
    """Pass probability sigma(w_x . f_j(x) + w_q . g(q)) for stage ``j`` (1-based).

    Stable for logits of magnitude up to 1e3 and beyond; saturation to 0 or 1
    happens only at float64 limits.
    """
    T = model.n_stages
    if not 1 <= j <= T:
        raise ValueError(f"stage index {j} out of range 1..{T}")
    x = np.asarray(item_features, dtype=np.float64)
    if x.shape != (model.schema.item_dim,):
        raise ValueError(
            f"item feature dim {x.shape} does not match schema ({model.schema.item_dim},)"
        )
    g = group.query_features
    if g.shape != (model.query_feature_dim,):
        raise ValueError(
            f"query feature dim {g.shape} does not match model ({model.query_feature_dim},)"
        )
    cols = list(model.assignment.stages[j - 1])
    z = float(x[cols] @ model.stage_item_weights[j - 1] + g @ model.stage_query_weights[j - 1])
    return float(expit(z))


def cascade_probabilities(model: CascadeModel, group: QueryGroup, item_features: np.ndarray) -> StageProbs:
    """Per-stage, cumulative, and final pass probabilities for one item."""
    T = model.n_stages
    per_stage = np.array(
        [stage_probability(model, group, item_features, j) for j in range(1, T + 1)]
    )
    cumulative = np.cumprod(per_stage)
    return StageProbs(per_stage=per_stage, cumulative=cumulative, final=float(cumulative[-1]))


def score_group(model: CascadeModel, group: QueryGroup) -> list[StageProbs]:
    """Element i is ``cascade_probabilities`` on instance i; order preserved."""
    return [cascade_probabilities(model, group, x) for x in group.X]


def batch_logits(model: CascadeModel, packed: PackedDataset) -> np.ndarray:
    """Stage logits for every packed instance, shape (n, T)."""
    n = packed.n_instances
    T = model.n_stages
    Z = np.empty((n, T))
    if n == 0:
        return Z
    if packed.X.shape[1] != model.schema.item_dim:
        raise ValueError(
            f"packed feature dim {packed.X.shape[1]} != schema dim {model.schema.item_dim}"
        )
    for a in range(T):
        cols = list(model.assignment.stages[a])
        q_logit = packed.G @ model.stage_query_weights[a]
        Z[:, a] = packed.X[:, cols] @ model.stage_item_weights[a] + np.repeat(q_logit, packed.sizes)
    return Z


def batch_log_pass(model: CascadeModel, packed: PackedDataset) -> tuple[np.ndarray, np.ndarray]:
    """(Z, cumulative log pass probabilities), both shape (n, T).

    ``cum_log_p[:, k]`` is log of the probability of passing stages 0..k.
    """
    Z = batch_logits(model, packed)
    return Z, np.cumsum(log_expit(Z), axis=1)


def batch_final_probs(model: CascadeModel, groups) -> np.ndarray:
    """Final positive probability for every instance across ``groups``."""
    packed = groups if isinstance(groups, PackedDataset) else pack_groups(groups)
    if packed.n_instances == 0:
        return np.zeros(0)
    _, cum = batch_log_pass(model, packed)
    return np.exp(cum[:, -1])
