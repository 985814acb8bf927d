"""Forward inference of the cascade over packed rows: stage logits, with each
stage's weights read through the model's ``stage_slices``, and cumulative log
pass probabilities, whose last column is the log final positive probability.

All probabilities come from numerically stable log-sigmoid forms; nothing is
ever clamped away from {0, 1}, so downstream log computations must use the
log-space quantities also provided here. ``expit`` and ``log_expit`` are
scipy's two-branch forms: with e = exp(-|z|), which cannot overflow, sigma(z)
= (e if z < 0 else 1) / (1 + e) and log sigma(z) = -log1p(e), plus z if z < 0.
"""

from __future__ import annotations

import numpy as np

# pack_groups is not called here: it stays bound for the benchmark's tracer to wrap
from .core import CascadeModel, PackedDataset, pack_groups


def expit(z):
    e = np.exp(-np.abs(z))                      # sigma(z), elementwise
    return np.where(z < 0, e, 1.0) / (1.0 + e)


def log_expit(z):
    n = -np.log1p(np.exp(-np.abs(z)))           # log sigma(z), elementwise
    return np.where(z < 0, z + n, n)


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
    w = model.weights
    for a, (stage, (item, query)) in enumerate(zip(model.assignment.stages, model.stage_slices)):
        q_logit = packed.G @ w[query]
        Z[:, a] = packed.X[:, list(stage)] @ w[item] + np.repeat(q_logit, packed.sizes)
    return Z


def batch_log_pass(model: CascadeModel, packed: PackedDataset, log_q: bool = False) -> tuple:
    """(Z, cumulative log pass probabilities), both shape (n, T), and with
    ``log_q`` a third: log(1 - p) per stage, log_expit(-Z) bit for bit.

    ``cum_log_p[:, k]`` is log of the probability of passing stages 0..k.
    log sigma(Z) and log sigma(-Z) share one n = -log1p(exp(-|Z|)): the
    first is Z + n where Z < 0, else n; the second n - Z where Z > 0, else n.
    """
    Z = batch_logits(model, packed)
    n = -np.log1p(np.exp(-np.abs(Z)))
    cum_log_p = _cumsum_columns(np.where(Z < 0, Z + n, n))
    return (Z, cum_log_p, np.where(Z > 0, n - Z, n)) if log_q else (Z, cum_log_p)


def _cumsum_columns(a: np.ndarray) -> np.ndarray:
    """``np.cumsum(a, axis=1)``, in place in ``a``, which it returns.

    One column at a time: the same additions in the same order, without
    numpy's per-row loop over a handful of stages."""
    for k in range(1, a.shape[1]):
        np.add(a[:, k], a[:, k - 1], out=a[:, k])
    return a

