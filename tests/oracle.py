"""Per-item and per-query reference math, written stage by stage so that the
tests can check the vectorised forward pass and expectations against it."""

import numpy as np
from scipy.special import expit

from cascade_ranker.core import stage_costs


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


def expected_latency(model, group, survivor_form: bool = False) -> float:
    """t_j charged to stage j's expected entrants, or with ``survivor_form``
    to its expected survivors."""
    t = stage_costs(model.assignment, model.schema)
    shift = 1 if survivor_form else 0
    return float(sum(t[j] * expected_count(model, group, j + shift) for j in range(len(t))))
