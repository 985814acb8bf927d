"""Query groups for tests, each built from one column block, and models
rebuilt on another weight vector."""

import numpy as np

from cascade_ranker.core import CascadeModel, QueryGroup


def make_group(schema, mcount, X, labels=0, prices=2.0, qid="q0") -> QueryGroup:
    """The group ``qid`` of the rows of ``X``, with the schema's one-hot query
    vector for ``mcount`` recalled items. A scalar ``labels`` or ``prices``
    holds for every row."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    return QueryGroup(qid, schema.query_onehots([mcount])[0], mcount, X,
                      np.broadcast_to(labels, (n,)), np.broadcast_to(prices, (n,)))


def with_weights(model, w) -> CascadeModel:
    """``model``'s cascade with the flat weight vector ``w``."""
    return CascadeModel(w, model.assignment, model.schema)
