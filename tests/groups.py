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


def edge_groups(schema) -> list[QueryGroup]:
    """Hand-made groups for the dataset writer of the five-feature default
    schema: a group whose qid holds ``%`` and whose features are all non-zero
    (a subnormal, NaN and both infinities among them), then a group with a
    zero feature, a group with a -0.0 feature, and one more non-zero group."""
    nan, inf = float("nan"), float("inf")
    return [
        make_group(schema, 7, [[1.5, -2.0, 5e-324, nan, inf], [-inf, 1e300, -1e-300, 0.1, 3.0]],
                   labels=[2, 0], prices=[2.5, 1e6], qid="q%d%%s%"),
        make_group(schema, 3, [[0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0, 5.0]],
                   labels=[1, 0], prices=[1.25, 3.0], qid="zero%s"),
        make_group(schema, 40000, [[1.0, 2.0, -0.0, 4.0, 5.0]], labels=1, prices=7.0,
                   qid="negzero"),
        make_group(schema, 1, [[1 / 3, -2 / 3, 1e-310, 2.0 ** 60, -1e-5]], labels=0,
                   prices=1.0000000000000002, qid="q.x-1"),
    ]
