"""Query groups for tests, each built from one column block."""

import numpy as np

from cascade_ranker.core import QueryGroup


def make_group(schema, mcount, X, labels=0, prices=2.0, qid="q0") -> QueryGroup:
    """The group ``qid`` of the rows of ``X``, with the schema's one-hot query
    vector for ``mcount`` recalled items. A scalar ``labels`` or ``prices``
    holds for every row."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    return QueryGroup(qid, schema.query_onehot(mcount), mcount, X,
                      np.broadcast_to(labels, (n,)), np.broadcast_to(prices, (n,)))
