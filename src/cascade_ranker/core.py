"""Domain types shared by every module: feature schema with per-feature costs,
query-grouped datasets, and the cascade model itself.

A query group is built one way, from its column block:
``QueryGroup(query_id, query_features, recalled_count, X, labels, prices)``.
``pack_groups`` joins the blocks of many groups into one ``PackedDataset``
for the vectorized math.

All types here are immutable after construction and safe to share across
threads. Vectors are float64 numpy arrays. The types that hold arrays
(``QueryGroup``, ``CascadeModel``, ``PackedDataset``) compare and hash by
identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

LABEL_NONE = 0
LABEL_CLICK = 1
LABEL_PURCHASE = 2

FEATURE_KINDS = ("statistical", "predictive")

# Bin edges for the one-hot query feature derived from the recalled-item
# count: [1,10), [10,100), [100,1k), [1k,10k), [10k,100k), [100k,inf).
DEFAULT_QUERY_BIN_EDGES = (10, 100, 1_000, 10_000, 100_000)


@dataclass(frozen=True)
class Feature:
    name: str
    cost: float
    kind: str = "statistical"

    def __post_init__(self):
        if self.cost < 0:
            raise ValueError(f"feature {self.name!r}: cost must be >= 0, got {self.cost}")
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"feature {self.name!r}: kind must be one of {FEATURE_KINDS}")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered item features with evaluation costs, plus the query-only
    one-hot feature derived by binning the recalled-item count.

    The query feature carries no evaluation cost and never changes the
    ranking within a query; it only shifts per-query score magnitudes.
    """

    features: tuple[Feature, ...]
    query_bin_edges: tuple[float, ...] = DEFAULT_QUERY_BIN_EDGES

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "query_bin_edges", tuple(self.query_bin_edges))
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        edges = self.query_bin_edges
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError("query_bin_edges must be strictly increasing")

    @property
    def item_dim(self) -> int:
        return len(self.features)

    @property
    def query_feature_dim(self) -> int:
        return len(self.query_bin_edges) + 1

    def feature_index(self, name: str) -> int:
        for i, f in enumerate(self.features):
            if f.name == name:
                return i
        raise KeyError(f"no feature named {name!r}")

    def costs(self) -> np.ndarray:
        return np.array([f.cost for f in self.features], dtype=np.float64)

    def query_onehot(self, recalled_count: int) -> np.ndarray:
        """One-hot vector for the bin containing ``recalled_count``."""
        if recalled_count < 1:
            raise ValueError(f"recalled_count must be >= 1, got {recalled_count}")
        idx = int(np.searchsorted(self.query_bin_edges, recalled_count, side="right"))
        g = np.zeros(self.query_feature_dim, dtype=np.float64)
        g[idx] = 1.0
        return g


@dataclass(frozen=True)
class StageAssignment:
    """Which features each cascade stage evaluates.

    Stages are pairwise disjoint, nonempty index sets; their union may be a
    strict subset of the schema (unassigned features are simply unused).
    """

    stages: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(tuple(s) for s in self.stages))
        if not self.stages:
            raise ValueError("assignment needs at least one stage")
        seen: set[int] = set()
        for j, stage in enumerate(self.stages):
            if not stage:
                raise ValueError(f"stage {j} is empty")
            if len(set(stage)) != len(stage):
                raise ValueError(f"stage {j} lists a feature twice")
            if seen & set(stage):
                raise ValueError(f"stage {j} overlaps an earlier stage")
            seen |= set(stage)

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def validate_against(self, schema: FeatureSchema) -> None:
        for j, stage in enumerate(self.stages):
            for idx in stage:
                if not 0 <= idx < schema.item_dim:
                    raise ValueError(f"stage {j}: feature index {idx} not in schema")

    @classmethod
    def from_names(cls, schema: FeatureSchema, stages: Sequence[Sequence[str]]) -> "StageAssignment":
        return cls(tuple(tuple(schema.feature_index(n) for n in stage) for stage in stages))


def stage_costs(assignment: StageAssignment, schema: FeatureSchema) -> np.ndarray:
    """Fixed per-item cost of every stage, shape (T,). Each stage's feature
    costs are added left to right in assignment order."""
    assignment.validate_against(schema)
    costs = schema.costs()
    return np.array(
        [sum(costs[idx] for idx in stage) for stage in assignment.stages], dtype=np.float64,
    )


@dataclass(frozen=True, eq=False)
class QueryGroup:
    """A query with its one-hot query vector, recalled-item count M_q, and
    its N_q sampled labeled instances (N_q <= M_q for valid datasets), held
    as one column block: ``X`` (N_q, item_dim) float64, ``labels`` (N_q,)
    int8 in {0, 1, 2} and ``prices`` (N_q,) float64.

    The constructor takes the block as it is: arrays that already have
    those dtypes are kept, not copied, and others are converted.
    """

    query_id: str
    query_features: np.ndarray
    recalled_count: int
    X: np.ndarray
    labels: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        query_id = self.query_id
        X = np.asarray(self.X, dtype=np.float64)
        labels = np.asarray(self.labels)
        prices = np.asarray(self.prices, dtype=np.float64)
        if self.recalled_count < 1:
            raise ValueError(f"group {query_id}: recalled_count must be >= 1")
        n = labels.shape[0] if labels.ndim == 1 else -1
        if X.ndim != 2 or X.shape[0] != n or prices.shape != (n,):
            raise ValueError(
                f"group {query_id}: X {X.shape}, labels {labels.shape} and prices "
                f"{prices.shape} do not form one block of rows"
            )
        if n > 0 and (labels.dtype.kind not in "iu"
                      or labels.min() < LABEL_NONE or labels.max() > LABEL_PURCHASE):
            raise ValueError(
                f"group {query_id}: labels must be 0 (none), 1 (click) or 2 (purchase)"
            )
        object.__setattr__(
            self, "query_features", np.asarray(self.query_features, dtype=np.float64)
        )
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "labels", labels.astype(np.int8, copy=False))
        object.__setattr__(self, "prices", prices)

    @property
    def size(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True, eq=False)
class CascadeModel:
    """Learned cascade: per-stage item-feature weights over that stage's
    feature subset plus per-stage query-feature weights."""

    stage_item_weights: tuple[np.ndarray, ...]
    stage_query_weights: tuple[np.ndarray, ...]
    assignment: StageAssignment
    schema: FeatureSchema

    def __post_init__(self):
        object.__setattr__(
            self,
            "stage_item_weights",
            tuple(np.asarray(w, dtype=np.float64) for w in self.stage_item_weights),
        )
        object.__setattr__(
            self,
            "stage_query_weights",
            tuple(np.asarray(w, dtype=np.float64) for w in self.stage_query_weights),
        )
        T = self.assignment.n_stages
        if len(self.stage_item_weights) != T or len(self.stage_query_weights) != T:
            raise ValueError("one item- and one query-weight vector required per stage")
        self.assignment.validate_against(self.schema)
        dq = self.stage_query_weights[0].shape[0]
        for j in range(T):
            if self.stage_item_weights[j].shape != (len(self.assignment.stages[j]),):
                raise ValueError(f"stage {j}: item weight length != stage feature count")
            if self.stage_query_weights[j].shape != (dq,):
                raise ValueError(f"stage {j}: query weight length mismatch")
        for w in (*self.stage_item_weights, *self.stage_query_weights):
            if not np.all(np.isfinite(w)):
                raise ValueError("weights must be finite")

    @property
    def n_stages(self) -> int:
        return self.assignment.n_stages

    @property
    def query_feature_dim(self) -> int:
        return self.stage_query_weights[0].shape[0]

    def flat_weights(self) -> np.ndarray:
        """Concatenated weights in canonical order:
        stage 0 item, stage 0 query, stage 1 item, stage 1 query, ..."""
        parts = []
        for j in range(self.n_stages):
            parts.append(self.stage_item_weights[j])
            parts.append(self.stage_query_weights[j])
        return np.concatenate(parts)

    def with_flat_weights(self, w: np.ndarray) -> "CascadeModel":
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.n_weights,):
            raise ValueError(
                f"flat weight vector has length {w.shape[0]}, expected {self.n_weights}"
            )
        view = self._flat_view(w.copy())
        return CascadeModel(view.stage_item_weights, view.stage_query_weights,
                            self.assignment, self.schema)

    def _flat_view(self, w: np.ndarray) -> "CascadeModel":
        """This model's cascade with stage weights that are views into the
        flat vector ``w``, built without any of the constructor's checks:
        for a loop that checks ``w`` itself, such as an SGD step."""
        item, query, pos = [], [], 0
        dq = self.query_feature_dim
        for stage in self.assignment.stages:
            item.append(w[pos : pos + len(stage)])
            query.append(w[pos + len(stage) : pos + len(stage) + dq])
            pos += len(stage) + dq
        view = object.__new__(CascadeModel)
        object.__setattr__(view, "stage_item_weights", tuple(item))
        object.__setattr__(view, "stage_query_weights", tuple(query))
        object.__setattr__(view, "assignment", self.assignment)
        object.__setattr__(view, "schema", self.schema)
        return view

    @property
    def n_weights(self) -> int:
        T = self.n_stages
        return sum(len(s) for s in self.assignment.stages) + T * self.query_feature_dim


def validate_dataset(groups: Iterable[QueryGroup], schema: FeatureSchema) -> list[str]:
    """Report-based dataset validation; an empty list means valid.

    Checks feature dimension, one-hot query vectors, M_q >= N_q >= 1,
    finite feature values, positive prices, and prices above 1 for clicks
    and purchases: their importance weight is log(price), and a weight of
    zero or below leaves the weighted NLL unbounded below.

    Every check runs once over the columns of all groups; the violations
    are listed group by group, in the order of the checks above.
    """
    groups = list(groups)
    if not groups:
        return []
    d, dq = schema.item_dim, schema.query_feature_dim
    sizes = np.array([g.size for g in groups], dtype=np.int64)
    recalled = np.array([g.recalled_count for g in groups])
    starts = np.cumsum(sizes) - sizes

    q_dim_ok = np.array([g.query_features.shape == (dq,) for g in groups])
    one_hot = np.zeros(len(groups), dtype=bool)
    if q_dim_ok.any():
        Q = np.stack([groups[q].query_features for q in np.flatnonzero(q_dim_ok)])
        nonzero = Q != 0
        first = Q[np.arange(len(Q)), nonzero.argmax(axis=1)]
        one_hot[q_dim_ok] = (nonzero.sum(axis=1) == 1) & (first == 1.0)
    x_dim_ok = np.array([g.X.shape[1] == d for g in groups])
    finite = np.ones(int(sizes.sum()), dtype=bool)
    if x_dim_ok.any():
        X = np.concatenate([groups[q].X for q in np.flatnonzero(x_dim_ok)])
        finite[np.repeat(x_dim_ok, sizes)] = np.isfinite(X).all(axis=1)
    prices = np.concatenate([g.prices for g in groups])
    labels = np.concatenate([g.labels for g in groups])
    low = (labels != LABEL_NONE) & (prices > 0) & (prices <= 1.0)

    # (check, group, instance) of every finding; instance -1 for a group-level one
    found = []
    for check, bad in enumerate((~one_hot, sizes < 1, recalled < sizes, (sizes > 0) & ~x_dim_ok)):
        q = np.flatnonzero(bad)
        found.append(np.stack([np.full_like(q, check), q, np.full_like(q, -1)]))
    group_of_row = np.repeat(np.arange(len(groups)), sizes)
    for check, bad in ((3, ~finite), (4, ~(prices > 0)), (5, low)):
        r = np.flatnonzero(bad)
        q = group_of_row[r]
        found.append(np.stack([np.full_like(r, check), q, r - starts[q]]))
    check, group, inst = np.concatenate(found, axis=1)
    order = np.lexsort((inst, check, group))

    violations: list[str] = []
    for c, q, i in zip(check[order].tolist(), group[order].tolist(), inst[order].tolist()):
        g = groups[q]
        gid = g.query_id
        if c == 0 and not q_dim_ok[q]:
            violations.append(
                f"group {gid}: query vector has dim {g.query_features.shape}, expected ({dq},)")
        elif c == 0:
            violations.append(f"group {gid}: query vector is not one-hot")
        elif c == 1:
            violations.append(f"group {gid}: has no instances")
        elif c == 2:
            violations.append(
                f"group {gid}: recalled_count {g.recalled_count} < {g.size} instances")
        elif c == 3 and i < 0:
            violations.append(f"group {gid}: feature dim {g.X.shape[1]} != schema dim {d}")
        elif c == 3:
            violations.append(f"group {gid} instance {i}: non-finite feature value")
        elif c == 4:
            violations.append(
                f"group {gid} instance {i}: price {float(g.prices[i])} is not positive")
        else:
            violations.append(
                f"group {gid} instance {i}: click or purchase at price {float(g.prices[i])} <= 1"
                " has importance weight log(price) <= 0"
            )
    return violations


@dataclass(frozen=True, eq=False)
class PackedDataset:
    """Columnar rows of many query groups, for vectorized math.

    Row order preserves group order and in-group instance order. ``offsets``
    has length n_groups + 1; group q owns rows offsets[q]:offsets[q+1].
    ``pack_groups`` builds one from QueryGroups; ``take`` selects groups.
    """

    X: np.ndarray          # (n, item_dim)
    labels: np.ndarray     # (n,) int8 in {0,1,2}
    y: np.ndarray          # (n,) float64 in {0,1}
    prices: np.ndarray     # (n,)
    G: np.ndarray          # (n_groups, query_feature_dim)
    sizes: np.ndarray      # (n_groups,) int64
    mcounts: np.ndarray    # (n_groups,) int64
    offsets: np.ndarray    # (n_groups + 1,) int64
    query_ids: tuple[str, ...]

    @property
    def n_instances(self) -> int:
        return self.X.shape[0]

    @property
    def n_groups(self) -> int:
        return self.G.shape[0]

    def take(self, group_idx) -> "PackedDataset":
        """The groups ``group_idx`` in that order, each with its rows in order."""
        group_idx = np.asarray(group_idx, dtype=np.int64)
        sizes, offsets, rows = self._group_rows(group_idx)
        return self._select(group_idx, rows, sizes, offsets)

    def _group_rows(self, group_idx: np.ndarray):
        """(sizes, offsets, rows) of the groups ``group_idx`` laid end to end:
        ``rows`` lists the source row of every result row."""
        sizes = self.sizes[group_idx]
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        # row r of the result is source row offsets[q] + (r - new offset of q)
        rows = np.repeat(self.offsets[group_idx] - offsets[:-1], sizes) + np.arange(offsets[-1])
        return sizes, offsets, rows

    def _select(self, group_idx: np.ndarray, rows: np.ndarray, sizes: np.ndarray,
                offsets: np.ndarray) -> "PackedDataset":
        """The groups ``group_idx`` given their rows, sizes and offsets from
        ``_group_rows``."""
        return PackedDataset(
            X=self.X[rows], labels=self.labels[rows], y=self.y[rows],
            prices=self.prices[rows], G=self.G[group_idx], sizes=sizes,
            mcounts=self.mcounts[group_idx], offsets=offsets,
            query_ids=tuple(self.query_ids[q] for q in group_idx.tolist()),
        )


def pack_groups(groups: Sequence[QueryGroup]) -> PackedDataset:
    """Concatenate the column blocks of ``groups`` into one PackedDataset.
    Every group needs at least one instance: the segmented kernels over
    ``offsets`` cannot represent an empty segment."""
    groups = list(groups)
    for g in groups:
        if g.size == 0:
            raise ValueError(f"group {g.query_id}: has no instances")
    if not groups:
        return PackedDataset(
            X=np.zeros((0, 0)), labels=np.zeros(0, dtype=np.int8), y=np.zeros(0),
            prices=np.zeros(0), G=np.zeros((0, 0)), sizes=np.zeros(0, dtype=np.int64),
            mcounts=np.zeros(0, dtype=np.int64), offsets=np.zeros(1, dtype=np.int64),
            query_ids=(),
        )
    X = np.concatenate([g.X for g in groups])
    labels = np.concatenate([g.labels for g in groups])
    prices = np.concatenate([g.prices for g in groups])
    G = np.stack([g.query_features for g in groups])
    sizes = np.array([g.size for g in groups], dtype=np.int64)
    mcounts = np.array([g.recalled_count for g in groups], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    return PackedDataset(
        X=X, labels=labels, y=(labels != LABEL_NONE).astype(np.float64), prices=prices,
        G=G, sizes=sizes, mcounts=mcounts, offsets=offsets,
        query_ids=tuple(g.query_id for g in groups),
    )
