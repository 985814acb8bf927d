"""Domain types shared by every module: feature schema with per-feature costs,
query-grouped datasets, and the cascade model itself.

All types here are immutable after construction and safe to share across
threads. Vectors are float64 numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def stage_cost(assignment: StageAssignment, schema: FeatureSchema, j: int) -> float:
    """Fixed per-item cost of evaluating stage ``j`` (1-based)."""
    if not 1 <= j <= assignment.n_stages:
        raise ValueError(f"stage index {j} out of range 1..{assignment.n_stages}")
    return float(stage_costs(assignment, schema)[j - 1])


def stage_costs(assignment: StageAssignment, schema: FeatureSchema) -> np.ndarray:
    """Fixed per-item cost of every stage, shape (T,). Each stage's feature
    costs are added left to right in assignment order."""
    assignment.validate_against(schema)
    costs = schema.costs()
    return np.array(
        [sum(costs[idx] for idx in stage) for stage in assignment.stages], dtype=np.float64,
    )


@dataclass(frozen=True)
class Instance:
    """One labeled query-item pair: feature vector, behavior label, price."""

    item_features: np.ndarray
    label: int = LABEL_NONE
    price: float = 1.0

    def __post_init__(self):
        object.__setattr__(
            self, "item_features", np.asarray(self.item_features, dtype=np.float64)
        )
        if self.label not in (LABEL_NONE, LABEL_CLICK, LABEL_PURCHASE):
            raise ValueError(f"label must be 0 (none), 1 (click) or 2 (purchase); got {self.label}")

    @property
    def y(self) -> int:
        """Binary target: 1 iff the item was clicked or purchased."""
        return int(self.label != LABEL_NONE)


@dataclass(frozen=True)
class QueryGroup:
    """A query with its one-hot query vector, recalled-item count M_q, and
    the N_q sampled labeled instances (N_q <= M_q for valid datasets)."""

    query_id: str
    query_features: np.ndarray
    recalled_count: int
    instances: tuple[Instance, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "query_features", np.asarray(self.query_features, dtype=np.float64)
        )
        object.__setattr__(self, "instances", tuple(self.instances))
        if self.recalled_count < 1:
            raise ValueError(f"group {self.query_id}: recalled_count must be >= 1")

    @property
    def size(self) -> int:
        return len(self.instances)


@dataclass(frozen=True)
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
        item, query, pos = [], [], 0
        for j in range(self.n_stages):
            k = len(self.assignment.stages[j])
            item.append(w[pos : pos + k].copy())
            pos += k
            dq = self.query_feature_dim
            query.append(w[pos : pos + dq].copy())
            pos += dq
        if pos != w.shape[0]:
            raise ValueError(f"flat weight vector has length {w.shape[0]}, expected {pos}")
        return CascadeModel(tuple(item), tuple(query), self.assignment, self.schema)

    @property
    def n_weights(self) -> int:
        T = self.n_stages
        return sum(len(s) for s in self.assignment.stages) + T * self.query_feature_dim


def validate_dataset(groups: Iterable[QueryGroup], schema: FeatureSchema) -> list[str]:
    """Report-based dataset validation; an empty list means valid.

    Checks feature dimension, one-hot query vectors, M_q >= N_q >= 1,
    positive prices, and finite feature values.
    """
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
        for i, inst in enumerate(group.instances):
            if inst.item_features.shape != (d,):
                violations.append(
                    f"group {gid} instance {i}: feature dim {inst.item_features.shape[0]}"
                    f" != schema dim {d}"
                )
            elif not np.all(np.isfinite(inst.item_features)):
                violations.append(f"group {gid} instance {i}: non-finite feature value")
            if not inst.price > 0:
                violations.append(f"group {gid} instance {i}: price {inst.price} is not positive")
    return violations


@dataclass(frozen=True)
class PackedDataset:
    """Columnar view of a list of QueryGroups for vectorized math.

    Row order preserves group order and in-group instance order. ``offsets``
    has length n_groups + 1; group q owns rows offsets[q]:offsets[q+1].
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

    def group_rows(self, q: int) -> slice:
        return slice(int(self.offsets[q]), int(self.offsets[q + 1]))


def pack_groups(groups: Sequence[QueryGroup]) -> PackedDataset:
    """Stack ``groups`` into one PackedDataset. Every group needs at least one
    instance: the segmented kernels over ``offsets`` cannot represent an
    empty segment."""
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
    X = np.stack([inst.item_features for g in groups for inst in g.instances])
    labels = np.array(
        [inst.label for g in groups for inst in g.instances], dtype=np.int8
    )
    prices = np.array([inst.price for g in groups for inst in g.instances])
    G = np.stack([g.query_features for g in groups])
    sizes = np.array([g.size for g in groups], dtype=np.int64)
    mcounts = np.array([g.recalled_count for g in groups], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    return PackedDataset(
        X=X, labels=labels, y=(labels != LABEL_NONE).astype(np.float64), prices=prices,
        G=G, sizes=sizes, mcounts=mcounts, offsets=offsets,
        query_ids=tuple(g.query_id for g in groups),
    )
