"""Domain types shared by every module: feature schema with per-feature costs,
query-grouped datasets, and the cascade model itself. A config dataclass states
the domain of its numbers once, in a table ``DOMAINS`` read by ``check_domains``.
A JSON document (a config, a model file, a manifest) is type-checked against
a template of valid values by ``check_json``, the one JSON type checker.

A dataset is a ``PackedDataset``: the columns of many query groups' rows,
built by ``PackedDataset.from_columns``, the one code that derives its
``offsets`` and ``y``. ``generate`` and ``read_dataset`` return one, and
the vectorized math and ``validate_dataset``, which checks its columns
against the schema, run on it. Iterating it yields each query as a
``QueryGroup`` whose arrays are views of the query's rows.

A ``QueryGroup`` is built one way, from its column block:
``QueryGroup(query_id, query_features, recalled_count, X, labels, prices)``.
``pack_groups`` joins the blocks of many groups into one ``PackedDataset``
and is the one place that checks a group's block; the constructor checks
nothing. A ``PackedDataset`` passes through it unchanged, so every public
function that takes data calls it and accepts either.

A ``CascadeModel`` is its flat weight vector, built by its constructor, the
one builder; its ``stage_slices`` are the one stage layout, defined here
alone, as is the row arithmetic of ``PackedDataset.rows``.

All types here are immutable after construction and safe to share across
threads; a ``CascadeModel`` keeps the float64 vector it is given, which its
caller must not write to afterwards (``train`` alone steps the vector of the
model it is training in place, and shares that model with no one until it
returns it). Vectors are float64 numpy arrays. The types that hold arrays
(``QueryGroup``, ``CascadeModel``, ``PackedDataset``) compare and hash by
identity.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

LABEL_NONE = 0
LABEL_CLICK = 1
LABEL_PURCHASE = 2

FEATURE_KINDS = ("statistical", "predictive")

# Bin edges for the one-hot query feature derived from the recalled-item
# count: [1,10), [10,100), [100,1k), [1k,10k), [10k,100k), [100k,inf).
DEFAULT_QUERY_BIN_EDGES = (10, 100, 1_000, 10_000, 100_000)


# the parts of an interval's text, such as "[0, inf)", matched once per text
_interval_parts = functools.cache(re.compile(r"([\[(])([^,]+), ([^\])]+)([\])])").match)


def check_domains(values: Mapping, table: Mapping[str, str], where: str = "") -> None:
    """Raise ValueError, naming the field and its value after ``where``, unless each
    ``values[name]`` lies in its interval in ``table``: "[0, 1)", say, or "(1, inf) (why)"."""
    for name, interval in table.items():
        value = values[name]
        left, lo, hi, right = _interval_parts(interval).groups()
        lo, hi = float(lo), float(hi)
        if not (lo < value < hi or value == lo and left == "[" or value == hi and right == "]"):
            if -np.inf < value < np.inf:
                raise ValueError(f"{where}{name} must be in {interval}, got {value}")
            raise ValueError(f"{where}{name} must be finite, got {value}")


def check_json(where: str, value, template, optional=()) -> None:
    """Raise ValueError naming ``where`` unless ``value`` has the JSON type of ``template``,
    a valid value at that place. A number may stand for a float, but not a bool; a null
    template stands for a string or null. A list is checked entry by entry against the
    template's first entry; an object must carry every key of the template except those
    in ``optional``, and no other key."""
    if template is None:
        ok, want = value is None or isinstance(value, str), "must be a string or null"
    elif isinstance(template, bool):
        ok, want = isinstance(value, bool), "must be true or false"
    elif isinstance(template, int):
        ok, want = type(value) is int, "must be an integer"
    elif isinstance(template, float):
        ok, want = type(value) in (int, float), "must be a number"
    elif isinstance(template, str):
        ok, want = isinstance(value, str), "must be a string"
    elif isinstance(template, list):
        ok, want = isinstance(value, list), "must be a list"
    else:
        ok, want = isinstance(value, dict), "must be an object"
    if not ok:
        raise ValueError(f"{where} {want}, got {json.dumps(value)}")
    if isinstance(template, list) and template:
        for k, entry in enumerate(value):
            check_json(f"{where}, entry {k}", entry, template[0], optional)
    elif isinstance(template, dict):
        for key in template:
            if key not in value and key not in optional:
                raise ValueError(f"{where} lacks key {key!r}")
        for key, entry in value.items():
            if key not in template:
                raise ValueError(f"{where} has unknown key {key!r}")
            check_json(f"{where}, key {key!r}", entry, template[key], optional)


@dataclass(frozen=True)
class Feature:
    name: str
    cost: float
    kind: str = "statistical"

    DOMAINS = dict(cost="[0, inf)")

    def __post_init__(self):
        check_domains(vars(self), self.DOMAINS, f"feature {self.name!r}: ")
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
        for k, name in enumerate(names):
            if name in names[:k]:
                raise ValueError(f"feature name {name!r} appears twice")
        edges = self.query_bin_edges
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError(f"query bin edges must be strictly increasing, got {list(edges)}")

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

    def query_onehots(self, recalled_counts: Sequence[int]) -> np.ndarray:
        """One one-hot row per count, shape (len(recalled_counts),
        query_feature_dim), from one ``searchsorted`` over all of them."""
        counts = np.asarray(recalled_counts)
        bad = np.flatnonzero(counts < 1)
        if bad.size:
            raise ValueError(f"recalled_count must be >= 1, got {counts[bad[0]]}")
        G = np.zeros((counts.size, self.query_feature_dim), dtype=np.float64)
        G[np.arange(counts.size),
          np.searchsorted(self.query_bin_edges, counts, side="right")] = 1.0
        return G


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
    costs are added left to right in assignment order; a sum that overflows
    is inf, with no numpy warning, for the cost's reader to name."""
    assignment.validate_against(schema)
    costs = schema.costs()
    with np.errstate(over="ignore"):
        return np.array(
            [sum(costs[idx] for idx in stage) for stage in assignment.stages], dtype=np.float64,
        )


@dataclass(frozen=True, eq=False)
class QueryGroup:
    """A query with its one-hot query vector, recalled-item count M_q, and
    its N_q sampled labeled instances (N_q <= M_q for valid datasets), held
    as one column block: ``X`` (N_q, item_dim), ``labels`` (N_q,) in
    {0, 1, 2} and ``prices`` (N_q,). The constructor checks nothing (that is
    ``pack_groups``' job): it makes ``X``, ``prices`` and ``query_features``
    float64 arrays, without a copy when they are, and ``labels`` an array."""

    query_id: str
    query_features: np.ndarray
    recalled_count: int
    X: np.ndarray
    labels: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "query_features", np.asarray(self.query_features, dtype=np.float64))
        object.__setattr__(self, "X", np.asarray(self.X, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels))
        object.__setattr__(self, "prices", np.asarray(self.prices, dtype=np.float64))

    @property
    def size(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True, eq=False)
class CascadeModel:
    """Learned cascade, held as one flat float64 weight vector in canonical
    order: stage 0 item weights, stage 0 query weights, stage 1 item
    weights, ... Stage j's item weights go with its features in assignment
    order, its query weights with the schema's one-hot query feature.

    ``stage_slices[j]`` is the (item, query) pair of slices of stage j in
    ``weights``, the one stage layout: ``weights[item]`` and
    ``weights[query]`` are views of the vector. ``stage_costs`` is the
    per-item cost of every stage, as ``stage_costs`` gives it. The
    constructor is the one builder. It keeps a float64 vector as it is,
    without a copy, and rejects one of the wrong length or with a
    non-finite weight.
    """

    weights: np.ndarray
    assignment: StageAssignment
    schema: FeatureSchema

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        costs = stage_costs(self.assignment, self.schema)
        costs.flags.writeable = False
        dq, pos, slices = self.schema.query_feature_dim, 0, []
        for stage in self.assignment.stages:
            k = pos + len(stage)
            slices.append((slice(pos, k), slice(k, k + dq)))
            pos = k + dq
        if w.shape != (pos,):
            raise ValueError(f"flat weight vector has shape {w.shape}, expected length {pos}")
        if not np.isfinite(w).all():
            raise ValueError("weights must all be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "stage_slices", tuple(slices))
        object.__setattr__(self, "stage_costs", costs)

    @property
    def n_stages(self) -> int:
        return self.assignment.n_stages


def validate_dataset(packed: PackedDataset, schema: FeatureSchema) -> list[str]:
    """Report-based dataset validation; an empty list means valid.

    Checks one-hot query vectors of the schema's width, M_q >= N_q, the
    feature width, finite feature values, finite positive prices, and prices
    above 1 for clicks and purchases: their importance weight is log(price),
    and a weight of zero or below leaves the weighted NLL unbounded below.

    Every check runs once over the columns of ``packed``; only the groups
    that fail one are visited, to list their violations group by group in
    the order of the checks above.
    """
    d, dq = schema.item_dim, schema.query_feature_dim
    G, sizes, offsets, prices = packed.G, packed.sizes, packed.offsets, packed.prices
    q_dim_ok, x_dim_ok = G.shape[1] == dq, packed.X.shape[1] == d
    one_hot = ((G != 0).sum(axis=1) == 1) & ((G == 1.0).sum(axis=1) == 1)
    finite = np.isfinite(packed.X).all(axis=1) | (not x_dim_ok)
    bad_price = ~((prices > 0) & (prices < np.inf))
    low = (packed.labels != LABEL_NONE) & (prices > 0) & (prices <= 1.0)
    bad = ~one_hot | (packed.mcounts < sizes) | (not (q_dim_ok and x_dim_ok))
    bad_rows = np.flatnonzero(~finite | bad_price | low)
    bad[np.searchsorted(offsets, bad_rows, side="right") - 1] = True

    violations: list[str] = []
    for q in np.flatnonzero(bad).tolist():
        gid, rows = packed.query_ids[q], slice(offsets[q], offsets[q + 1])
        if not q_dim_ok:
            violations.append(f"group {gid}: query vector has dim {G.shape[1:]}, expected ({dq},)")
        elif not one_hot[q]:
            violations.append(f"group {gid}: query vector is not one-hot")
        if packed.mcounts[q] < sizes[q]:
            violations.append(
                f"group {gid}: recalled_count {packed.mcounts[q]} < {sizes[q]} instances")
        if not x_dim_ok:
            violations.append(f"group {gid}: feature dim {packed.X.shape[1]} != schema dim {d}")
        for i in np.flatnonzero(~finite[rows]).tolist():
            violations.append(f"group {gid} instance {i}: non-finite feature value")
        p = prices[rows]
        for i in np.flatnonzero(bad_price[rows]).tolist():
            violations.append(f"group {gid} instance {i}: price {float(p[i])} is not "
                              + ("finite" if p[i] > 0 else "positive"))
        for i in np.flatnonzero(low[rows]).tolist():
            violations.append(
                f"group {gid} instance {i}: click or purchase at price {float(p[i])} <= 1"
                " has importance weight log(price) <= 0"
            )
    return violations


@dataclass(frozen=True, eq=False)
class PackedDataset:
    """Columnar rows of many query groups, for vectorized math.

    Row order preserves group order and in-group instance order. ``offsets``
    has length n_groups + 1; group q owns rows offsets[q]:offsets[q+1].
    ``from_columns`` builds one; ``take`` selects groups, for a holdout
    split and for every SGD batch. Its length is its number of groups, and
    iterating it yields each group as a ``QueryGroup`` of views of its rows.
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

    @classmethod
    def from_columns(cls, X: np.ndarray, labels: np.ndarray, prices: np.ndarray,
                     G: np.ndarray, sizes, mcounts, query_ids) -> "PackedDataset":
        """The dataset whose group q is the next ``sizes[q]`` rows, with
        ``G[q]``, ``mcounts[q]`` and ``query_ids[q]``: the one code that
        derives ``offsets`` and ``y``. It checks nothing and keeps the arrays
        it is given, ``labels`` cast to int8."""
        sizes = np.asarray(sizes, dtype=np.int64)
        labels = labels.astype(np.int8, copy=False)
        return cls(
            X=X, labels=labels, y=(labels != LABEL_NONE).astype(np.float64), prices=prices, G=G,
            sizes=sizes, mcounts=np.asarray(mcounts, dtype=np.int64),
            offsets=np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
            query_ids=tuple(query_ids),
        )

    @property
    def n_instances(self) -> int:
        return self.X.shape[0]

    @property
    def n_groups(self) -> int:
        return self.G.shape[0]

    def __len__(self) -> int:
        return self.n_groups

    def __iter__(self) -> Iterator[QueryGroup]:
        ends = self.offsets.tolist()
        for q, (qid, mcount) in enumerate(zip(self.query_ids, self.mcounts.tolist())):
            rows = slice(ends[q], ends[q + 1])
            yield QueryGroup(qid, self.G[q], mcount, self.X[rows], self.labels[rows],
                             self.prices[rows])

    def rows(self, group_idx) -> np.ndarray:
        """The row indices of the groups ``group_idx``, in that order, each
        group's rows in order."""
        group_idx = np.asarray(group_idx, dtype=np.int64)
        sizes = self.sizes[group_idx]
        # row r of the result is source row offsets[q] + (r - the result's rows before q)
        rows = np.repeat(self.offsets[group_idx] - (np.cumsum(sizes) - sizes), sizes)
        rows += np.arange(rows.size)
        return rows

    def take(self, group_idx, rows=None) -> "PackedDataset":
        """The groups ``group_idx`` in that order, each with its rows in order.
        ``rows`` is ``self.rows(group_idx)``, computed when not given: a caller
        that gathers a column of its own by them passes them in."""
        group_idx = np.asarray(group_idx, dtype=np.int64)
        if rows is None:
            rows = self.rows(group_idx)
        return PackedDataset.from_columns(
            self.X.take(rows, axis=0), self.labels.take(rows), self.prices.take(rows),
            self.G.take(group_idx, axis=0), self.sizes.take(group_idx),
            self.mcounts.take(group_idx), map(self.query_ids.__getitem__, group_idx.tolist()))


def pack_groups(groups: PackedDataset | Sequence[QueryGroup]) -> PackedDataset:
    """Concatenate the column blocks of ``groups`` into one PackedDataset;
    a PackedDataset is returned unchanged. Raises ValueError naming the
    first group whose rows do not form one block, that has none (a segment
    of ``offsets`` cannot be empty), whose feature width or 1-D query vector
    shape is not the first group's, whose labels are not integers in
    {0, 1, 2}, or whose ``recalled_count`` is below 1."""
    if isinstance(groups, PackedDataset):
        return groups
    groups = list(groups)
    if not groups:
        return PackedDataset.from_columns(np.zeros((0, 0)), np.zeros(0, dtype=np.int8),
                                          np.zeros(0), np.zeros((0, 0)), [], [], ())
    width, q_shape = groups[0].X.shape[1:], groups[0].query_features.shape
    if len(q_shape) != 1:
        raise ValueError(f"group {groups[0].query_id}: query vector has shape {q_shape}, "
                         "expected one dimension")
    bad_labels = "group {}: labels must be 0 (none), 1 (click) or 2 (purchase)"
    sizes = []
    for g in groups:
        X, labels, prices = g.X, g.labels, g.prices
        n = labels.shape[0] if labels.ndim == 1 else -1
        if X.ndim != 2 or X.shape[0] != n or prices.shape != (n,):
            raise ValueError(f"group {g.query_id}: X {X.shape}, labels {labels.shape} and "
                             f"prices {prices.shape} do not form one block of rows")
        if n == 0:
            raise ValueError(f"group {g.query_id}: has no instances")
        if X.shape[1:] != width:
            raise ValueError(f"group {g.query_id}: feature width {X.shape[1]} differs "
                             f"from the first group's {width[0]}")
        if g.query_features.shape != q_shape:
            raise ValueError(f"group {g.query_id}: query vector shape {g.query_features.shape} "
                             f"differs from the first group's {q_shape}")
        if labels.dtype.kind not in "iu":
            raise ValueError(bad_labels.format(g.query_id))
        sizes.append(n)
    labels = np.concatenate([g.labels for g in groups])
    bad = np.flatnonzero((labels < LABEL_NONE) | (labels > LABEL_PURCHASE))
    if bad.size:
        raise ValueError(bad_labels.format(
            groups[np.searchsorted(np.cumsum(sizes), bad[0], side="right")].query_id))
    mcounts = np.array([g.recalled_count for g in groups], dtype=np.int64)
    if (mcounts < 1).any():
        q = np.argmax(mcounts < 1)
        raise ValueError(f"group {groups[q].query_id}: recalled_count must be >= 1")
    return PackedDataset.from_columns(
        np.concatenate([g.X for g in groups]), labels,
        np.concatenate([g.prices for g in groups]),
        np.stack([g.query_features for g in groups]), sizes, mcounts,
        (g.query_id for g in groups))
