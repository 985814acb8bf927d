import math
import re
from bisect import bisect_right
from dataclasses import fields, replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_ranker.core import (
    CascadeModel,
    Feature,
    FeatureSchema,
    QueryGroup,
    StageAssignment,
    check_domains,
    check_json,
    pack_groups,
    stage_costs,
    validate_dataset,
)
from cascade_ranker.datagen import (FeatureQuality, GenConfig, default_assignment,
                                    default_schema, generate, write_dataset)
from cascade_ranker.objective import ObjectiveConfig
from cascade_ranker.simulator import simulate
from cascade_ranker.trainer import TrainConfig, init_weights, train
from groups import make_group, stage_model, stage_weights, with_weights
import oracle


def _group(schema, n=3, mcount=10, qid="q0", price=5.0, seed=0):
    """``n`` standard normal rows, the first one clicked, all at ``price``."""
    rng = np.random.default_rng(seed)
    return make_group(schema, mcount, rng.standard_normal((n, schema.item_dim)),
                      labels=(np.arange(n) == 0).astype(np.int8), prices=price, qid=qid)


class TestCheckJson:
    @pytest.mark.parametrize("value, template, message", [
        (True, 0, " must be an integer, got true"),
        (1.5, 0, " must be an integer, got 1.5"),
        (True, 0.0, " must be a number, got true"),
        ("1", 0.0, " must be a number, got \"1\""),
        (0, False, " must be true or false, got 0"),
        (3, None, " must be a string or null, got 3"),
        ({}, [0], " must be a list, got {}"),
        ([1, "x"], [0], ", entry 1 must be an integer, got \"x\""),
        ({"a": 1}, {"a": 0, "b": 0}, " lacks key 'b'"),
        ({"a": 1, "c": 0}, {"a": 0}, " has unknown key 'c'"),
        ({"a": [None]}, {"a": [""]}, ", key 'a', entry 0 must be a string, got null"),
    ])
    def test_wrong_type_named(self, value, template, message):
        with pytest.raises(ValueError, match="^" + re.escape("at p" + message) + "$"):
            check_json("at p", value, template)

    @pytest.mark.parametrize("value, template", [
        (3, 0.0), (-0.0, 0.0), (None, None), ("x", None), ([], [0]), ([1, 2], []),
        ({"a": 1}, {"a": 0, "b": 0}),
    ])
    def test_right_type_passes(self, value, template):
        check_json("at p", value, template, optional=("b",))


class TestCheckDomains:
    @pytest.mark.parametrize("interval, inside, outside", [
        ("[0, inf)", [0, 0.0, -0.0, 5e-324, 1.7976931348623157e308, 2**63],
         [-5e-324, -1, -1e308]),
        ("(0, 1)", [5e-324, 0.5, 0.9999999999999999], [0, -0.0, 1, 1.0000000000000002]),
        ("[0, 1]", [0, 1, 1.0], [-5e-324, 1.0000000000000002]),
        ("(1, inf) so log(price) stays positive", [1.0000000000000002, 1e308],
         [1, 0.9999999999999999]),
        ("[-1.3407807929942596e+154, 1.3407807929942596e+154], where its square stays finite",
         [-1.3407807929942596e+154, 1.3407807929942596e+154],
         [-1.3407807929942598e+154, 1.3407807929942598e+154]),
        ("(-inf, inf)", [-1.7976931348623157e308, 0.0, 1.7976931348623157e308], []),
    ])
    def test_bounds_are_exact(self, interval, inside, outside):
        for value in inside:
            check_domains({"x": value}, {"x": interval})
        for value in outside:
            with pytest.raises(ValueError, match=rf"^x must be in {re.escape(interval)}, "
                                                 rf"got {re.escape(str(value))}$"):
                check_domains({"x": value}, {"x": interval})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("interval", ["[0, inf)", "(-inf, inf)", "(0, 1]"])
    def test_nan_and_infinities_must_be_finite(self, interval, value):
        with pytest.raises(ValueError, match=f"^at p: x must be finite, got {value}$"):
            check_domains({"x": value, "y": 1.0}, {"y": "[0, 1]", "x": interval}, "at p: ")

    @pytest.mark.parametrize("config", [Feature, FeatureQuality, GenConfig, ObjectiveConfig,
                                        TrainConfig], ids=lambda c: c.__name__)
    def test_every_numeric_field_has_one_entry(self, config):
        # a new number cannot skip its domain, and the table names no other field
        numeric = [f.name for f in fields(config) if f.type in ("int", "float")]
        assert sorted(config.DOMAINS) == sorted(numeric)


class TestFeatureSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="^feature name 'a' appears twice$"):
            FeatureSchema((Feature("b", 0.1), Feature("a", 0.1), Feature("a", 0.2)))

    @pytest.mark.parametrize("edges", [(10, 10), (100, 10), (1, 5, 3)])
    def test_query_bin_edges_must_increase(self, edges):
        with pytest.raises(ValueError, match=re.escape(f"strictly increasing, got {list(edges)}")):
            FeatureSchema(default_schema().features, edges)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="cost"):
            Feature("a", -0.1)

    def test_query_onehot_bins(self):
        schema = default_schema()
        assert schema.query_feature_dim == 6
        for count, want in [(1, 0), (9, 0), (10, 1), (99, 1), (100, 2),
                            (9_999, 3), (10_000, 4), (99_999, 4), (100_000, 5)]:
            g = schema.query_onehots([count])[0]
            assert g.sum() == 1.0 and g[want] == 1.0

    def test_query_onehot_rejects_zero(self):
        with pytest.raises(ValueError, match=r"^recalled_count must be >= 1, got 0$"):
            default_schema().query_onehots([0])

    def test_query_onehots_one_row_per_count(self):
        schema = default_schema()
        counts = [1, 9, 10, 99, 100, 9_999, 10_000, 99_999, 100_000, 10**7, 7]
        G = schema.query_onehots(counts)
        assert G.shape == (len(counts), 6) and G.dtype == np.float64
        want = np.eye(6)[[bisect_right(schema.query_bin_edges, c) for c in counts]]
        assert G.tobytes() == want.tobytes()
        assert schema.query_onehots([]).shape == (0, 6)

    def test_query_onehots_names_first_bad_count(self):
        with pytest.raises(ValueError, match=r"^recalled_count must be >= 1, got 0$"):
            default_schema().query_onehots([5, 0, -1])


class TestStageAssignment:
    def test_empty_stage_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            StageAssignment(((0, 1), ()))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            StageAssignment(((0, 1), (1, 2)))

    def test_out_of_schema_index(self):
        schema = default_schema()
        asg = StageAssignment(((0, 99),))
        with pytest.raises(ValueError, match="not in schema"):
            stage_costs(asg, schema)


class TestStageCost:
    def test_single_cheap_feature(self):
        schema = default_schema()
        asg = StageAssignment(((schema.feature_index("sales_volume"),),))
        assert stage_costs(asg, schema)[0] == pytest.approx(0.02)

    def test_expensive_pair(self):
        schema = default_schema()
        asg = StageAssignment((
            (schema.feature_index("relevance_score"), schema.feature_index("deep_wide_score")),
        ))
        assert stage_costs(asg, schema)[0] == pytest.approx(1.58)

    def test_additive_over_disjoint_sets(self):
        schema = default_schema()
        asg = default_assignment(schema)
        merged = StageAssignment((tuple(i for s in asg.stages for i in s),))
        total = sum(stage_costs(asg, schema)[j - 1] for j in range(1, asg.n_stages + 1))
        assert total == pytest.approx(stage_costs(merged, schema)[0])

    def test_full_partition_matches_single_stage_all(self):
        schema = default_schema()
        asg = default_assignment(schema)
        assert stage_costs(asg, schema).sum() == pytest.approx(schema.costs().sum())

    def test_model_carries_its_stage_costs_read_only(self):
        schema = default_schema()
        asg = default_assignment(schema)
        model = init_weights(schema, asg, seed=0, init_scale=0.1)
        assert model.stage_costs.tobytes() == stage_costs(asg, schema).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            model.stage_costs[0] = 0.0

    def test_overflowing_stage_cost_is_inf_without_a_warning(self):
        # every model computes its stage costs when it is built, so building
        # one over costs whose stage sum overflows must not warn
        schema = FeatureSchema((Feature("a", 1e308), Feature("b", 1e308)))
        asg = StageAssignment(((0, 1),))
        assert stage_costs(asg, schema).tolist() == [math.inf]
        assert init_weights(schema, asg, seed=0, init_scale=0.1).stage_costs.tolist() == [math.inf]

    def test_summed_left_to_right_in_assignment_order(self):
        # 1 + 1 + 1e16 keeps the small terms; 1 + 1e16 + 1 rounds both away
        schema = FeatureSchema((Feature("a", 1.0), Feature("b", 1e16), Feature("c", 1.0)))
        asg = StageAssignment(((0, 2, 1),))
        assert stage_costs(asg, schema)[0] == 1e16 + 2.0


class TestValidateDataset:
    def test_well_formed_is_clean(self):
        schema = default_schema()
        assert validate_dataset(pack_groups([_group(schema)]), schema) == []

    def test_nonpositive_price_named(self):
        schema = default_schema()
        g = _group(schema)
        bad = replace(g, X=g.X[:2], labels=g.labels[:2], prices=[g.prices[0], 0.0])
        report = validate_dataset(pack_groups([bad]), schema)
        assert len(report) == 1
        assert "instance 1" in report[0] and "price" in report[0]

    def test_non_one_hot_query_vector(self):
        schema = default_schema()
        g = _group(schema)
        two_hot = np.zeros(schema.query_feature_dim)
        two_hot[0] = two_hot[1] = 1.0
        bad = replace(g, query_features=two_hot)
        report = validate_dataset(pack_groups([bad]), schema)
        assert len(report) == 1 and "one-hot" in report[0]

    def test_mcount_below_size(self):
        schema = default_schema()
        g = _group(schema, n=3)
        bad = replace(g, query_features=schema.query_onehots([2])[0], recalled_count=2)
        report = validate_dataset(pack_groups([bad]), schema)
        assert any("recalled_count" in v for v in report)

    def test_dimension_mismatch(self):
        schema = default_schema()
        g = make_group(schema, 5, np.zeros((1, 2)), prices=1.0)
        report = validate_dataset(pack_groups([g]), schema)
        assert any("dim" in v for v in report)

    def test_non_finite_feature(self):
        schema = default_schema()
        x = np.zeros(schema.item_dim)
        x[0] = np.inf
        g = make_group(schema, 5, x[None, :], prices=1.0)
        report = validate_dataset(pack_groups([g]), schema)
        assert any("non-finite" in v for v in report)

    def test_infinite_price_named(self):
        schema = default_schema()
        g = _group(schema)
        bad = replace(g, prices=[5.0, np.inf, -np.inf])
        assert validate_dataset(pack_groups([bad]), schema) == [
            "group q0 instance 1: price inf is not finite",
            "group q0 instance 2: price -inf is not positive",
        ]


@cache
def _clean_groups(seed):
    return tuple(generate(GenConfig(n_queries=6, group_size_cap=5, seed=seed), default_schema()))


_CORRUPTIONS = ("feature", "price", "query", "recalled")


@st.composite
def _corrupted_groups(draw):
    """Generated groups, each with up to three kinds of corruption that keep
    its shape; then maybe the feature width or query dim changed for the
    whole dataset, and maybe one group whose block cannot join the others."""
    groups = []
    for g in _clean_groups(draw(st.integers(0, 2))):
        X, labels, prices = g.X.copy(), g.labels.copy(), g.prices.copy()
        query, recalled = g.query_features.copy(), g.recalled_count
        kinds = draw(st.sets(st.sampled_from(_CORRUPTIONS), max_size=3))
        rows = st.lists(st.integers(0, g.size - 1), min_size=1, max_size=3)
        if "feature" in kinds:
            for r in draw(rows):
                X[r, draw(st.integers(0, X.shape[1] - 1))] = draw(
                    st.sampled_from([np.nan, np.inf, -np.inf]))
        if "price" in kinds:
            for r in draw(rows):
                prices[r] = draw(st.sampled_from(
                    [0.0, -2.5, np.nan, np.inf, -np.inf, 1e-300, 0.5, 1.0]))
                labels[r] = draw(st.integers(0, 2))
        if "query" in kinds:
            query = draw(st.sampled_from([
                np.zeros_like(query), np.ones_like(query), 2.0 * query,
                np.where(query > 0, np.nan, 0.0),
            ]))
        groups.append((g.query_id, query, recalled, X, labels, prices))

    width = draw(st.sampled_from([None, "narrow", "wide"]))
    q_dim = draw(st.sampled_from([None, "short", "long"]))
    odd = draw(st.sampled_from([None, "empty", "empty 0x0", "width", "query dim", "query 2-D"]))
    odd_at = draw(st.integers(0, len(groups) - 1))
    out = []
    for k, (qid, query, recalled, X, labels, prices) in enumerate(groups):
        X = {None: X, "narrow": X[:, :-1], "wide": np.hstack([X, X[:, :1]])}[width]
        query = {None: query, "short": query[:-1], "long": np.append(query, 0.0)}[q_dim]
        if k == odd_at and odd == "empty 0x0":
            out.append(QueryGroup(qid, query, recalled, np.zeros((0, 0)), (), ()))
            continue
        if k == odd_at and odd == "empty":
            X, labels, prices = X[:0], labels[:0], prices[:0]
        elif k == odd_at and odd == "width":
            X = X[:, :-1]
        elif k == odd_at and odd == "query dim":
            query = np.append(query, 0.0)
        elif k == odd_at and odd == "query 2-D":
            query = query.reshape(1, -1)
        out.append(QueryGroup(qid, query, recalled, X, labels, prices))
    return out


def _unpackable(groups) -> set[str]:
    """The query ids of the groups that keep ``groups`` from forming one
    block: those with no instances, those whose feature width or query
    vector shape differs from the first group's, and the first group when
    its query vector is not 1-D."""
    first = groups[0]
    ids = {g.query_id for g in groups
           if g.size == 0 or g.X.shape[1] != first.X.shape[1]
           or g.query_features.shape != first.query_features.shape}
    if first.query_features.ndim != 1:
        ids.add(first.query_id)
    return ids


class TestValidateAgainstOracle:
    @given(_corrupted_groups())
    @settings(max_examples=200, deadline=None)
    def test_same_violations_in_same_order(self, groups):
        schema = default_schema()
        culprits = _unpackable(groups)
        if culprits:
            with pytest.raises(ValueError) as exc:
                pack_groups(groups)
            assert str(exc.value).split(":")[0] in {f"group {q}" for q in culprits}
        else:
            assert (validate_dataset(pack_groups(groups), schema)
                    == oracle.validate_dataset(groups, schema))

    def test_no_groups(self):
        assert validate_dataset(pack_groups([]), default_schema()) == []


@st.composite
def _assignments(draw):
    """A random assignment of 1-5 stages over disjoint, nonempty subsets of
    the default schema's five features, some features unused, under 0-6
    query bins."""
    base = default_schema()
    T = draw(st.integers(1, 5))
    owner = list(range(T)) + draw(st.lists(st.integers(-1, T - 1), min_size=5 - T,
                                           max_size=5 - T))
    features = draw(st.permutations(range(5)))
    stages = tuple(tuple(f for f, o in zip(features, owner) if o == j) for j in range(T))
    edges = draw(st.lists(st.integers(1, 10**6), max_size=6, unique=True).map(sorted))
    return StageAssignment(stages), FeatureSchema(base.features, edges)


class TestModelWeights:
    def test_stage_roundtrip(self):
        schema = default_schema()
        asg = default_assignment(schema)
        model = init_weights(schema, asg, seed=3, init_scale=0.7)
        back = stage_model(*stage_weights(model), asg, schema)
        assert back.weights.tobytes() == model.weights.tobytes()

    def test_stage_weights_are_views_of_the_flat_vector(self):
        schema = default_schema()
        asg = default_assignment(schema)
        w = init_weights(schema, asg, seed=4, init_scale=0.7).weights[::-1].copy()
        model = CascadeModel(w, asg, schema)
        assert model.weights is w                   # a float64 vector is not copied
        item, query = stage_weights(model)
        for j in range(model.n_stages):
            assert np.shares_memory(item[j], w) and np.shares_memory(query[j], w)
        # canonical order: stage 0 item, stage 0 query, stage 1 item, ...
        parts = [v for pair in zip(item, query) for v in pair]
        assert np.concatenate(parts).tobytes() == w.tobytes()

    @given(_assignments())
    @settings(max_examples=200, deadline=None)
    def test_stage_slices_tile_the_weights_in_canonical_order(self, problem):
        asg, schema = problem
        dq = schema.query_feature_dim
        n = sum(len(stage) + dq for stage in asg.stages)
        model = CascadeModel(np.arange(n, dtype=np.float64), asg, schema)
        assert len(model.stage_slices) == asg.n_stages
        # stage 0 item, stage 0 query, stage 1 item, ...: each slice starts
        # where the one before it stops, and the last stops at the end
        slices = [s for pair in model.stage_slices for s in pair]
        lengths = [k for stage in asg.stages for k in (len(stage), dq)]
        assert [s.step for s in slices] == [None] * len(slices)
        assert [s.stop - s.start for s in slices] == lengths
        assert [s.start for s in slices] == [0] + [s.stop for s in slices[:-1]]
        assert slices[-1].stop == n
        covered = np.concatenate([model.weights[s] for s in slices])
        assert covered.tolist() == list(range(n))       # every index once, in order
        for s in slices:
            assert np.shares_memory(model.weights[s], model.weights)

    @pytest.mark.parametrize("change, message", [
        (lambda item, query: (item[:-1], query), "expected length"),
        (lambda item, query: (item[:1] + [item[1][:-1]] + item[2:], query), "expected length"),
        (lambda item, query: (item, query[:2] + [np.append(query[2], 0.0)]), "expected length"),
        (lambda item, query: (item, [query[0] * np.nan] + query[1:]),
         "weights must all be finite"),
    ], ids=["stage count", "item length", "query length", "not finite"])
    def test_stage_vectors_checked_by_the_constructor(self, change, message):
        schema = default_schema()
        asg = default_assignment(schema)
        model = init_weights(schema, asg, seed=4, init_scale=0.7)
        with pytest.raises(ValueError, match=message):
            stage_model(*change(*stage_weights(model)), asg, schema)

    def test_wrong_flat_length(self):
        schema = default_schema()
        model = init_weights(schema, default_assignment(schema), 0, 0.1)
        with pytest.raises(ValueError, match="length"):
            CascadeModel(np.zeros(model.weights.size + 1), model.assignment, schema)

    def test_non_finite_weights_rejected(self):
        schema = default_schema()
        model = init_weights(schema, default_assignment(schema), 0, 0.1)
        w = model.weights.copy()
        w[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            CascadeModel(w, model.assignment, schema)


class TestIdentityEquality:
    """The types that hold arrays compare and hash by identity: a copy with
    equal values is a different object."""

    @staticmethod
    def _check(x, copy):
        assert x == x
        assert x != copy
        assert len({x, copy}) == 2

    def test_query_group(self):
        g = _group(default_schema())
        self._check(g, replace(g, X=g.X.copy()))

    def test_packed_dataset(self):
        groups = [_group(default_schema(), qid="a"), _group(default_schema(), qid="b")]
        self._check(pack_groups(groups), pack_groups(groups))

    def test_cascade_model(self):
        schema = default_schema()
        model = init_weights(schema, default_assignment(schema), seed=2, init_scale=0.5)
        self._check(model, with_weights(model, model.weights.copy()))


class TestPacking:
    def test_row_order_and_offsets(self):
        schema = default_schema()
        groups = [_group(schema, n=2, qid="a", seed=1), _group(schema, n=3, qid="b", seed=2)]
        packed = pack_groups(groups)
        assert packed.n_instances == 5 and packed.n_groups == 2
        assert list(packed.offsets) == [0, 2, 5]
        np.testing.assert_array_equal(packed.X[2], groups[1].X[0])
        assert packed.query_ids == ("a", "b")

    def test_empty(self):
        packed = pack_groups([])
        assert packed.n_instances == 0 and packed.n_groups == 0

    def test_packed_dataset_passes_through(self):
        schema = default_schema()
        packed = pack_groups([_group(schema, qid="a"), _group(schema, qid="b")])
        assert pack_groups(packed) is packed

    def test_empty_group_rejected_with_query_id(self):
        schema = default_schema()
        empty = make_group(schema, 4, np.zeros((0, schema.item_dim)), qid="q-empty")
        with pytest.raises(ValueError, match="q-empty"):
            pack_groups([_group(schema, qid="a"), empty, _group(schema, qid="b")])

    def test_feature_width_differing_from_the_first_rejected(self):
        schema = default_schema()
        narrow = make_group(schema, 4, np.zeros((2, schema.item_dim - 1)), qid="q-narrow")
        with pytest.raises(ValueError, match=r"group q-narrow: feature width 4 differs "
                                             r"from the first group's 5"):
            pack_groups([_group(schema, qid="a"), narrow])

    def test_query_shape_differing_from_the_first_rejected(self):
        schema = default_schema()
        g = _group(schema, qid="q-long")
        long = replace(g, query_features=np.append(g.query_features, 0.0))
        with pytest.raises(ValueError, match=r"group q-long: query vector shape \(7,\) differs "
                                             r"from the first group's \(6,\)"):
            pack_groups([_group(schema, qid="a"), long])

    def test_query_vector_not_1d_rejected(self):
        schema = default_schema()
        g = _group(schema, qid="q-2d")
        flat = replace(g, query_features=g.query_features.reshape(1, -1))
        with pytest.raises(ValueError, match=r"group q-2d: query vector has shape \(1, 6\), "
                                             r"expected one dimension"):
            pack_groups([flat, flat])

    def test_concatenates_column_blocks(self):
        schema = default_schema()
        groups = [_group(schema, n=2, qid="a", seed=1), _group(schema, n=3, qid="b", seed=2)]
        packed = pack_groups(groups)
        np.testing.assert_array_equal(packed.X, np.concatenate([g.X for g in groups]))
        assert packed.labels.dtype == np.int8 and list(packed.labels) == [1, 0, 1, 0, 0]
        assert packed.X.dtype == packed.prices.dtype == np.float64


def _bad_groups(schema):
    """Groups that break a block rule, each with the message ``pack_groups``
    raises for it: labels out of range or not integers, a ragged block, no
    recalled item, and a ``replace`` with short prices."""
    onehot = schema.query_onehots([5])[0]
    ok = _group(schema, n=2, qid="q-bad")
    return [
        *((QueryGroup("q-bad", onehot, 5, np.zeros((2, schema.item_dim)), labels, [2.0, 2.0]),
           r"group q-bad: labels must be 0 \(none\), 1 \(click\) or 2 \(purchase\)")
          for labels in ([0, 3], [-1, 0], [0.0, 1.0])),
        (QueryGroup("q-bad", onehot, 5, np.zeros((3, schema.item_dim)), [0, 1], [2.0, 2.0]),
         r"group q-bad: X \(3, 5\), labels \(2,\) and prices \(2,\) do not form one block"),
        (QueryGroup("q-bad", onehot, 0, np.zeros((1, schema.item_dim)), [0], [2.0]),
         "group q-bad: recalled_count must be >= 1"),
        (replace(ok, prices=[2.0]), "group q-bad: .*do not form one block of rows"),
    ]


_BAD_IDS = ["label-3", "label-minus-1", "float-labels", "ragged", "recalled-0", "short-prices"]


class TestQueryGroupColumns:
    """The constructor only converts; ``pack_groups`` owns every block rule,
    so every function that packs its data rejects a bad group by name."""

    def test_from_columns_keeps_float64_arrays(self):
        schema = default_schema()
        X = np.ones((2, schema.item_dim))
        prices = np.array([2.0, 3.0])
        labels = np.array([0, 2], dtype=np.int8)
        g = QueryGroup("q", schema.query_onehots([5])[0], 5, X, labels, prices)
        assert g.X is X and g.prices is prices and g.labels is labels and g.size == 2

    def test_list_or_int64_block_packs_to_float64_and_int8(self):
        schema = default_schema()
        onehot = schema.query_onehots([5])[0].tolist()
        listed = QueryGroup("a", onehot, 5, [[1] * 5, [2] * 5], [0, 2], [3, 4])
        wide = QueryGroup("b", onehot, 5, np.ones((1, 5), dtype=np.int64),
                          np.array([1], dtype=np.int64), np.array([7], dtype=np.int64))
        assert listed.labels.dtype == wide.labels.dtype == np.int64
        for g in (listed, wide):
            assert g.X.dtype == g.prices.dtype == g.query_features.dtype == np.float64
        packed = pack_groups([listed, wide])
        assert packed.labels.dtype == np.int8 and list(packed.labels) == [0, 2, 1]
        assert packed.X.dtype == packed.prices.dtype == packed.G.dtype == np.float64
        assert packed.X.tolist() == [[1.0] * 5, [2.0] * 5, [1.0] * 5]
        assert packed.prices.tolist() == [3.0, 4.0, 7.0]

    def test_replace_converts_like_the_constructor(self):
        g = _group(default_schema(), n=2)
        moved = replace(g, labels=[0, 2], prices=[3, 4])
        assert moved.X is g.X and moved.query_id == g.query_id
        assert isinstance(moved.labels, np.ndarray) and list(moved.labels) == [0, 2]
        assert moved.prices.dtype == np.float64 and list(moved.prices) == [3.0, 4.0]

    @pytest.mark.parametrize("k", range(len(_BAD_IDS)), ids=_BAD_IDS)
    def test_constructor_checks_nothing(self, k):
        bad, _ = _bad_groups(default_schema())[k]
        assert isinstance(bad.labels, np.ndarray) and bad.X.dtype == np.float64

    @pytest.mark.parametrize("k", range(len(_BAD_IDS)), ids=_BAD_IDS)
    @pytest.mark.parametrize("consumer", ["pack_groups", "write_dataset", "train", "simulate"])
    def test_bad_block_rejected_by_name(self, tmp_path, consumer, k):
        schema = default_schema()
        bad, message = _bad_groups(schema)[k]
        groups = [_group(schema, qid="a", seed=1), bad, _group(schema, qid="b", seed=2)]
        path = tmp_path / "data.txt"
        model = init_weights(schema, default_assignment(schema), seed=0, init_scale=0.1)
        run = {
            "pack_groups": lambda: pack_groups(groups),
            "write_dataset": lambda: write_dataset(path, groups),
            "train": lambda: train(groups, schema, default_assignment(schema),
                                   ObjectiveConfig(), TrainConfig(epochs=1)),
            "simulate": lambda: simulate(model, groups, ObjectiveConfig()),
        }[consumer]
        with pytest.raises(ValueError, match=message):
            run()
        assert not path.exists()


class TestTake:
    def _reference(self, packed, group_idx):
        """Per-group row ranges, concatenated: what take must equal."""
        rows = np.concatenate(
            [np.arange(packed.offsets[q], packed.offsets[q + 1]) for q in group_idx]
        ) if len(group_idx) else np.zeros(0, dtype=np.int64)
        return rows

    def test_matches_per_group_rows(self):
        schema = default_schema()
        groups = [_group(schema, n=n, qid=f"q{i}", seed=i) for i, n in enumerate((3, 1, 4, 2))]
        packed = pack_groups(groups)
        for idx in ([2, 0, 3], [1], [3, 2, 1, 0], [], [0, 0]):
            sub = packed.take(np.array(idx, dtype=np.int64))
            rows = self._reference(packed, idx)
            assert packed.rows(idx).tolist() == rows.tolist()
            given = packed.take(idx, packed.rows(idx))
            for name in ("X", "labels", "y", "prices", "G", "sizes", "mcounts", "offsets"):
                assert getattr(given, name).tobytes() == getattr(sub, name).tobytes()
            assert given.query_ids == sub.query_ids == tuple(packed.query_ids[q] for q in idx)
            for name in ("X", "labels", "y", "prices"):
                np.testing.assert_array_equal(getattr(sub, name), getattr(packed, name)[rows])
            np.testing.assert_array_equal(sub.G, packed.G[idx])
            np.testing.assert_array_equal(sub.sizes, packed.sizes[idx])
            np.testing.assert_array_equal(sub.mcounts, packed.mcounts[idx])
            assert list(sub.offsets) == [0, *np.cumsum(packed.sizes[idx]).tolist()]
            assert sub.offsets.dtype == np.int64
            assert sub.query_ids == tuple(f"q{q}" for q in idx)


class TestValidateLowPrice:
    @pytest.mark.parametrize("label", [1, 2])
    def test_click_or_purchase_at_price_up_to_one_reported(self, label):
        schema = default_schema()
        g = _group(schema, n=3)
        prices = np.array([5.0, 1.0, 0.5])
        labels = np.array([0, label, label])
        bad = replace(g, labels=labels, prices=prices)
        report = validate_dataset(pack_groups([bad]), schema)
        assert len(report) == 2
        assert "instance 1" in report[0] and "price 1.0 <= 1" in report[0]
        assert "instance 2" in report[1] and "log(price)" in report[1]

    def test_no_behaviour_at_low_price_is_valid(self):
        schema = default_schema()
        g = _group(schema, n=2)
        ok = replace(g, labels=[0, 0], prices=[0.5, 1.0])
        assert validate_dataset(pack_groups([ok]), schema) == []
