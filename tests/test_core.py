from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_ranker.core import (
    Feature,
    FeatureSchema,
    Instance,
    QueryGroup,
    StageAssignment,
    pack_groups,
    stage_costs,
    validate_dataset,
)
from cascade_ranker.datagen import GenConfig, default_assignment, default_schema, generate
from cascade_ranker.trainer import init_weights
import oracle


def _group(schema, n=3, mcount=10, qid="q0", price=5.0, seed=0):
    rng = np.random.default_rng(seed)
    instances = tuple(
        Instance(rng.standard_normal(schema.item_dim), label=int(i == 0), price=price)
        for i in range(n)
    )
    return QueryGroup(qid, schema.query_onehot(mcount), mcount, instances)


class TestFeatureSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            FeatureSchema((Feature("a", 0.1), Feature("a", 0.2)))

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="cost"):
            Feature("a", -0.1)

    def test_query_onehot_bins(self):
        schema = default_schema()
        assert schema.query_feature_dim == 6
        for count, want in [(1, 0), (9, 0), (10, 1), (99, 1), (100, 2),
                            (9_999, 3), (10_000, 4), (99_999, 4), (100_000, 5)]:
            g = schema.query_onehot(count)
            assert g.sum() == 1.0 and g[want] == 1.0

    def test_query_onehot_rejects_zero(self):
        with pytest.raises(ValueError):
            default_schema().query_onehot(0)


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

    def test_summed_left_to_right_in_assignment_order(self):
        # 1 + 1 + 1e16 keeps the small terms; 1 + 1e16 + 1 rounds both away
        schema = FeatureSchema((Feature("a", 1.0), Feature("b", 1e16), Feature("c", 1.0)))
        asg = StageAssignment(((0, 2, 1),))
        assert stage_costs(asg, schema)[0] == 1e16 + 2.0


class TestValidateDataset:
    def test_well_formed_is_clean(self):
        schema = default_schema()
        assert validate_dataset([_group(schema)], schema) == []

    def test_nonpositive_price_named(self):
        schema = default_schema()
        g = _group(schema)
        bad = QueryGroup(g.query_id, g.query_features, g.recalled_count,
                         (g.instances[0], Instance(g.instances[1].item_features, 0, 0.0)))
        report = validate_dataset([bad], schema)
        assert len(report) == 1
        assert "instance 1" in report[0] and "price" in report[0]

    def test_non_one_hot_query_vector(self):
        schema = default_schema()
        g = _group(schema)
        two_hot = np.zeros(schema.query_feature_dim)
        two_hot[0] = two_hot[1] = 1.0
        bad = QueryGroup(g.query_id, two_hot, g.recalled_count, g.instances)
        report = validate_dataset([bad], schema)
        assert len(report) == 1 and "one-hot" in report[0]

    def test_mcount_below_size(self):
        schema = default_schema()
        g = _group(schema, n=3)
        bad = QueryGroup(g.query_id, schema.query_onehot(2), 2, g.instances)
        report = validate_dataset([bad], schema)
        assert any("recalled_count" in v for v in report)

    def test_dimension_mismatch(self):
        schema = default_schema()
        g = QueryGroup("q0", schema.query_onehot(5), 5,
                       (Instance(np.zeros(2), 0, 1.0),))
        report = validate_dataset([g], schema)
        assert any("dim" in v for v in report)

    def test_non_finite_feature(self):
        schema = default_schema()
        x = np.zeros(schema.item_dim)
        x[0] = np.inf
        g = QueryGroup("q0", schema.query_onehot(5), 5, (Instance(x, 0, 1.0),))
        report = validate_dataset([g], schema)
        assert any("non-finite" in v for v in report)


@cache
def _clean_groups(seed):
    return tuple(generate(GenConfig(n_queries=6, group_size_cap=5, seed=seed), default_schema()))


_CORRUPTIONS = ("feature", "price", "query", "recalled", "dim", "empty")


@st.composite
def _corrupted_groups(draw):
    """Generated groups, each with up to three kinds of corruption."""
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
                prices[r] = draw(st.sampled_from([0.0, -2.5, np.nan, 1e-300, 0.5, 1.0]))
                labels[r] = draw(st.integers(0, 2))
        if "query" in kinds:
            dq = query.shape[0]
            query = draw(st.sampled_from([
                np.zeros(dq), np.ones(dq), 2.0 * query, np.append(query, 0.0), query[:-1],
                np.where(query > 0, np.nan, 0.0), query.reshape(1, dq),
            ]))
        if "recalled" in kinds:
            recalled = draw(st.integers(1, g.size))
        if "dim" in kinds:
            X = draw(st.sampled_from([X[:, :-1], np.hstack([X, X[:, :1]])]))
        if "empty" in kinds and draw(st.booleans()):
            groups.append(QueryGroup(g.query_id, query, recalled, ()))
            continue
        if "empty" in kinds:
            X, labels, prices = X[:0], labels[:0], prices[:0]
        groups.append(QueryGroup.from_columns(g.query_id, query, recalled, X, labels, prices))
    return groups


class TestValidateAgainstOracle:
    @given(_corrupted_groups())
    @settings(max_examples=200, deadline=None)
    def test_same_violations_in_same_order(self, groups):
        schema = default_schema()
        assert validate_dataset(groups, schema) == oracle.validate_dataset(groups, schema)

    def test_no_groups(self):
        assert validate_dataset([], default_schema()) == []


class TestModelWeights:
    def test_flat_roundtrip(self):
        schema = default_schema()
        asg = default_assignment(schema)
        model = init_weights(schema, asg, seed=3, init_scale=0.7)
        w = model.flat_weights()
        back = model.with_flat_weights(w)
        for j in range(model.n_stages):
            np.testing.assert_array_equal(back.stage_item_weights[j], model.stage_item_weights[j])
            np.testing.assert_array_equal(back.stage_query_weights[j], model.stage_query_weights[j])

    def test_wrong_flat_length(self):
        schema = default_schema()
        model = init_weights(schema, default_assignment(schema), 0, 0.1)
        with pytest.raises(ValueError, match="length"):
            model.with_flat_weights(np.zeros(model.n_weights + 1))

    def test_non_finite_weights_rejected(self):
        schema = default_schema()
        model = init_weights(schema, default_assignment(schema), 0, 0.1)
        w = model.flat_weights()
        w[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            model.with_flat_weights(w)


class TestPacking:
    def test_row_order_and_offsets(self):
        schema = default_schema()
        groups = [_group(schema, n=2, qid="a", seed=1), _group(schema, n=3, qid="b", seed=2)]
        packed = pack_groups(groups)
        assert packed.n_instances == 5 and packed.n_groups == 2
        assert list(packed.offsets) == [0, 2, 5]
        np.testing.assert_array_equal(packed.X[2], groups[1].instances[0].item_features)
        assert packed.query_ids == ("a", "b")

    def test_empty(self):
        packed = pack_groups([])
        assert packed.n_instances == 0 and packed.n_groups == 0

    def test_empty_group_rejected_with_query_id(self):
        schema = default_schema()
        empty = QueryGroup("q-empty", schema.query_onehot(4), 4, ())
        with pytest.raises(ValueError, match="q-empty"):
            pack_groups([_group(schema, qid="a"), empty, _group(schema, qid="b")])

    def test_concatenates_column_blocks(self):
        schema = default_schema()
        groups = [_group(schema, n=2, qid="a", seed=1), _group(schema, n=3, qid="b", seed=2)]
        packed = pack_groups(groups)
        np.testing.assert_array_equal(packed.X, np.concatenate([g.X for g in groups]))
        assert packed.labels.dtype == np.int8 and list(packed.labels) == [1, 0, 1, 0, 0]
        assert packed.X.dtype == packed.prices.dtype == np.float64


class TestQueryGroupColumns:
    def test_instances_and_columns_agree(self):
        schema = default_schema()
        g = _group(schema, n=4, price=3.5)
        assert g.X.shape == (4, schema.item_dim) and g.size == 4
        assert g.labels.dtype == np.int8 and list(g.labels) == [1, 0, 0, 0]
        back = QueryGroup.from_columns(g.query_id, g.query_features, g.recalled_count,
                                       g.X, g.labels, g.prices)
        for a, b in zip(g.instances, back.instances):
            np.testing.assert_array_equal(a.item_features, b.item_features)
            assert (a.label, a.price) == (b.label, b.price) == (a.label, 3.5)

    def test_from_columns_keeps_float64_arrays(self):
        schema = default_schema()
        X = np.ones((2, schema.item_dim))
        prices = np.array([2.0, 3.0])
        g = QueryGroup.from_columns("q", schema.query_onehot(5), 5, X, [0, 2], prices)
        assert g.X is X and g.prices is prices

    @pytest.mark.parametrize("labels", [[0, 3], [-1, 0], [0.0, 1.0]])
    def test_from_columns_rejects_bad_labels(self, labels):
        schema = default_schema()
        with pytest.raises(ValueError, match="group q: labels"):
            QueryGroup.from_columns("q", schema.query_onehot(5), 5,
                                    np.zeros((2, schema.item_dim)), labels, [2.0, 2.0])

    def test_from_columns_rejects_ragged_block(self):
        schema = default_schema()
        with pytest.raises(ValueError, match="group q: .*one block"):
            QueryGroup.from_columns("q", schema.query_onehot(5), 5,
                                    np.zeros((3, schema.item_dim)), [0, 1], [2.0, 2.0])

    def test_instances_of_different_dims_rejected(self):
        schema = default_schema()
        with pytest.raises(ValueError, match="group q: instances have different"):
            QueryGroup("q", schema.query_onehot(5), 5,
                       (Instance(np.zeros(2)), Instance(np.zeros(3))))


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
        bad = QueryGroup.from_columns(g.query_id, g.query_features, g.recalled_count,
                                      g.X, labels, prices)
        report = validate_dataset([bad], schema)
        assert len(report) == 2
        assert "instance 1" in report[0] and "price 1.0 <= 1" in report[0]
        assert "instance 2" in report[1] and "log(price)" in report[1]

    def test_no_behaviour_at_low_price_is_valid(self):
        schema = default_schema()
        g = _group(schema, n=2)
        ok = QueryGroup.from_columns(g.query_id, g.query_features, g.recalled_count,
                                     g.X, [0, 0], [0.5, 1.0])
        assert validate_dataset([ok], schema) == []
