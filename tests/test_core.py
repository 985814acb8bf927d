import numpy as np
import pytest

from cascade_ranker.core import (
    Feature,
    FeatureSchema,
    Instance,
    QueryGroup,
    StageAssignment,
    pack_groups,
    stage_cost,
    stage_costs,
    validate_dataset,
)
from cascade_ranker.datagen import default_assignment, default_schema
from cascade_ranker.trainer import init_weights


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
            stage_cost(asg, schema, 1)


class TestStageCost:
    def test_single_cheap_feature(self):
        schema = default_schema()
        asg = StageAssignment(((schema.feature_index("sales_volume"),),))
        assert stage_cost(asg, schema, 1) == pytest.approx(0.02)

    def test_expensive_pair(self):
        schema = default_schema()
        asg = StageAssignment((
            (schema.feature_index("relevance_score"), schema.feature_index("deep_wide_score")),
        ))
        assert stage_cost(asg, schema, 1) == pytest.approx(1.58)

    def test_out_of_range_stage(self):
        schema = default_schema()
        asg = default_assignment(schema)
        with pytest.raises(ValueError, match="out of range"):
            stage_cost(asg, schema, 0)
        with pytest.raises(ValueError, match="out of range"):
            stage_cost(asg, schema, 4)

    def test_additive_over_disjoint_sets(self):
        schema = default_schema()
        asg = default_assignment(schema)
        merged = StageAssignment((tuple(i for s in asg.stages for i in s),))
        total = sum(stage_cost(asg, schema, j) for j in range(1, asg.n_stages + 1))
        assert total == pytest.approx(stage_cost(merged, schema, 1))

    def test_full_partition_matches_single_stage_all(self):
        schema = default_schema()
        asg = default_assignment(schema)
        assert stage_costs(asg, schema).sum() == pytest.approx(schema.costs().sum())

    def test_summed_left_to_right_in_assignment_order(self):
        # 1 + 1 + 1e16 keeps the small terms; 1 + 1e16 + 1 rounds both away
        schema = FeatureSchema((Feature("a", 1.0), Feature("b", 1e16), Feature("c", 1.0)))
        asg = StageAssignment(((0, 2, 1),))
        assert stage_costs(asg, schema)[0] == 1e16 + 2.0
        assert stage_cost(asg, schema, 1) == 1e16 + 2.0


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
