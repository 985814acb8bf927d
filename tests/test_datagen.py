import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import special

from cascade_ranker import datagen
from cascade_ranker.core import PackedDataset, QueryGroup, pack_groups, validate_dataset
from cascade_ranker.datagen import (
    DatasetFormatError,
    FeatureQuality,
    GenConfig,
    default_assignment,
    default_schema,
    generate,
    read_dataset,
    write_dataset,
)
from cascade_ranker.objective import ObjectiveConfig
from cascade_ranker.trainer import TrainConfig, train
from groups import edge_groups
import oracle
from oracle import auc, ulp_distance


class TestGenConfigValidation:
    def test_bad_positives_ratio(self):
        with pytest.raises(ValueError, match="positives_ratio"):
            GenConfig(positives_ratio=1.5)

    def test_bad_mcount_range(self):
        with pytest.raises(ValueError, match="mcount"):
            GenConfig(tail_mcount_range=(10, 5))

    def test_price_floor_must_exceed_one(self):
        with pytest.raises(ValueError, match="price_floor"):
            GenConfig(price_floor=0.9)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_price_sigma_log_must_be_positive(self, sigma):
        message = rf"^price_sigma_log must be in \(0, inf\), got {sigma}$"
        with pytest.raises(ValueError, match=message):
            GenConfig(price_sigma_log=sigma)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [
        "head_fraction", "positives_ratio", "label_noise", "purchase_fraction_of_positives",
        "purchase_price_tilt", "price_mean_log", "price_sigma_log", "price_floor",
    ])
    def test_every_float_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            GenConfig(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["signal_strength", "noise", "price_strength"])
    def test_feature_quality_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            FeatureQuality(**{"signal_strength": 1.0, name: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be in \[0, inf\), got -1$"):
            GenConfig(seed=-1)

    def test_label_noise_bound_is_the_root_of_the_largest_float(self):
        bound = math.sqrt(np.finfo(np.float64).max)
        assert GenConfig(label_noise=-bound).label_noise ** 2 < math.inf
        with pytest.raises(ValueError, match="where its square stays finite"):
            GenConfig(label_noise=float(np.nextafter(bound, math.inf)))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_price_draw_named(self):
        with pytest.raises(ValueError, match=r"^price_mean_log 800.0 and price_sigma_log 0.8 "
                                             r"draw a price whose z-score overflows to inf$"):
            generate(GenConfig(n_queries=3, price_mean_log=800.0), default_schema())

    @pytest.mark.filterwarnings("error")
    def test_overflowing_price_z_score_named(self):
        # every price is finite, but (log(price) - price_mean_log) / price_sigma_log is not
        with pytest.raises(ValueError, match=r"^price_mean_log -1.5e\+308 and price_sigma_log "
                                             r"0.8 draw a price whose z-score overflows to inf$"):
            generate(GenConfig(n_queries=3, price_mean_log=-1.5e308), default_schema())

    def test_quality_length_must_match_schema(self):
        cfg = GenConfig(feature_quality=(FeatureQuality(1.0),))
        with pytest.raises(ValueError, match="feature_quality"):
            generate(cfg, default_schema())


class TestLabelThreshold:
    @given(st.floats(1e-10, 1 - 1e-10))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_scipy(self, q):
        # p = 1 - q makes 1 - p exact, so ndtri sees the complement unrounded
        p = 1.0 - q
        threshold = GenConfig(positives_ratio=p, label_noise=0.0).label_threshold
        assert ulp_distance(threshold, special.ndtri(1.0 - p)) <= 8

    def test_scales_by_the_mixture_sd(self):
        unit = GenConfig(label_noise=0.0).label_threshold
        assert GenConfig(label_noise=0.75).label_threshold == unit * 1.25

    @pytest.mark.parametrize("p", [5e-324, 1e-17])
    def test_finite_where_one_minus_p_rounds_to_one(self, p):
        # ndtri(1 - p) and inv_cdf(1 - p) see 1.0 here: inf, or an error
        cfg = GenConfig(n_queries=30, positives_ratio=p, seed=2)
        assert 8.0 < cfg.label_threshold < math.inf
        assert not pack_groups(generate(cfg, default_schema())).y.any()


class TestGenerate:
    def test_default_positive_fraction_near_one_in_ten(self):
        schema = default_schema()
        groups = generate(GenConfig(), schema)
        packed = pack_groups(groups)
        frac = packed.y.mean()
        assert 0.07 <= frac <= 0.13

    def test_deterministic_and_bitwise_identical_files(self, tmp_path):
        schema = default_schema()
        cfg = GenConfig(n_queries=50, seed=123)
        a, b = generate(cfg, schema), generate(cfg, schema)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        write_dataset(pa, a)
        write_dataset(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_passes_validation(self):
        schema = default_schema()
        groups = generate(GenConfig(n_queries=100, seed=5), schema)
        assert validate_dataset(pack_groups(groups), schema) == []

    def test_no_signal_gives_chance_auc(self):
        schema = default_schema()
        quality = tuple(FeatureQuality(0.0, 1.0, 0.0) for _ in range(5))
        cfg = GenConfig(n_queries=300, seed=9, feature_quality=quality)
        groups = generate(cfg, schema)
        obj = ObjectiveConfig(beta=0.0, delta=0.0, latency_penalty_weight=0.0)
        model, log = train(groups, schema, default_assignment(schema), obj,
                           TrainConfig(objective="l1", epochs=10, seed=3))
        assert abs(log.records[-1].auc - 0.5) <= 0.03

    def test_single_feature_auc_follows_signal_strength(self):
        schema = default_schema()
        groups = generate(GenConfig(n_queries=800, seed=11), schema)
        packed = pack_groups(groups)
        aucs = [auc(list(zip(packed.X[:, k], packed.y))) for k in range(5)]
        # configured signal strengths increase with feature index
        assert all(a < b for a, b in zip(aucs, aucs[1:])), aucs

    def test_purchases_price_correlated(self):
        schema = default_schema()
        groups = generate(GenConfig(n_queries=800, seed=13), schema)
        packed = pack_groups(groups)
        purchase_prices = packed.prices[packed.labels == 2]
        click_prices = packed.prices[packed.labels == 1]
        assert np.median(purchase_prices) > np.median(click_prices)

    def test_head_tail_mcount_ranges(self):
        cfg = GenConfig(n_queries=200, seed=17)
        groups = generate(cfg, default_schema())
        ms = np.array([g.recalled_count for g in groups])
        assert ms.min() >= cfg.tail_mcount_range[0]
        assert ms.max() <= cfg.head_mcount_range[1]
        assert np.any(ms >= cfg.head_mcount_range[0])  # some head queries exist


@st.composite
def _gen_configs(draw):
    """Configs that reach every branch of the generator's draws: head
    fractions 0, 0.5 and 1, purchase fractions 0, 0.1 and 1, ranges with
    equal ends, caps from 1 up, and features without noise."""
    def mcount_range():
        lo = draw(st.integers(1, 3000))
        return (lo, lo) if draw(st.booleans()) else (lo, lo + draw(st.integers(1, 50_000)))

    quality = tuple(
        FeatureQuality(draw(st.sampled_from([0.0, 0.4, 1.2])), draw(st.sampled_from([0.0, 1.0])),
                       draw(st.sampled_from([0.0, -0.1, 0.3])))
        for _ in range(default_schema().item_dim)
    )
    return GenConfig(
        n_queries=draw(st.integers(1, 600)),
        head_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        head_mcount_range=mcount_range(),
        tail_mcount_range=mcount_range(),
        group_size_cap=draw(st.integers(1, 30)),
        purchase_fraction_of_positives=draw(st.sampled_from([0.0, 0.1, 1.0])),
        feature_quality=quality,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestGenerateMatchesReference:
    @pytest.mark.parametrize("block", [1, 3, datagen.GEN_BLOCK_QUERIES])
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=_gen_configs())
    def test_same_packed_fields_bit_for_bit(self, monkeypatch, block, cfg):
        # the reference draws and computes one query at a time
        monkeypatch.setattr(datagen, "GEN_BLOCK_QUERIES", block)
        schema = default_schema()
        _assert_packed_identical(pack_groups(generate(cfg, schema)),
                                 pack_groups(oracle.generate(cfg, schema)))


class TestDatasetFileFormat:
    def test_roundtrip_equality(self, tmp_path):
        schema = default_schema()
        groups = generate(GenConfig(n_queries=30, seed=3), schema)
        path = tmp_path / "data.txt"
        write_dataset(path, groups)
        back = read_dataset(path, schema)
        assert len(back) == len(groups)
        for g, h in zip(groups, back):
            assert g.query_id == h.query_id
            assert g.recalled_count == h.recalled_count
            np.testing.assert_array_equal(g.query_features, h.query_features)
            np.testing.assert_array_equal(g.X, h.X)
            np.testing.assert_array_equal(g.labels, h.labels)
            np.testing.assert_array_equal(g.prices, h.prices)

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        data = read_dataset(path, default_schema())
        assert isinstance(data, PackedDataset)
        assert len(data) == data.n_instances == 0 and list(data) == []

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("qid:q0 mcount:5 label:3 price:2.0 0:1.0\n")
        with pytest.raises(DatasetFormatError, match="line 1.*label"):
            read_dataset(path, default_schema())

    def test_malformed_feature_entry(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("qid:q0 mcount:5 label:1 price:2.0 zero:1.0\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            read_dataset(path, default_schema())

    def test_feature_index_outside_schema(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("qid:q0 mcount:5 label:1 price:2.0 9:1.0\n")
        with pytest.raises(DatasetFormatError, match="outside schema"):
            read_dataset(path, default_schema())

    def test_noncontiguous_qid_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "qid:a mcount:5 label:0 price:2.0 0:1.0\n"
            "qid:b mcount:5 label:0 price:2.0 0:1.0\n"
            "qid:a mcount:5 label:0 price:2.0 0:1.0\n"
        )
        with pytest.raises(DatasetFormatError, match="line 3.*contiguous"):
            read_dataset(path, default_schema())

    def test_inconsistent_mcount_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "qid:a mcount:5 label:0 price:2.0 0:1.0\n"
            "qid:a mcount:6 label:0 price:2.0 0:1.0\n"
        )
        with pytest.raises(DatasetFormatError, match="line 2.*mcount"):
            read_dataset(path, default_schema())

    def test_missing_prefix_field(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("qid:a label:0 price:2.0\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            read_dataset(path, default_schema())

    def test_omitted_features_read_as_zero(self, tmp_path):
        path = tmp_path / "sparse.txt"
        path.write_text("qid:a mcount:5 label:0 price:2.0 2:1.5\n")
        (group,) = read_dataset(path, default_schema())
        np.testing.assert_array_equal(group.X, [[0.0, 0.0, 1.5, 0.0, 0.0]])

    def test_repeated_feature_index_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "qid:a mcount:5 label:0 price:2.0 0:1.0 1:2.0\n"
            "qid:a mcount:5 label:0 price:2.0 1:1.0 3:2.0 1:3.0\n"
        )
        with pytest.raises(DatasetFormatError, match="line 2: feature index 1 appears twice"):
            read_dataset(path, default_schema())

    def test_non_canonical_prefix_order_accepted(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("price:2.5 label:1 qid:a mcount:7 01:1.5\n")
        (g,) = read_dataset(path, default_schema())
        assert (g.query_id, g.recalled_count, g.size) == ("a", 7, 1)
        assert g.labels[0] == 1 and g.prices[0] == 2.5 and g.X[0, 1] == 1.5

    def test_first_bad_line_reported(self, tmp_path, monkeypatch):
        # a qid that reappears on line 3 is reported before the bad entry on
        # line 4, whichever chunk either falls in
        path = tmp_path / "bad.txt"
        path.write_text(
            "qid:a mcount:5 label:0 price:2.0 0:1.0\n"
            "qid:b mcount:5 label:0 price:2.0 0:1.0\n"
            "qid:a mcount:5 label:0 price:2.0 0:1.0\n"
            "qid:c mcount:5 label:0 price:2.0 zero:1.0\n"
        )
        for chunk in (1, 2, 3, 4096):
            monkeypatch.setattr(datagen, "READ_CHUNK_LINES", chunk)
            with pytest.raises(DatasetFormatError, match="line 3.*contiguous"):
                read_dataset(path, default_schema())

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"qid:a mcount:5 label:0 price:2.0 0:1.0\n"
                         b"qid:a mcount:5 label:0 price:2.0 0:1.0 1:\xff\n")
        with pytest.raises(DatasetFormatError, match=r"^line 2: not UTF-8 text \(.*0xff"):
            read_dataset(path, default_schema())

    def test_non_utf8_byte_past_the_first_chunk_names_its_line(self, tmp_path):
        # the text decoder reads 8 KB at a time and the reader READ_CHUNK_LINES
        # lines, so neither position is the line's
        schema = default_schema()
        path = tmp_path / "data.txt"
        write_dataset(path, generate(GenConfig(n_queries=600, seed=2), schema))
        lines = path.read_bytes().splitlines(keepends=True)
        bad = datagen.READ_CHUNK_LINES + 37              # 0-based
        assert len(lines) > bad + 1 and len(b"".join(lines[:bad])) > 8192
        lines[bad] = lines[bad].replace(b"price:", b"price:\xc3(", 1)
        path.write_bytes(b"".join(lines))
        with pytest.raises(DatasetFormatError, match=rf"^line {bad + 1}: not UTF-8 text \("):
            read_dataset(path, schema)

    @pytest.mark.parametrize("chunk", [1, 2, 7, 4096])
    def test_queries_straddling_chunks(self, tmp_path, monkeypatch, chunk):
        # the sparse file is written by the reference writer, which omits
        # zero features: the lines of two queries lack one, so only some
        # chunks are dense
        schema = default_schema()
        dense = generate(GenConfig(n_queries=12, group_size_cap=5, seed=4), schema)
        sparse = [replace(g, X=np.where(np.arange(5) == 2, 0.0, g.X)) if i in (3, 8) else g
                  for i, g in enumerate(dense)]
        monkeypatch.setattr(datagen, "READ_CHUNK_LINES", chunk)
        for groups, write in ((dense, write_dataset), (sparse, oracle.write_dataset)):
            path = tmp_path / "data.txt"
            write(path, groups)
            with monkeypatch.context() as mp:
                calls = _count_parsers(mp)
                back = read_dataset(path, schema)
            _assert_packed_identical(pack_groups(back), pack_groups(groups))
            n_lines = len(path.read_text().splitlines())
            assert calls["dense"] + calls["lines"] == -(-n_lines // chunk)
            if groups is dense:
                assert calls["lines"] == 0
            elif chunk < n_lines:
                assert calls["dense"] > 0 and calls["lines"] > 0
            else:
                assert calls["dense"] == 0


def _count_parsers(monkeypatch) -> dict[str, int]:
    """Count the chunks the dense parser accepts and the chunks parsed line
    by line, until ``monkeypatch`` is undone."""
    calls = {"dense": 0, "lines": 0}
    parse_dense, parse_lines = datagen._parse_dense, datagen._parse_lines

    def counted_dense(chunk, d, pos):
        block = parse_dense(chunk, d, pos)
        calls["dense"] += block is not None
        return block

    def counted_lines(chunk, d, pos):
        calls["lines"] += 1
        return parse_lines(chunk, d, pos)

    monkeypatch.setattr(datagen, "_parse_dense", counted_dense)
    monkeypatch.setattr(datagen, "_parse_lines", counted_lines)
    return calls


def _dense_line(qid="q0", mcount="5", label="1", price="3.5", values=("1",) * 5):
    return (f"qid:{qid} mcount:{mcount} label:{label} price:{price} "
            + " ".join(f"{k}:{v}" for k, v in enumerate(values)) + "\n")


def _read_outcome(path, schema):
    """What ``read_dataset`` gives for ``path``: the error message, or each
    group's fields as bytes."""
    try:
        groups = read_dataset(path, schema)
    except DatasetFormatError as exc:
        return str(exc)
    return [(g.query_id, type(g.recalled_count), g.recalled_count, g.query_features.tobytes(),
             g.X.tobytes(), g.labels.dtype, g.labels.tobytes(), g.prices.tobytes())
            for g in groups]


def _line_parser_outcome(path, schema):
    """``_read_outcome`` with every chunk parsed line by line."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datagen, "_parse_dense", lambda chunk, d, pos: None)
        return _read_outcome(path, schema)


class TestPackedResult:
    """``generate`` and ``read_dataset`` return the PackedDataset they build:
    ``pack_groups`` passes it through, and its groups are views of its rows.
    (The CLI's rejection of a dataset of no queries is
    ``test_cli.py::TestDatasetValidation::test_dataset_without_queries_exits_1``.)"""

    @pytest.fixture
    def sources(self, tmp_path):
        schema = default_schema()
        generated = generate(GenConfig(n_queries=30, seed=3), schema)
        write_dataset(tmp_path / "data.txt", generated)
        return {"generate": generated, "read": read_dataset(tmp_path / "data.txt", schema)}

    @pytest.mark.parametrize("source", ["generate", "read"])
    def test_pack_groups_returns_it(self, sources, source):
        data = sources[source]
        assert isinstance(data, PackedDataset) and pack_groups(data) is data

    @pytest.mark.parametrize("source", ["generate", "read"])
    def test_groups_are_views_of_its_rows(self, sources, source):
        packed = sources[source]
        groups = list(packed)
        assert len(groups) == len(packed) == 30
        for q, g in enumerate(groups):
            rows = slice(packed.offsets[q], packed.offsets[q + 1])
            assert type(g) is QueryGroup and type(g.recalled_count) is int
            assert (g.query_id, g.recalled_count) == (packed.query_ids[q], packed.mcounts[q])
            for view, column, own in ((g.X, packed.X, packed.X[rows]),
                                      (g.labels, packed.labels, packed.labels[rows]),
                                      (g.prices, packed.prices, packed.prices[rows]),
                                      (g.query_features, packed.G, packed.G[q])):
                assert np.shares_memory(view, column)
                assert view.dtype == own.dtype and view.shape == own.shape
                assert view.tobytes() == own.tobytes()

    @pytest.mark.parametrize("source", ["generate", "read"])
    def test_packing_its_groups_gives_it_bit_for_bit(self, sources, source):
        _assert_packed_identical(pack_groups(list(sources[source])), sources[source])


class TestDenseFastPath:
    def test_generated_file_is_read_densely(self, tmp_path, monkeypatch):
        schema = default_schema()
        groups = generate(GenConfig(n_queries=300, seed=8), schema)
        path = tmp_path / "data.txt"
        write_dataset(path, groups)
        path.write_text(path.read_text()[:-1])    # the last line without its line end
        monkeypatch.setattr(datagen, "READ_CHUNK_LINES", 512)
        calls = _count_parsers(monkeypatch)
        _assert_packed_identical(pack_groups(read_dataset(path, schema)), pack_groups(groups))
        assert calls["lines"] == 0 and calls["dense"] > 1

    @pytest.mark.parametrize("line, message", [
        (_dense_line(price="\t3.5"), "line 2: expected 'qid: mcount: label: price:' prefix "
                                      "(could not convert string to float: '')"),
        (_dense_line(values=("\x0b1", "1", "1", "1", "1")),
         "line 2: malformed feature entry '0:'"),
        (_dense_line(label="\x0c1"), "line 2: expected 'qid: mcount: label: price:' prefix "
                                      "(dictionary update sequence element #3 has length 1; "
                                      "2 is required)"),
    ])
    def test_whitespace_next_to_a_colon_rejected(self, tmp_path, line, message):
        # np.loadtxt strips tab, VT and FF around a field; the per-line
        # parser splits on them and finds an empty value
        path = tmp_path / "bad.txt"
        path.write_text(_dense_line() + line, newline="")
        with pytest.raises(DatasetFormatError) as exc:
            read_dataset(path, default_schema())
        assert str(exc.value) == message == _line_parser_outcome(path, default_schema())

    @pytest.mark.parametrize("chunk", [1, 2, 4096])
    @pytest.mark.parametrize("lines, message", [
        ([_dense_line(), _dense_line(label="3")], "line 2: label must be 0, 1 or 2, got 3"),
        ([_dense_line(mcount="0")], "line 1: mcount must be >= 1, got 0"),
        ([_dense_line(), _dense_line(mcount="6")], "line 2: mcount 6 differs within qid 'q0'"),
        ([_dense_line(), _dense_line("q1"), _dense_line()],
         "line 3: qid 'q0' reappears; lines per qid must be contiguous"),
        ([_dense_line(), _dense_line("q1"), _dense_line("q1", values=("1",) * 6)],
         "line 3: feature index 5 outside schema 0..4"),
    ])
    def test_dense_line_errors_name_the_line(self, tmp_path, monkeypatch, lines, message, chunk):
        path = tmp_path / "bad.txt"
        path.write_text("".join(lines))
        monkeypatch.setattr(datagen, "READ_CHUNK_LINES", chunk)
        with pytest.raises(DatasetFormatError) as exc:
            read_dataset(path, default_schema())
        assert str(exc.value) == message

    @pytest.mark.parametrize("chunk", [1, 4096])
    @pytest.mark.parametrize("mcount", ["99999999999999999999", str(2**63)])
    def test_mcount_above_int64_names_the_line(self, tmp_path, monkeypatch, chunk, mcount):
        path = tmp_path / "bad.txt"
        path.write_text(_dense_line(mcount=mcount) * 2)
        monkeypatch.setattr(datagen, "READ_CHUNK_LINES", chunk)
        with pytest.raises(DatasetFormatError) as exc:
            read_dataset(path, default_schema())
        assert str(exc.value) == f"line 1: mcount must be <= 2**63 - 1, got {mcount}"

    @pytest.mark.parametrize("chunk", [1, 4096])
    def test_largest_int64_mcount_packs(self, tmp_path, monkeypatch, chunk):
        path = tmp_path / "data.txt"
        path.write_text(_dense_line(mcount=str(2**63 - 1)) * 2)
        monkeypatch.setattr(datagen, "READ_CHUNK_LINES", chunk)
        assert pack_groups(read_dataset(path, default_schema())).mcounts.tolist() == [2**63 - 1]

    def test_dense_values_parse_as_float_does(self, tmp_path):
        values = ("nan", "-inf", "1e400", "-0", "+1", "4.9e-324", "0.1", "1e-400", "00", ".5")
        lines = [_dense_line(label="+1", mcount="007", values=values[i:i + 5]) for i in range(6)]
        path = tmp_path / "data.txt"
        path.write_text("".join(lines))
        X = np.array([[float(v) for v in values[i:i + 5]] for i in range(6)])
        (g,) = read_dataset(path, default_schema())
        assert g.X.tobytes() == X.tobytes()
        assert (g.recalled_count, g.labels.tolist()) == (7, [1] * 6)


_TAG_TOKENS = ["qid", "mcount", "label", "price", "0", "4", "5", "00", "QID", "mcounts", "", "q0"]
_VALUE_TOKENS = ["0", "1", "2", "3", "-1", "+1", "1.0", "00", "1_0", "nan", "-nan", "1e400",
                 "-0", "inf", "", "0x1", "99999999999999999999", "q0", "q1", "a:b", "2.5"]
_SEPARATORS = [" ", "  ", "\t", "\x0b", "\x0c", "\r", "\x1c", "\x85", "\xa0", ":", "\n", "",
               " \n "]


@st.composite
def _mutated_dense_text(draw):
    """Dense lines of a few queries after a few mutations: a field's tag or
    value replaced, a separator replaced, a field dropped, added or moved,
    or a line given another line's qid; then blank lines inserted, and the
    last line end dropped or kept."""
    lines = []
    for q in range(draw(st.integers(1, 3))):
        mcount = str(draw(st.integers(1, 30)))
        for _ in range(draw(st.integers(1, 3))):
            # distinct values, so that values in the wrong columns show
            values = draw(st.lists(st.floats(allow_subnormal=True).map(repr)
                                   | st.sampled_from(_VALUE_TOKENS[:4]),
                                   min_size=5, max_size=5, unique=True))
            fields = [["qid", f"q{q}"], ["mcount", mcount],
                      ["label", str(draw(st.integers(0, 2)))], ["price", "2.5"]]
            lines.append(fields + [[str(k), v] for k, v in enumerate(values)])
    seps = [[" "] * (len(fields) - 1) + ["\n"] for fields in lines]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i]
        j = draw(st.integers(0, len(fields) - 1))
        kind = draw(st.sampled_from(["tag", "value", "sep", "drop", "add", "move", "qid"]))
        if kind == "tag":
            fields[j][0] = draw(st.sampled_from(_TAG_TOKENS))
        elif kind == "value":
            fields[j][1] = draw(st.sampled_from(_VALUE_TOKENS))
        elif kind == "sep":
            seps[i][j] = draw(st.sampled_from(_SEPARATORS))
        elif kind == "drop" and len(fields) > 1:
            del fields[j], seps[i][min(j, len(seps[i]) - 2)]
        elif kind == "add":
            fields.insert(j, [draw(st.sampled_from(_TAG_TOKENS)),
                              draw(st.sampled_from(_VALUE_TOKENS))])
            seps[i].insert(j, " ")
        elif kind == "move":
            fields.insert(draw(st.integers(0, len(fields) - 1)), fields.pop(j))
        elif kind == "qid":
            fields[0][1] = lines[draw(st.integers(0, len(lines) - 1))][0][1]
    text = ["".join(f"{tag}:{value}{sep}" for (tag, value), sep in zip(fields, line_seps))
            for fields, line_seps in zip(lines, seps)]
    for _ in range(draw(st.integers(0, 2))):
        text.insert(draw(st.integers(0, len(text))), draw(st.sampled_from(["\n", " \n", "\t\n"])))
    text = "".join(text)
    return text[:-1] if draw(st.booleans()) else text


class TestDensePathAgreesWithLineParser:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_mutated_dense_text(), chunk=st.sampled_from([1, 2, 3, 4096]))
    def test_same_fields_or_same_message(self, tmp_path, monkeypatch, text, chunk):
        path = tmp_path / "data.txt"
        path.write_bytes(text.encode("utf-8"))
        monkeypatch.setattr(datagen, "READ_CHUNK_LINES", chunk)
        schema = default_schema()
        assert _read_outcome(path, schema) == _line_parser_outcome(path, schema)


def _assert_packed_identical(a, b):
    assert a.query_ids == b.query_ids
    for name in ("X", "labels", "y", "prices", "G", "sizes", "mcounts", "offsets"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        # bit for bit: -0.0 and +0.0 differ, NaN equals NaN
        assert x.tobytes() == y.tobytes(), name


_feature_value = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)


@st.composite
def _groups(draw):
    schema = default_schema()
    d = schema.item_dim
    qids = draw(st.lists(
        st.text(alphabet="abcxyz0123456789_-.:%", min_size=1, max_size=6),
        min_size=1, max_size=6, unique=True,
    ))
    groups = []
    for qid in qids:
        n = draw(st.integers(1, 4))
        mcount = draw(st.integers(n, 200_000))
        X = np.array(draw(st.lists(
            st.lists(_feature_value, min_size=d, max_size=d), min_size=n, max_size=n,
        )), dtype=np.float64)
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        prices = draw(st.lists(
            st.floats(min_value=1e-3, max_value=1e6, allow_subnormal=False),
            min_size=n, max_size=n,
        ))
        groups.append(QueryGroup(qid, schema.query_onehots([mcount])[0], mcount, X, labels, prices))
    return groups


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(groups=_groups(), blank_every=st.integers(0, 3), crlf=st.booleans(),
           chunk=st.sampled_from([1, 3, 4096]))
    def test_write_read_pack_is_bit_exact(self, tmp_path, monkeypatch, groups,
                                         blank_every, crlf, chunk):
        schema = default_schema()
        path = tmp_path / "data.txt"
        write_dataset(path, groups)
        lines = path.read_text(encoding="utf-8").splitlines()
        if blank_every:
            # blank and whitespace-only lines between and around the records
            lines = [x for i, line in enumerate(lines)
                     for x in ((line, "  ") if i % blank_every == 0 else (line,))]
            lines.insert(0, "")
        eol = "\r\n" if crlf else "\n"
        path.write_bytes(eol.join(lines).encode("utf-8") + eol.encode())
        monkeypatch.setattr(datagen, "READ_CHUNK_LINES", chunk)
        back = pack_groups(read_dataset(path, schema))
        _assert_packed_identical(back, pack_groups(groups))

    def test_negative_zero_reads_back_as_negative_zero(self, tmp_path):
        schema = default_schema()
        X = np.array([[-0.0, 1.0, 0.0, -2.5, -0.0]])
        g = QueryGroup("q", schema.query_onehots([3])[0], 3, X, [1], [2.0])
        path = tmp_path / "data.txt"
        write_dataset(path, [g])
        assert path.read_text() == "qid:q mcount:3 label:1 price:2 0:-0 1:1 2:0 3:-2.5 4:-0\n"
        (back,) = read_dataset(path, schema)
        assert back.X.tobytes() == X.tobytes()


class TestDenseWriteMatchesLineWriter:
    """``write_dataset`` writes each query's lines in one format call; the
    reference writes them one line and one feature at a time."""

    @staticmethod
    def _same_bytes(tmp_path, groups):
        fast, slow, packed = (tmp_path / name for name in ("fast.txt", "slow.txt", "packed.txt"))
        write_dataset(fast, groups)
        write_dataset(packed, pack_groups(groups))
        oracle.write_dataset(slow, groups, every_index=True)
        assert fast.read_bytes() == slow.read_bytes() == packed.read_bytes()

    def test_edge_groups(self, tmp_path):
        groups = edge_groups(default_schema())
        assert [bool(g.X.all()) for g in groups] == [True, False, False, True]
        self._same_bytes(tmp_path, groups)

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(groups=_groups())
    def test_drawn_groups(self, tmp_path, groups):
        self._same_bytes(tmp_path, groups)
