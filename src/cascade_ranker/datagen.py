"""Synthetic benchmark generator plus the line-oriented dataset file format.

The generator mirrors the shape of a production e-commerce search log at desk
scale: a heavy-tailed recalled-count distribution (hot vs long-tail queries),
roughly 1 positive per 10 instances, log-normal prices, and features whose
informativeness grows with their evaluation cost. A latent relevance scalar
drives labels; a latent (standardized log) price scalar drives purchase
selection among positives and leaks into some features so that price-sensitive
training has signal to exploit.

Both ``generate`` and ``read_dataset`` return one ``QueryGroup`` per query,
each built by the one constructor from the column block the generator drew
or the reader parsed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from .core import (
    LABEL_CLICK,
    LABEL_NONE,
    LABEL_PURCHASE,
    Feature,
    FeatureSchema,
    QueryGroup,
    StageAssignment,
)


def default_schema() -> FeatureSchema:
    """Five-feature benchmark schema: two cheap statistical features, three
    increasingly expensive predictive ones."""
    return FeatureSchema(features=(
        Feature("sales_volume", 0.02, "statistical"),
        Feature("postpay_score", 0.09, "statistical"),
        Feature("ctr_score", 0.13, "predictive"),
        Feature("relevance_score", 0.74, "predictive"),
        Feature("deep_wide_score", 0.84, "predictive"),
    ))


def default_assignment(schema: FeatureSchema | None = None) -> StageAssignment:
    """Three stages ordered by ascending cost: cheap statistical filter,
    mid-cost predictive, expensive predictive."""
    schema = schema or default_schema()
    return StageAssignment.from_names(schema, (
        ("sales_volume", "postpay_score"),
        ("ctr_score",),
        ("relevance_score", "deep_wide_score"),
    ))


@dataclass(frozen=True)
class FeatureQuality:
    """How one synthetic feature mixes the latent factors:
    value = signal_strength * relevance + price_strength * price_factor
            + noise * standard normal."""

    signal_strength: float
    noise: float = 1.0
    price_strength: float = 0.0


DEFAULT_FEATURE_QUALITY = (
    FeatureQuality(0.15, 1.0, -0.10),   # sales_volume: weak, cheap items sell more
    FeatureQuality(0.40, 1.0, 0.0),     # postpay_score
    FeatureQuality(0.75, 1.0, 0.05),    # ctr_score
    FeatureQuality(0.90, 1.0, 0.15),    # relevance_score
    FeatureQuality(1.20, 1.0, 0.30),    # deep_wide_score: strong and price-aware
)


@dataclass(frozen=True)
class GenConfig:
    n_queries: int = 2000
    head_fraction: float = 0.5
    head_mcount_range: tuple[int, int] = (10_000, 50_000)
    tail_mcount_range: tuple[int, int] = (300, 3_000)
    group_size_cap: int = 20
    positives_ratio: float = 0.1
    label_noise: float = 0.75
    purchase_fraction_of_positives: float = 0.1
    purchase_price_tilt: float = 1.5
    feature_quality: tuple[FeatureQuality, ...] = DEFAULT_FEATURE_QUALITY
    price_mean_log: float = 3.5
    price_sigma_log: float = 0.8
    price_floor: float = 1.05
    seed: int = 0

    def __post_init__(self):
        if self.n_queries < 1:
            raise ValueError("n_queries must be >= 1")
        if not 0.0 <= self.head_fraction <= 1.0:
            raise ValueError("head_fraction must be in [0, 1]")
        for lo, hi in (self.head_mcount_range, self.tail_mcount_range):
            if not 1 <= lo <= hi:
                raise ValueError("mcount ranges must satisfy 1 <= lo <= hi")
        if not 0.0 < self.positives_ratio < 1.0:
            raise ValueError("positives_ratio must be in (0, 1)")
        if not 0.0 <= self.purchase_fraction_of_positives <= 1.0:
            raise ValueError("purchase_fraction_of_positives must be in [0, 1]")
        if self.group_size_cap < 1:
            raise ValueError("group_size_cap must be >= 1")
        if self.price_floor <= 1.0:
            raise ValueError("price_floor must exceed 1 so log(price) stays positive")


def _log_uniform_int(rng: np.random.Generator, lo: int, hi: int) -> int:
    if lo == hi:
        return lo
    return int(math.floor(math.exp(rng.uniform(math.log(lo), math.log(hi + 1)))))


def generate(cfg: GenConfig, schema: FeatureSchema) -> list[QueryGroup]:
    """Deterministic synthetic dataset for ``schema`` under ``cfg``."""
    if len(cfg.feature_quality) != schema.item_dim:
        raise ValueError(
            f"feature_quality has {len(cfg.feature_quality)} entries for "
            f"{schema.item_dim} schema features"
        )
    rng = np.random.default_rng(cfg.seed)
    # label = 1 iff relevance + label_noise * eps exceeds the (1 - ratio)
    # quantile of that mixture, which targets the positive ratio exactly.
    mix_sd = math.sqrt(1.0 + cfg.label_noise ** 2)
    label_threshold = ndtri(1.0 - cfg.positives_ratio) * mix_sd
    purchase_base = math.log(
        cfg.purchase_fraction_of_positives / (1.0 - cfg.purchase_fraction_of_positives)
    ) if 0 < cfg.purchase_fraction_of_positives < 1 else None

    groups = []
    for qi in range(cfg.n_queries):
        if rng.random() < cfg.head_fraction:
            m_q = _log_uniform_int(rng, *cfg.head_mcount_range)
        else:
            m_q = _log_uniform_int(rng, *cfg.tail_mcount_range)
        n_q = min(m_q, cfg.group_size_cap)

        relevance = rng.standard_normal(n_q)
        prices = np.maximum(
            rng.lognormal(cfg.price_mean_log, cfg.price_sigma_log, size=n_q),
            cfg.price_floor,
        )
        price_factor = (np.log(prices) - cfg.price_mean_log) / cfg.price_sigma_log

        X = np.empty((n_q, schema.item_dim))
        for k, fq in enumerate(cfg.feature_quality):
            X[:, k] = (fq.signal_strength * relevance
                       + fq.price_strength * price_factor
                       + fq.noise * rng.standard_normal(n_q))

        positive = (relevance + cfg.label_noise * rng.standard_normal(n_q)) > label_threshold
        labels = np.where(positive, LABEL_CLICK, LABEL_NONE)
        if purchase_base is None:
            purchased = positive & (cfg.purchase_fraction_of_positives >= 1.0)
        else:
            p_purchase = 1.0 / (1.0 + np.exp(-(purchase_base + cfg.purchase_price_tilt * price_factor)))
            purchased = positive & (rng.random(n_q) < p_purchase)
        labels = np.where(purchased, LABEL_PURCHASE, labels)

        groups.append(QueryGroup(
            f"q{qi:05d}", schema.query_onehot(m_q), m_q, X, labels, prices,
        ))
    return groups


class DatasetFormatError(ValueError):
    """Malformed dataset file; the message carries the line number."""


def write_dataset(path, groups: Sequence[QueryGroup]) -> None:
    """One instance per line:
    ``qid:<id> mcount:<int> label:<0|1|2> price:<float> <idx>:<float> ...``
    Zero-valued features are omitted (so -0.0 reads back as 0.0); floats use
    17 significant digits so the round trip is otherwise exact."""
    with open(path, "w", encoding="utf-8") as fh:
        for group in groups:
            head = f"qid:{group.query_id} mcount:{group.recalled_count} "
            for x, label, price in zip(group.X.tolist(), group.labels.tolist(),
                                       group.prices.tolist()):
                feats = " ".join(f"{k}:{v:.17g}" for k, v in enumerate(x) if v != 0.0)
                line = f"{head}label:{label} price:{price:.17g}"
                fh.write(line + (" " + feats if feats else "") + "\n")


# Lines parsed into Python lists before each conversion to arrays: bounds the
# memory held in per-line Python objects while reading a large file.
READ_CHUNK_LINES = 4096


def _parse_prefix(fields: list[str]) -> tuple[str, int, int, float]:
    """(qid, mcount, label, price) from a line's first four fields, in any
    order; raises KeyError or ValueError."""
    if (len(fields) >= 4 and fields[0][:4] == "qid:" and fields[1][:7] == "mcount:"
            and fields[2][:6] == "label:" and fields[3][:6] == "price:"):
        # the order write_dataset uses, without building a dict
        return fields[0][4:], int(fields[1][7:]), int(fields[2][6:]), float(fields[3][6:])
    tags = dict(f.split(":", 1) for f in fields[:4])
    return tags["qid"], int(tags["mcount"]), int(tags["label"]), float(tags["price"])


def _parse_chunks(fh, d: int):
    """Yield one ``(X, labels, prices, starts)`` column block per chunk of
    lines of ``fh``; ``starts`` holds ``(row, qid, mcount)`` for each query
    whose first line is in the chunk, ``row`` counting data rows from the
    start of the file. Raises DatasetFormatError at the first bad line."""
    index_of = {str(i): i for i in range(d)}    # spares int() on canonical indices
    seen: set[str] = set()
    cur_qid, cur_mcount = None, 0
    lineno = rows_before = 0
    while chunk := list(islice(fh, READ_CHUNK_LINES)):
        labels, prices, n_feats, cols, vals = [], [], [], [], []
        starts = []
        for raw in chunk:
            lineno += 1
            fields = raw.split()
            if not fields:
                continue
            try:
                qid, mcount, label, price = _parse_prefix(fields)
            except (KeyError, ValueError) as exc:
                raise DatasetFormatError(
                    f"line {lineno}: expected 'qid: mcount: label: price:' prefix ({exc})"
                ) from None
            if label not in (0, 1, 2):
                raise DatasetFormatError(f"line {lineno}: label must be 0, 1 or 2, got {label}")
            if mcount < 1:
                raise DatasetFormatError(f"line {lineno}: mcount must be >= 1, got {mcount}")
            line_cols = []
            for f in fields[4:]:
                try:
                    idx_s, val_s = f.split(":", 1)
                    idx = index_of.get(idx_s)
                    idx, val = int(idx_s) if idx is None else idx, float(val_s)
                except ValueError:
                    raise DatasetFormatError(
                        f"line {lineno}: malformed feature entry {f!r}"
                    ) from None
                if not 0 <= idx < d:
                    raise DatasetFormatError(
                        f"line {lineno}: feature index {idx} outside schema 0..{d - 1}"
                    )
                line_cols.append(idx)
                vals.append(val)
            if len(set(line_cols)) != len(line_cols):
                dup = next(i for k, i in enumerate(line_cols) if i in line_cols[:k])
                raise DatasetFormatError(f"line {lineno}: feature index {dup} appears twice")
            if qid != cur_qid:
                if qid in seen:
                    raise DatasetFormatError(
                        f"line {lineno}: qid {qid!r} reappears; lines per qid must be contiguous"
                    )
                seen.add(qid)
                cur_qid, cur_mcount = qid, mcount
                starts.append((rows_before + len(labels), qid, mcount))
            elif mcount != cur_mcount:
                raise DatasetFormatError(
                    f"line {lineno}: mcount {mcount} differs within qid {qid!r}"
                )
            cols += line_cols
            n_feats.append(len(line_cols))
            labels.append(label)
            prices.append(price)
        X = np.zeros((len(labels), d))
        X[np.repeat(np.arange(len(labels)), n_feats), cols] = vals
        rows_before += len(labels)
        yield X, np.array(labels, dtype=np.int8), np.array(prices, dtype=np.float64), starts


def read_dataset(path, schema: FeatureSchema) -> list[QueryGroup]:
    """Parse the dataset format; lines sharing a qid must be contiguous, and
    a line may give each feature index once. The query one-hot vector is
    derived from mcount via the schema's bins.

    Lines are parsed into column blocks READ_CHUNK_LINES at a time; the
    blocks are joined into one matrix, and each query's group is a slice of
    it."""
    with open(path, "r", encoding="utf-8") as fh:
        chunks = list(_parse_chunks(fh, schema.item_dim))
    if not chunks:
        return []
    X, labels, prices = (np.concatenate(parts) for parts in list(zip(*chunks))[:3])
    starts = [start for chunk in chunks for start in chunk[3]]
    ends = [row for row, _, _ in starts[1:]] + [len(labels)]
    return [
        QueryGroup(qid, schema.query_onehot(mcount), mcount,
                   X[row:end], labels[row:end], prices[row:end])
        for (row, qid, mcount), end in zip(starts, ends)
    ]
