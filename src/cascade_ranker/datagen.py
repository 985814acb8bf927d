"""Synthetic benchmark generator plus the line-oriented dataset file format.

The generator mirrors the shape of a production e-commerce search log at desk
scale: a heavy-tailed recalled-count distribution (hot vs long-tail queries),
roughly 1 positive per 10 instances, log-normal prices, and features whose
informativeness grows with their evaluation cost. A latent relevance scalar
drives labels; a latent (standardized log) price scalar drives purchase
selection among positives and leaks into some features so that price-sensitive
training has signal to exploit.

Both ``generate`` and ``read_dataset`` return one ``PackedDataset``, built
by ``PackedDataset.from_columns`` from the column blocks they join once:
the blocks of GEN_BLOCK_QUERIES generated queries, or the reader's chunks
of lines. The query one-hot vectors of all queries come from one
``FeatureSchema.query_onehots`` call. Every block rule of ``pack_groups``
holds by construction, so neither checks its result again. The generator
draws query by query in one fixed stream order, so that a seed gives the
data it always gave, and computes on the draws a block at a time.

``write_dataset`` writes one layout, the dense one, with every feature
index on every line: ``qid:Q mcount:M label:L price:P 0:v ... (d-1):v``.

The reader has two parsers over one shared position in the file. A chunk of
lines that all have the dense layout is parsed in C by one ``np.loadtxt``
call and checked with array operations. Every other chunk (omitted zero
features, blank lines, other whitespace, another field order, or any error)
is parsed line by line in Python, which reads every valid layout and is the
only source of error messages. Both give the same values bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .core import (
    LABEL_CLICK,
    LABEL_NONE,
    LABEL_PURCHASE,
    Feature,
    FeatureSchema,
    PackedDataset,
    QueryGroup,
    StageAssignment,
    check_domains,
    pack_groups,
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

    DOMAINS = dict(signal_strength="(-inf, inf)", noise="(-inf, inf)", price_strength="(-inf, inf)")

    def __post_init__(self):
        check_domains(vars(self), self.DOMAINS)


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

    DOMAINS = dict(n_queries="[1, inf)", head_fraction="[0, 1]", group_size_cap="[1, inf)",
                   positives_ratio="(0, 1)", purchase_fraction_of_positives="[0, 1]",
                   label_noise="[-1.3407807929942596e+154, 1.3407807929942596e+154], where its "
                               "square stays finite", purchase_price_tilt="(-inf, inf)",
                   price_mean_log="(-inf, inf)", price_sigma_log="(0, inf)", seed="[0, inf)",
                   price_floor="(1, inf) so log(price) stays positive")

    def __post_init__(self):
        check_domains(vars(self), self.DOMAINS)
        for lo, hi in (self.head_mcount_range, self.tail_mcount_range):
            if not 1 <= lo <= hi:
                raise ValueError("mcount ranges must satisfy 1 <= lo <= hi")

    @property
    def label_threshold(self) -> float:
        """The (1 - ratio) quantile of relevance + label_noise * eps, finite for every ratio."""
        return -NormalDist().inv_cdf(self.positives_ratio) * math.sqrt(1 + self.label_noise ** 2)


def _log_uniform_int(rng: np.random.Generator, lo: int, hi: int) -> int:
    if lo == hi:
        return lo
    return int(math.floor(math.exp(rng.uniform(math.log(lo), math.log(hi + 1)))))


# Queries whose draws are held at a time before their rows are computed as
# one block; it bounds the memory held in per-query draws while generating.
GEN_BLOCK_QUERIES = 256


def generate(cfg: GenConfig, schema: FeatureSchema) -> PackedDataset:
    """Deterministic synthetic dataset for ``schema`` under ``cfg``.

    The random draws are made query by query, in one stream order that
    keeps the data of every seed: the head/tail choice, the recalled count
    (nothing drawn when its range has equal ends), the relevance normals,
    the log-normal prices, the d feature normals and the label-noise
    normals (one ``(d + 1, n_q)`` call, which consumes the stream as d + 1
    calls of ``n_q`` do), then the purchase uniforms if the purchase
    fraction lies strictly between 0 and 1. The arithmetic on the draws runs
    once per block of GEN_BLOCK_QUERIES queries over all of the block's
    rows, element by element as it would per query, and the blocks' ``X``,
    ``labels`` and ``prices`` are joined once at the end."""
    if len(cfg.feature_quality) != schema.item_dim:
        raise ValueError(
            f"feature_quality has {len(cfg.feature_quality)} entries for "
            f"{schema.item_dim} schema features"
        )
    rng = np.random.default_rng(cfg.seed)
    d = schema.item_dim
    purchase_base = math.log(
        cfg.purchase_fraction_of_positives / (1.0 - cfg.purchase_fraction_of_positives)
    ) if 0 < cfg.purchase_fraction_of_positives < 1 else None

    mcounts, sizes, blocks = [], [], []
    for start in range(0, cfg.n_queries, GEN_BLOCK_QUERIES):
        relevance, raw_prices, normals, uniforms = [], [], [], []
        for _ in range(min(GEN_BLOCK_QUERIES, cfg.n_queries - start)):
            if rng.random() < cfg.head_fraction:
                m_q = _log_uniform_int(rng, *cfg.head_mcount_range)
            else:
                m_q = _log_uniform_int(rng, *cfg.tail_mcount_range)
            n_q = min(m_q, cfg.group_size_cap)
            mcounts.append(m_q)
            sizes.append(n_q)
            relevance.append(rng.standard_normal(n_q))
            # its own call: the generator takes the exp of each draw
            raw_prices.append(rng.lognormal(cfg.price_mean_log, cfg.price_sigma_log, size=n_q))
            normals.append(rng.standard_normal((d + 1, n_q)))
            if purchase_base is not None:
                uniforms.append(rng.random(n_q))

        relevance = np.concatenate(relevance)
        prices = np.maximum(np.concatenate(raw_prices), cfg.price_floor)
        with np.errstate(over="ignore"):    # named below
            price_factor = (np.log(prices) - cfg.price_mean_log) / cfg.price_sigma_log
        if not np.isfinite(price_factor).all():
            raise ValueError(f"price_mean_log {cfg.price_mean_log} and price_sigma_log "
                             f"{cfg.price_sigma_log} draw a price whose z-score overflows to inf")
        normals = np.concatenate(normals, axis=1)
        X = np.empty((len(relevance), d))
        for k, fq in enumerate(cfg.feature_quality):
            with np.errstate(over="ignore", invalid="ignore"):
                X[:, k] = (fq.signal_strength * relevance
                           + fq.price_strength * price_factor
                           + fq.noise * normals[k])
            if not np.isfinite(X[:, k]).all():
                raise ValueError(f"feature_quality entry {k}: {fq} overflows a feature value")

        positive = (relevance + cfg.label_noise * normals[d]) > cfg.label_threshold
        labels = np.where(positive, LABEL_CLICK, LABEL_NONE)
        if purchase_base is None:
            purchased = positive & (cfg.purchase_fraction_of_positives >= 1.0)
        else:
            with np.errstate(over="ignore"):    # an inf exponent gives exactly 0
                p_purchase = 1.0 / (1.0 + np.exp(-(purchase_base
                                                   + cfg.purchase_price_tilt * price_factor)))
            purchased = positive & (np.concatenate(uniforms) < p_purchase)
        # int8 as the dataset holds it, so that joining the blocks casts nothing
        blocks.append((X, np.where(purchased, LABEL_PURCHASE, labels).astype(np.int8), prices))
    X, labels, prices = (np.concatenate(parts) for parts in zip(*blocks))
    return PackedDataset.from_columns(X, labels, prices, schema.query_onehots(mcounts), sizes,
                                      mcounts, (f"q{qi:05d}" for qi in range(cfg.n_queries)))


class DatasetFormatError(ValueError):
    """Malformed dataset file; the message carries the line number."""


def write_dataset(path, data: PackedDataset | Sequence[QueryGroup]) -> None:
    """Write ``data``, a PackedDataset or a list of groups, one instance per
    line with every feature index, floats at 17 significant digits so that
    the round trip is exact, -0.0 included. ``data`` is packed first, so a
    group that ``pack_groups`` rejects leaves no file. Each query's lines
    are one ``%`` format over its values: ``"%.17g" % v`` is
    ``f"{v:.17g}"``, and ``"%d"`` of a label held as a float is the integer."""
    packed = pack_groups(data)
    columns, offsets = (packed.labels, packed.prices, packed.X), packed.offsets.tolist()
    tail = " ".join(["label:%d price:%.17g", *(f"{k}:%.17g" for k in range(packed.X.shape[1]))])
    with open(path, "w", encoding="utf-8") as fh:
        for q, (qid, mcount) in enumerate(zip(packed.query_ids, packed.mcounts.tolist())):
            values = np.column_stack([c[offsets[q]:offsets[q + 1]] for c in columns])
            line = f"qid:{qid} mcount:{mcount} ".replace("%", "%%") + tail + "\n"
            fh.write(line * len(values) % tuple(values.ravel().tolist()))


# Lines read from the file at a time; each chunk becomes one column block,
# which bounds the memory held in per-line objects while reading a large file.
READ_CHUNK_LINES = 4096

_TAGS = ("qid", "mcount", "label", "price")


@dataclass
class _Position:
    """Where reading has got to, shared by the two chunk parsers: every qid
    met so far, the qid and mcount of the last data line, the lines read
    and the data rows read."""

    seen: set[str] = field(default_factory=set)
    qid: str | None = None
    mcount: int = 0
    lineno: int = 0
    rows: int = 0


def _parse_lines(chunk: list[str], d: int, pos: _Position):
    """The column block of ``chunk``, parsed line by line with Python's
    ``int`` and ``float``; reads any valid layout. Raises DatasetFormatError
    at the first bad line."""
    seen, cur_qid, cur_mcount, lineno = pos.seen, pos.qid, pos.mcount, pos.lineno
    labels, prices, n_feats, cols, vals = [], [], [], [], []
    starts = []
    for raw in chunk:
        lineno += 1
        fields = raw.split()
        if not fields:
            continue
        try:
            # the first four fields, in any order
            tags = dict(f.split(":", 1) for f in fields[:4])
            qid, mcount = tags["qid"], int(tags["mcount"])
            label, price = int(tags["label"]), float(tags["price"])
        except (KeyError, ValueError) as exc:
            raise DatasetFormatError(
                f"line {lineno}: expected 'qid: mcount: label: price:' prefix ({exc})"
            ) from None
        if label not in (0, 1, 2):
            raise DatasetFormatError(f"line {lineno}: label must be 0, 1 or 2, got {label}")
        if mcount < 1:
            raise DatasetFormatError(f"line {lineno}: mcount must be >= 1, got {mcount}")
        if mcount > 2**63 - 1:     # the largest int64, as mcounts are packed
            raise DatasetFormatError(f"line {lineno}: mcount must be <= 2**63 - 1, got {mcount}")
        line_cols = []
        for f in fields[4:]:
            try:
                idx_s, val_s = f.split(":", 1)
                idx, val = int(idx_s), float(val_s)
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
            starts.append((pos.rows + len(labels), qid, mcount))
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
    pos.qid, pos.mcount, pos.lineno = cur_qid, cur_mcount, lineno
    pos.rows += len(labels)
    return X, np.array(labels, dtype=np.int8), np.array(prices, dtype=np.float64), starts


def _dense_dtype(d: int) -> np.dtype:
    """One record per dense line once ':' reads as ' ': a tag and a value
    for each prefix field, then an index and a value for each feature."""
    # U7 holds a tag one character longer than the longest, so a longer
    # token cut short still differs from every tag
    return np.dtype([f for tag, kind in zip(_TAGS, (object, "i8", "i8", "f8"))
                     for f in ((f"{tag}_tag", "U7"), (tag, kind))]
                    + [f for k in range(d) for f in ((f"i{k}", "i8"), (f"v{k}", "f8"))])


_PRINTABLE = bytes(range(32, 127))
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b": \n")


def _has_dense_layout(chunk: list[str], d: int) -> bool:
    """Whether ``chunk`` is printable ASCII whose separators are, on every
    line, exactly ``':' ' '`` repeated 3 + d times, then ``':' '\\n'``:
    then each of its lines is 4 + d ``tag:value`` fields split by single
    spaces, and reading ':' as ' ' gives a record of ``_dense_dtype(d)``."""
    text = "".join(chunk)
    if not text.isascii():
        return False
    b = text.encode("ascii")
    if not b.endswith(b"\n"):      # the file's last line may lack its line end
        b += b"\n"
    n = len(chunk)
    return (b.translate(None, _PRINTABLE) == b"\n" * n
            and b.translate(None, _NOT_SEPARATOR) == (b": " * (3 + d) + b":\n") * n)


def _parse_dense(chunk: list[str], d: int, pos: _Position):
    """The column block of ``chunk`` when every line of it has the layout
    ``write_dataset`` writes, ``qid:Q mcount:M label:L price:P 0:v ...
    (d-1):v``, and passes every check of ``_parse_lines``; None otherwise,
    with ``pos`` untouched.

    One ``np.loadtxt`` call parses the chunk in C, with the float parser
    ``float`` uses. ``loadtxt`` strips whitespace other than its delimiter
    around a field, and ':' read as ' ' would split a field anywhere, so a
    chunk goes to it only if ``_has_dense_layout``."""
    if not _has_dense_layout(chunk, d):
        return None
    try:
        a = np.loadtxt((line.replace(":", " ") for line in chunk), dtype=_dense_dtype(d),
                       delimiter=" ", comments=None, ndmin=1)
    except ValueError:
        return None
    n = len(chunk)
    qids, mcounts, labels = a["qid"], a["mcount"], a["label"]
    if (any(np.any(a[f"{tag}_tag"] != tag) for tag in _TAGS)
            or any(np.any(a[f"i{k}"] != k) for k in range(d))
            or np.any((labels < 0) | (labels > 2)) or np.any(mcounts < 1)):
        return None
    new = np.empty(n, dtype=bool)
    new[0] = qids[0] != pos.qid
    new[1:] = qids[1:] != qids[:-1]
    if ((not new[0] and mcounts[0] != pos.mcount)
            or np.any(~new[1:] & (mcounts[1:] != mcounts[:-1]))):
        return None
    rows = np.flatnonzero(new)
    start_qids = qids[rows].tolist()
    if len(set(start_qids)) != len(start_qids) or not pos.seen.isdisjoint(start_qids):
        return None
    # copy every kept column out of ``a``: a view would keep the whole
    # record array of the chunk alive
    X = np.empty((n, d))
    for k in range(d):
        X[:, k] = a[f"v{k}"]
    starts = list(zip((pos.rows + rows).tolist(), start_qids, mcounts[rows].tolist()))
    pos.seen.update(start_qids)
    pos.qid, pos.mcount = qids[-1], int(mcounts[-1])
    pos.lineno += n
    pos.rows += n
    return X, labels.astype(np.int8), a["price"].copy(), starts


def _parse_chunks(fh, d: int):
    """Yield one ``(X, labels, prices, starts)`` column block per chunk of
    lines of ``fh``; ``starts`` holds ``(row, qid, mcount)`` for each query
    whose first line is in the chunk, ``row`` counting data rows from the
    start of the file. A chunk goes to ``_parse_dense`` and, if that
    declines it, to ``_parse_lines``; both continue from one ``_Position``,
    so the file is read once. Raises DatasetFormatError at the first bad
    line."""
    pos = _Position()
    while chunk := list(islice(fh, READ_CHUNK_LINES)):
        block = _parse_dense(chunk, d, pos)
        yield _parse_lines(chunk, d, pos) if block is None else block


def read_dataset(path, schema: FeatureSchema) -> PackedDataset:
    """Parse the dataset format; lines sharing a qid must be contiguous, and
    a line may give each feature index once, or omit it for a zero. The
    query one-hot vectors are derived from mcount via the schema's bins.

    Lines are parsed READ_CHUNK_LINES at a time into column blocks, which
    are joined once into the columns of the result; a file with no data
    line gives a dataset of no queries. A chunk whose lines all have the
    dense layout ``write_dataset`` writes (single spaces, every index
    0..d-1 in order) is parsed in C by ``np.loadtxt``; any other chunk (a
    zero feature omitted, blank lines, other whitespace, another field
    order, or any error) is parsed line by line. Both give the same values
    bit for bit; every error message but "not UTF-8 text" comes from the
    line-by-line parser."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            chunks = list(_parse_chunks(fh, schema.item_dim)) or [
                _parse_lines([], schema.item_dim, _Position())]
    except UnicodeDecodeError:     # its position counts from the decoder's buffer, not a line
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DatasetFormatError(f"line {lineno}: not UTF-8 text ({exc})") from None
        raise
    X, labels, prices = (np.concatenate(parts) for parts in list(zip(*chunks))[:3])
    starts = [start for chunk in chunks for start in chunk[3]]
    mcounts = [mcount for _, _, mcount in starts]
    return PackedDataset.from_columns(
        X, labels, prices, schema.query_onehots(mcounts),
        np.diff([row for row, _, _ in starts] + [len(labels)]), mcounts,
        [qid for _, qid, _ in starts])
