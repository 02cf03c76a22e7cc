"""Tabular data handling: schema-driven CSV loading with signed feature
hashing, train-statistics standardization, seeded splitting, and a
biased-label synthetic generator.

The sensitive column is never encoded into the feature matrix; it is carried
separately and consulted only at evaluation time.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .models import float_zeros
from .serial import JsonConfig

COLUMN_KINDS = ("numeric", "categorical", "label", "sensitive")

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

# Geometry of the synthetic generator: the first feature doubles as a group
# proxy (latent signal plus a group-dependent shift that grows with |z|), the
# second is a groupless signal channel with extra noise, the rest are pure
# noise. Scaling the shift by |z| makes the groups indistinguishable near the
# decision boundary and increasingly separated away from it, so low-confidence
# rows carry little group signature while confident rows carry a lot; for
# group 1 the shift also folds the sign of z, which a classifier leaning on
# this channel turns into confident group-dependent errors.
GROUP_PROXY_SHIFT = 2.0
CLEAN_CHANNEL_NOISE = 1.25


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a digest, platform independent."""
    h = FNV64_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV64_PRIME) & _MASK64
    return h


def hash_features(value: str, column_name: str, buckets: int) -> tuple[int, int]:
    """Map a categorical value to a (bucket index, sign) pair.

    The digest is FNV-1a over ``column_name + ":" + value``; the low bits of
    the digest pick the bucket and the next bit picks the sign, so the
    encoding is deterministic across runs and platforms.
    """
    if buckets < 2 or buckets & (buckets - 1) != 0:
        raise ConfigError(f"hash buckets must be a power of two >= 2, got {buckets}")
    digest = fnv1a64(f"{column_name}:{value}".encode("utf-8"))
    index = digest & (buckets - 1)
    sign_bit = (digest >> (buckets.bit_length() - 1)) & 1
    return int(index), 1 - 2 * int(sign_bit)


@dataclass(frozen=True)
class ColumnSpec(JsonConfig):
    name: str
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in COLUMN_KINDS:
            raise ConfigError(f"unknown column kind {self.kind!r} for {self.name!r}")


@dataclass(frozen=True)
class Schema(JsonConfig):
    """Column layout of a raw table plus the hashed encoding width.

    Encoded feature vectors lay out the feature columns in schema order:
    numeric columns take one slot, categorical columns take a block of
    ``hash_buckets`` slots.
    """

    columns: tuple[ColumnSpec, ...]
    hash_buckets: int = 64

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ConfigError("schema column names must be unique")
        if sum(c.kind == "label" for c in self.columns) != 1:
            raise ConfigError("schema requires exactly one label column")
        if sum(c.kind == "sensitive" for c in self.columns) != 1:
            raise ConfigError("schema requires exactly one sensitive column")
        if self.hash_buckets < 2 or self.hash_buckets & (self.hash_buckets - 1) != 0:
            raise ConfigError("hash_buckets must be a power of two >= 2")
        if self.m < 1:
            raise ConfigError("schema has no feature columns")
        if self.m >= 2**63:  # past any int64 offset
            raise ConfigError(f"schema is {self.m} slots wide, past 2**63 - 1")

    @property
    def label_column(self) -> str:
        return next(c.name for c in self.columns if c.kind == "label")

    @property
    def sensitive_column(self) -> str:
        return next(c.name for c in self.columns if c.kind == "sensitive")

    @property
    def feature_columns(self) -> tuple[ColumnSpec, ...]:
        return tuple(c for c in self.columns if c.kind in ("numeric", "categorical"))

    @property
    def m(self) -> int:
        width = 0
        for c in self.feature_columns:
            width += 1 if c.kind == "numeric" else self.hash_buckets
        return width

    def feature_offsets(self) -> dict[str, int]:
        """Start offset of each feature column's block in the encoded vector."""
        offsets: dict[str, int] = {}
        pos = 0
        for c in self.feature_columns:
            offsets[c.name] = pos
            pos += 1 if c.kind == "numeric" else self.hash_buckets
        return offsets

    def numeric_positions(self) -> np.ndarray:
        offsets = self.feature_offsets()
        return np.array(
            [offsets[c.name] for c in self.feature_columns if c.kind == "numeric"],
            dtype=np.int64,
        )


@dataclass(frozen=True)
class Dataset:
    """Immutable encoded dataset.

    ``x`` holds the encoded features (sensitive column excluded), ``y`` the
    binary labels, ``s`` dense group ids for evaluation. ``clean_y`` is only
    populated by the synthetic generator as a diagnostics side record.
    Arrays of the right dtype are taken as they are, not copied, and are
    marked read-only, the caller's own array included.
    """

    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    schema: Schema
    clean_y: np.ndarray | None = None

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        s = np.asarray(self.s, dtype=np.int64)
        if x.ndim != 2:
            raise DataError("x must be a 2-d matrix")
        if not (x.shape[0] == y.shape[0] == s.shape[0]):
            raise DataError("x, y, s row counts differ")
        if y.size and not np.isin(y, (0, 1)).all():
            raise DataError("labels must be 0 or 1")
        if not np.isfinite(x).all():
            raise DataError("x contains non-finite values")
        clean = self.clean_y
        if clean is not None:
            clean = np.asarray(clean, dtype=np.int64)
            if clean.shape != y.shape:
                raise DataError("clean_y shape mismatch")
            clean.setflags(write=False)
        for arr in (x, y, s):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "clean_y", clean)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.x.shape[1]

    def take(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        clean = None if self.clean_y is None else self.clean_y[idx]
        return Dataset(self.x[idx], self.y[idx], self.s[idx], self.schema, clean)


@dataclass(frozen=True)
class SplitSpec(JsonConfig):
    train_fraction: float
    valid_fraction: float
    test_fraction: float
    seed: int = 0

    def __post_init__(self) -> None:
        fracs = (self.train_fraction, self.valid_fraction, self.test_fraction)
        if any(not (0.0 < f < 1.0) for f in fracs):
            raise ConfigError("split fractions must each lie in (0, 1)")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError("split fractions must sum to 1")
        if self.seed < 0:
            raise ConfigError("split seed must be non-negative")


@dataclass(frozen=True)
class SynthConfig(JsonConfig):
    n: int
    m_numeric: int = 6
    group_balance: float = 0.5
    flip_rate_g0: float = 0.0
    flip_rate_g1: float = 0.0
    signal_strength: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.m_numeric < 1:
            raise ConfigError("m_numeric must be >= 1")
        for name in ("group_balance", "flip_rate_g0", "flip_rate_g1"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.signal_strength <= 0:
            raise ConfigError("signal_strength must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def synth_schema(m_numeric: int) -> Schema:
    cols = [ColumnSpec(f"f{i}", "numeric") for i in range(m_numeric)]
    cols.append(ColumnSpec("y", "label"))
    cols.append(ColumnSpec("s", "sensitive"))
    return Schema(columns=tuple(cols))


# Rows the CSV coder holds as strings at a time. Of every row it keeps one
# 8-byte code or float per column, not the row's text.
CODE_BLOCK_ROWS = 1024


def _map_labels(distinct: list[str], which: np.ndarray) -> np.ndarray:
    """{0, 1} labels from a label column's distinct cells (in order of first
    appearance) and each row's index into them."""
    if len(distinct) > 2:
        raise DataError(f"non-binary label: {len(distinct)} distinct values")
    try:
        as_num = {v: float(v) for v in distinct}
    except ValueError:
        as_num = None
    if as_num is not None and set(as_num.values()) <= {0.0, 1.0}:
        mapping = [int(as_num[v]) for v in distinct]
    elif len(distinct) == 2:
        hi = max(distinct)
        mapping = [int(v == hi) for v in distinct]
    else:
        raise DataError(f"label column has a single unmappable value {distinct[0]!r}")
    return np.array(mapping, dtype=np.int64)[which]


class _HashingReader(io.RawIOBase):
    """A raw binary stream that feeds every byte read through it to a hash,
    so a file is hashed as it is read, pipes included."""

    def __init__(self, raw, digest) -> None:
        self.raw, self.digest = raw, digest

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        n = self.raw.readinto(b)
        if n:
            self.digest.update(memoryview(b)[:n])
        return n


def _csv_blocks(path: str | Path, what: str, block_rows: int, digest):
    """Yield the header of a UTF-8 CSV, then its nonblank rows in lists of
    at most ``block_rows``; every byte read goes to ``digest``, a hashlib
    hash. A missing, empty or unreadable file is a DataError naming
    ``what`` it was, raised where the reading stops."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing {what}: {path}")
    try:
        with path.open("rb", buffering=0) as raw, io.TextIOWrapper(
                io.BufferedReader(_HashingReader(raw, digest)),
                encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"empty {what}: {path}")
            yield header
            while block := list(itertools.islice(reader, block_rows)):
                yield [r for r in block if r]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def _integer_cell(cell: str) -> int:
    """An integral number such as ``1`` or ``1.0`` that fits in int64;
    ``0.9``, ``inf`` or ``1e19`` is a ValueError."""
    value = float(cell)
    if not value.is_integer():
        raise ValueError(f"non-integral cell {cell!r}")
    if not -2.0**63 <= value < 2.0**63:
        raise ValueError(f"integer cell {cell!r} outside the int64 range")
    return int(value)


def _finite_cell(cell: str) -> float:
    """A finite number; ``nan`` or ``inf`` is a ValueError."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite cell {cell!r}")
    return value


def read_predictions(path: str | Path):
    """The int64 pred, label and group columns, the float64 score column (or
    None) and the SHA-256 of the bytes read of a predictions CSV, parsed in
    blocks of ``CODE_BLOCK_ROWS`` rows. Errors keep the precedence of reading
    the whole file first: a read error anywhere, then missing columns, the
    first row in file order with a bad or missing cell, then no rows."""
    path, digest = Path(path), hashlib.sha256()
    blocks = _csv_blocks(path, "predictions file", CODE_BLOCK_ROWS, digest)
    header, need = next(blocks), ["group", "label", "pred"]
    error = None if set(need) <= set(header) \
        else f"predictions file needs columns {need}, got {header}"
    ip, il, ig, js = (header.index(name) if name in header else None
                      for name in ("pred", "label", "group", "score"))
    parts = []
    for block in blocks:
        if error is not None or not block:
            continue  # a read error later in the file comes first
        pred, label, group, score = [], [], [], []
        try:
            for row in block:
                pred.append(_integer_cell(row[ip]))
                label.append(_integer_cell(row[il]))
                group.append(_integer_cell(row[ig]))
                if js is not None:
                    score.append(_finite_cell(row[js]))
        except (IndexError, ValueError):
            error = f"unparseable predictions row {row!r}"
            continue
        parts.append((np.array(pred, np.int64), np.array(label, np.int64),
                      np.array(group, np.int64), np.array(score, np.float64)))
    if error is not None:
        raise DataError(error)
    if not parts:
        raise DataError(f"predictions file {path} has no rows")
    pred, label, group, score = (np.concatenate(col) for col in zip(*parts))
    return pred, label, group, score if js is not None else None, digest.hexdigest()


class _Codes:
    """First-appearance codes of one column's cells, block by block: each
    distinct cell is keyed once per file, each row keeps one integer."""

    def __init__(self) -> None:
        self.index: dict[str, int] = {}
        self.parts: list[np.ndarray] = []
        self.first_empty: int | None = None

    def add(self, cells: list[str], base: int) -> None:
        index = self.index
        for v in dict.fromkeys(cells):
            if v not in index:
                index[v] = len(index)
                if v == "":
                    self.first_empty = base + cells.index("")
        self.parts.append(np.fromiter(map(index.__getitem__, cells), dtype=np.int64,
                                      count=len(cells)))

    def which(self) -> np.ndarray:
        """Each row's code, joined once; the per-block parts are dropped."""
        which, self.parts = np.concatenate(self.parts), []
        return which


class _Floats:
    """One numeric column's floats, block by block. Its first bad cell is
    kept as the column's error and ends its coding; the per-cell loop runs
    only in a block where some cell does not parse."""

    def __init__(self, name: str, impute_missing: bool) -> None:
        self.name, self.impute_missing = name, impute_missing
        self.parts: list[np.ndarray] = []
        self.missing: list[int] = []
        self.error: str | None = None

    def add(self, cells: list[str], base: int) -> None:
        if self.error is not None:
            return
        try:
            self.parts.append(np.fromiter(map(float, cells), dtype=np.float64,
                                          count=len(cells)))
            return
        except ValueError:
            pass
        col = np.empty(len(cells), dtype=np.float64)
        for i, cell in enumerate(cells):
            if cell == "":
                if not self.impute_missing:
                    self.error = (f"missing cell in numeric column {self.name!r}, "
                                  f"row {base + i + 2}")
                    return
                self.missing.append(base + i)
                col[i] = np.nan
                continue
            try:
                col[i] = float(cell)
            except ValueError:
                self.error = (f"unparseable numeric cell {cell!r} in column "
                              f"{self.name!r}, row {base + i + 2}")
                return
        self.parts.append(col)

    def column(self) -> np.ndarray:
        if self.error is not None:
            raise DataError(self.error)
        col, self.parts = np.concatenate(self.parts), []
        if self.missing:
            present = np.delete(col, self.missing)
            if present.size == 0:
                raise DataError(f"numeric column {self.name!r} is entirely missing")
            col[self.missing] = present.mean()
        if not np.isfinite(col).all():
            raise DataError(f"non-finite value in numeric column {self.name!r}")
        return col


@dataclass(frozen=True)
class CodedTable:
    """A CSV table coded per row, without its feature matrix: the labels,
    the group ids, each numeric column's floats and, for each categorical
    column, each row's cell code with the (bucket, sign) of each code.
    Columns are keyed by name, in schema order; every code occurs in some
    row. ``sha256`` is the hex SHA-256 of the bytes the coder read.
    ``StandardizedRows`` builds rows of the matrix from it."""

    schema: Schema
    y: np.ndarray
    s: np.ndarray
    numeric: dict[str, np.ndarray]
    categorical: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]
    sha256: str

    @property
    def n(self) -> int:
        return self.y.shape[0]


def code_csv(path: str | Path, schema: Schema, impute_missing: bool = False) -> CodedTable:
    """Read and code a CSV in blocks of ``CODE_BLOCK_ROWS`` rows, dropping
    each block's strings once it is coded.

    Errors are those of reading the whole file first and checking it
    after, with the same precedence: a read error anywhere, then the
    header, no rows, the first ragged row, a missing label or sensitive
    cell, the label coding, then each feature column's first error in
    schema order. Rows are numbered among the nonblank rows, the header
    being row 1.
    """
    digest = hashlib.sha256()
    blocks = _csv_blocks(path, "file", CODE_BLOCK_ROWS, digest)
    header = [h.strip() for h in next(blocks)]
    want = [c.name for c in schema.columns]
    if sorted(header) != sorted(want):
        for _ in blocks:  # a read error later in the file comes first
            pass
        raise DataError(
            f"header mismatch: file has {header!r}, schema expects {sorted(want)!r}"
        )
    coders = {c.name: _Floats(c.name, impute_missing) if c.kind == "numeric" else _Codes()
              for c in schema.columns}
    at = [(header.index(name), coder) for name, coder in coders.items()]
    n, ragged = 0, None
    for block in blocks:
        if ragged is None:
            i = next((i for i, row in enumerate(block) if len(row) != len(header)), None)
            if i is not None:
                ragged = (f"row {n + i + 2}: expected {len(header)} cells, "
                          f"got {len(block[i])}")
            elif block:
                cols = list(zip(*block))
                for j, coder in at:
                    coder.add(list(map(str.strip, cols[j])), n)
        n += len(block)
    if n == 0:
        raise DataError(f"empty file: {path} has a header but no rows")
    if ragged is not None:
        raise DataError(ragged)

    label, group = coders[schema.label_column], coders[schema.sensitive_column]
    if label.first_empty is not None:
        raise DataError("missing label cell")
    if group.first_empty is not None:
        raise DataError("missing sensitive cell")
    y = _map_labels(list(label.index), label.which())
    numeric, categorical = {}, {}
    for c in schema.feature_columns:
        coder = coders[c.name]
        if c.kind == "numeric":
            numeric[c.name] = coder.column()
            continue
        if coder.first_empty is not None and not impute_missing:
            raise DataError(f"missing cell in categorical column {c.name!r}, "
                            f"row {coder.first_empty + 2}")
        # One hash per distinct value, in order of first appearance.
        pairs = [hash_features(v, c.name, schema.hash_buckets) for v in coder.index]
        bucket, sign = np.array(pairs, dtype=np.int64).T
        categorical[c.name] = (coder.which(), bucket, sign)
    return CodedTable(schema, y, group.which(), numeric, categorical, digest.hexdigest())


def load_csv(path: str | Path, schema: Schema, impute_missing: bool = False) -> Dataset:
    """Load and encode a CSV into a Dataset.

    Numeric cells are parsed as floats, categorical cells signed-hashed into
    their column block, the label mapped to {0, 1}, and the sensitive column
    mapped to dense group ids in order of first appearance. Missing cells are
    a hard error unless ``impute_missing`` is set, in which case numeric gaps
    take the column mean and categorical gaps hash as their own category.
    """
    table, m = code_csv(path, schema, impute_missing), schema.m
    return StandardizedRows(table, np.zeros(m), np.ones(m)).dataset(slice(None))


class StandardizedRows:
    """``(x - mean) / std`` for a coded table's ``x``, built for the rows asked
    for, never whole; the one path from codes to rows (audit chunks, train
    splits, and ``load_csv`` with mean 0 and std 1, which is exact).

    Each standardized value is computed once: per numeric cell, per distinct
    categorical hot cell, and per column for the zero a categorical block
    holds off its hot cell. Each is the same subtraction and division as on
    the whole matrix, so built rows are bit-equal to those rows of it. A
    value the matrix would hold that is not finite is a DataError here.
    """

    ndim = 2

    def __init__(self, table: CodedTable, mean: np.ndarray, std: np.ndarray):
        schema = table.schema
        self.shape = (table.n, schema.m)
        offsets = schema.feature_offsets()
        self.zero = np.subtract(np.zeros(schema.m), mean)
        self.zero /= std
        self.numeric = {}
        for name, col in table.numeric.items():
            j = offsets[name]
            values = np.subtract(col, mean[j])
            values /= std[j]
            self.numeric[name] = (j, values)
        self.hot = []
        zero_occurs = np.zeros(schema.m, dtype=bool)
        for name, (which, bucket, sign) in table.categorical.items():
            pos = offsets[name] + bucket
            values = np.subtract(sign, mean[pos])
            values /= std[pos]
            self.hot.append((which, pos, values))
            # Every code occurs in some row, so each slot of the block holds
            # the zero in some row, unless every row is hot in that slot.
            zero_occurs[offsets[name]:offsets[name] + schema.hash_buckets] = True
            if np.unique(bucket).size == 1:
                zero_occurs[pos[0]] = False
        finite = (np.isfinite(self.zero[zero_occurs]).all()
                  and all(np.isfinite(v).all() for _, v in self.numeric.values())
                  and all(np.isfinite(v).all() for _, _, v in self.hot))
        if not finite:
            raise DataError("x contains non-finite values")
        self.schema, self.y, self.s = schema, table.y, table.s

    def fill(self, rows: slice | np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write ``rows`` (a slice or an index array) into ``out``; return it."""
        out[:] = self.zero
        for j, values in self.numeric.values():
            out[:, j] = values[rows]
        row_ids = np.arange(out.shape[0])
        for which, pos, values in self.hot:
            w = which[rows]
            out[row_ids, pos[w]] = values[w]
        return out

    def dataset(self, rows: slice | np.ndarray) -> Dataset:
        """``rows`` as a Dataset."""
        y = self.y[rows]
        x = self.fill(rows, np.empty((y.shape[0], self.shape[1])))
        return Dataset(x=x, y=y, s=self.s[rows], schema=self.schema)

    def feature(self, name: str) -> np.ndarray:
        """The standardized column of numeric feature ``name``."""
        kinds = {c.name: c.kind for c in self.schema.feature_columns}
        if name not in kinds:
            raise DataError(f"unknown feature {name!r}")
        if kinds[name] != "numeric":
            raise DataError(f"feature {name!r} is not numeric")
        return self.numeric[name][1]


def standardize(
    train: Dataset, others: Sequence[Dataset] = ()
) -> tuple[list[Dataset], np.ndarray, np.ndarray]:
    """Z-score numeric columns of all datasets using train statistics only.

    Uses the population standard deviation; zero-variance columns pass
    through centered. Hashed blocks are untouched. Returns the transformed
    datasets (train first) plus the full-width mean and stdev vectors.
    """
    if train.n == 0:
        raise DataError("cannot standardize an empty training set")
    mean, std = train_statistics(train.schema, train.x[:, train.schema.numeric_positions()])
    out = [apply_standardization(d, mean, std) for d in (train, *others)]
    return out, mean, std


def train_statistics(schema: Schema, numeric: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full-width mean and stdev vectors from the train rows' numeric columns,
    a ``(rows, numeric columns)`` block in schema order.

    Uses the population standard deviation and 1 where a column has zero
    variance; hashed blocks get mean 0 and std 1. The block's memory order
    sets the bits of its column means: ``x[:, pos]`` is column-major.
    """
    pos = schema.numeric_positions()
    mean = float_zeros(schema.m)
    std = np.ones(schema.m, dtype=np.float64)
    if pos.size:
        mean[pos] = numeric.mean(axis=0)
        sd = numeric.std(axis=0)
        std[pos] = np.where(sd == 0.0, 1.0, sd)
    return mean, std


def apply_standardization(d: Dataset, mean: np.ndarray, std: np.ndarray) -> Dataset:
    x = np.subtract(d.x, mean)
    x /= std
    return Dataset(x, d.y, d.s, d.schema, d.clean_y)


def split_rows(n: int, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded disjoint partition of ``range(n)`` into (train, valid, test)."""
    if n < 3:
        raise DataError("need at least 3 rows to split into three parts")
    perm = np.random.default_rng(spec.seed).permutation(n)
    n_train = int(spec.train_fraction * n)
    n_valid = int(spec.valid_fraction * n)
    n_test = n - n_train - n_valid
    if min(n_train, n_valid, n_test) < 1:
        raise DataError(
            f"split of {n} rows leaves an empty part "
            f"(sizes {n_train}/{n_valid}/{n_test})"
        )
    return perm[:n_train], perm[n_train : n_train + n_valid], perm[n_train + n_valid :]


def split_dataset(d: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded disjoint row partition into (train, valid, test)."""
    return tuple(d.take(rows) for rows in split_rows(d.n, spec))


def synth_biased(cfg: SynthConfig) -> Dataset:
    """Generate a biased-label binary classification dataset.

    Per row: group ``g`` is Bernoulli(group_balance), latent ``z`` standard
    normal. Feature 0 is ``z`` plus a group-dependent shift that scales with
    |z| (a group proxy whose signature vanishes at the decision boundary),
    feature 1 is a noisy groupless copy of ``z``, remaining features are
    independent noise. The clean label is Bernoulli(sigmoid(signal_strength
    * z)); the observed label flips with the group's flip rate. Clean labels
    ride along in ``clean_y`` for diagnostics.
    """
    rng = np.random.default_rng(cfg.seed)
    n, k = cfg.n, cfg.m_numeric
    g = (rng.random(n) < cfg.group_balance).astype(np.int64)
    z = rng.standard_normal(n)
    x = np.empty((n, k), dtype=np.float64)
    x[:, 0] = z + GROUP_PROXY_SHIFT * np.abs(z) * g
    if k >= 2:
        x[:, 1] = z + CLEAN_CHANNEL_NOISE * rng.standard_normal(n)
    for j in range(2, k):
        x[:, j] = rng.standard_normal(n)
    p_clean = 1.0 / (1.0 + np.exp(-cfg.signal_strength * z))
    y_clean = (rng.random(n) < p_clean).astype(np.int64)
    flip_rate = np.where(g == 1, cfg.flip_rate_g1, cfg.flip_rate_g0)
    flips = rng.random(n) < flip_rate
    y_obs = np.where(flips, 1 - y_clean, y_clean)
    return Dataset(x=x, y=y_obs, s=g, schema=synth_schema(k), clean_y=y_clean)
