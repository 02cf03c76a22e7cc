"""Tabular data handling: schema-driven CSV loading with signed feature
hashing, train-statistics standardization, seeded splitting, and a
biased-label synthetic generator.

The sensitive column is never encoded into the feature matrix; it is carried
separately and consulted only at evaluation time.
"""

from __future__ import annotations

import codecs
import copy
import csv
import hashlib
import io
import itertools
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
# 4-byte code or 8-byte float per column, not the row's text.
CODE_BLOCK_ROWS = 1024

# Distinct values a label, sensitive or categorical column may hold: its
# codes are int32.
MAX_DISTINCT = 2**31


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


# Bytes per decode: io.TextIOWrapper's chunk size. Decoding in the same
# pieces makes a UnicodeDecodeError name the same byte position.
_PIECE_BYTES = 8192


def _text_pieces(raw, digest):
    """The UTF-8 text of a binary stream, a leading byte-order mark dropped,
    decoded one read of ``_PIECE_BYTES`` at a time; ``digest`` gets every
    byte read, so pipes are hashed too."""
    decode = codecs.getincrementaldecoder("utf-8-sig")().decode
    while piece := raw.read(_PIECE_BYTES):
        digest.update(piece)
        yield decode(piece)
    yield decode(b"", True)


def _lines(text: str, pieces):
    """The lines of ``text`` and then of ``pieces``, each cut after its LF,
    CR or CRLF as io.TextIOWrapper(newline="") cuts them; a piece is read
    only when no whole line is left."""
    held = []
    for piece in itertools.chain((text,), pieces):
        held.append(piece)
        if "\n" in piece or "\r" in piece or held[0].endswith("\r"):
            text = "".join(held)
            cut = max(text.rfind("\n"), text.rfind("\r", 0, len(text) - 1)) + 1
            yield from io.StringIO(text[:cut], newline="")
            held = [text[cut:]]
    if text := "".join(held):
        yield text


def _cells(line: str) -> list[str]:
    """The cells of a plain line, as csv.reader reads them."""
    return line.split(",") if line else []


def _split_block(lines: list[str], width: int):
    """A block of plain lines split at every comma: ``(rows, cells,
    widths)`` as ``_csv_blocks`` yields it."""
    if "" in lines:
        lines = [line for line in lines if line]  # a blank line is no row
    if not lines:
        return 0, [], None
    commas = list(map(str.count, lines, itertools.repeat(",")))
    widths = None if commas.count(width - 1) == len(commas) else [k + 1 for k in commas]
    return len(lines), ",".join(lines).split(","), widths


def _row_block(rows: list[list[str]], width: int):
    """A block of csv.reader rows as ``_csv_blocks`` yields it."""
    rows = [r for r in rows if r]
    widths = list(map(len, rows))
    return (len(rows), list(itertools.chain.from_iterable(rows)),
            None if widths.count(width) == len(widths) else widths)


def _blocks(pieces):
    """The header row of the text in ``pieces`` (None if it has no line),
    then blocks of its rows as ``_csv_blocks`` yields them.

    Lines without a ``"``, CR or NUL, none longer than the csv field
    limit, are split at their commas into the rows csv.reader would give.
    From the line start before the first piece that fails this test to the
    end, the rows come from csv.reader."""
    limit, size = csv.field_size_limit(), CODE_BLOCK_ROWS
    lines, held, width = [], [], None
    for piece in pieces:
        held.append(piece)
        if '"' in piece or "\r" in piece or "\x00" in piece:
            break
        if "\n" not in piece:
            continue
        text = "".join(held)
        cut = text.rfind("\n")
        more = text[:cut].split("\n")
        if cut > limit and max(map(len, more)) > limit:
            break
        held = [text[cut + 1:]]
        lines += more
        if width is None:
            header = _cells(lines.pop(0))
            yield header
            width = len(header)
        while len(lines) >= size:
            yield _split_block(lines[:size], width)
            del lines[:size]
    else:  # end of file: what is held is a last line without its \n
        if len(tail := "".join(held)) <= limit:
            held = []
            lines += [tail] if tail else []
    if width is None and lines:
        header = _cells(lines.pop(0))
        yield header
        width = len(header)
    for i in range(0, len(lines), size):
        yield _split_block(lines[i:i + size], width)
    if not held:
        if width is None:
            yield None
        return
    reader = csv.reader(_lines("".join(held), pieces))
    if width is None:
        header = next(reader, None)
        yield header
        width = len(header or ())
    while block := list(itertools.islice(reader, size)):
        yield _row_block(block, width)


def _csv_blocks(path: str | Path, what: str, digest):
    """Yield the header of a UTF-8 CSV, its names stripped of spaces and of
    a leading byte-order mark, then its nonblank rows in blocks of at most
    ``CODE_BLOCK_ROWS``, each as ``(rows, cells, widths)``: the number of
    rows, all their cells row after row, and None if each row has as many
    cells as the header, else each row's cell count. Every byte read goes
    to ``digest``, a hashlib hash, the mark included. A missing, empty or
    unreadable file is a DataError naming ``what`` it was, raised where the
    reading stops."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing {what}: {path}")
    try:
        with path.open("rb", buffering=0) as raw:
            blocks = _blocks(_text_pieces(raw, digest))
            header = next(blocks)
            if header is None:
                raise DataError(f"empty {what}: {path}")
            yield [name.strip() for name in header]
            yield from blocks
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


def _score_cell(cell: str) -> float:
    """A probability in [0, 1]; ``nan``, ``inf``, ``1.7`` or ``-0.7`` is a
    ValueError."""
    value = float(cell)
    if not 0.0 <= value <= 1.0:  # NaN compares false
        raise ValueError(f"score cell {cell!r} outside [0, 1]")
    return value


def read_predictions(path: str | Path):
    """The int64 pred, label and group columns, the float64 score column (or
    None) and the SHA-256 of the bytes read of a predictions CSV, parsed in
    blocks of ``CODE_BLOCK_ROWS`` rows. Errors keep the precedence of reading
    the whole file first: a read error anywhere, then missing columns, the
    first row in file order with a bad or missing cell, then no rows."""
    path, digest = Path(path), hashlib.sha256()
    blocks = _csv_blocks(path, "predictions file", digest)
    header, need = next(blocks), ["group", "label", "pred"]
    error = None if set(need) <= set(header) \
        else f"predictions file needs columns {need}, got {header}"
    ip, il, ig, js = (header.index(name) if name in header else None
                      for name in ("pred", "label", "group", "score"))
    columns = [_Column(np.int64) for _ in range(3)] + [_Column(np.float64)]
    for rows, cells, widths in blocks:
        if error is not None or not rows:
            continue  # a read error later in the file comes first
        cell = iter(cells)
        pred, label, group, score = [], [], [], []
        try:
            for width in widths or itertools.repeat(len(header), rows):
                row = list(itertools.islice(cell, width))
                pred.append(_integer_cell(row[ip]))
                label.append(_integer_cell(row[il]))
                group.append(_integer_cell(row[ig]))
                if js is not None:
                    score.append(_score_cell(row[js]))
        except (IndexError, ValueError):
            error = f"unparseable predictions row {row!r}"
            continue
        for column, part in zip(columns, (pred, label, group, score)):
            column.append(part)
    if error is not None:
        raise DataError(error)
    if not columns[0].n:
        raise DataError(f"predictions file {path} has no rows")
    pred, label, group, score = (column.array() for column in columns)
    return pred, label, group, score if js is not None else None, digest.hexdigest()


class _Column:
    """One column's values, block after block, in one array that doubles in
    place when it is full. No per-block parts are kept and joined, so the
    coder leaves no heap of freed parts behind for later buffers to miss."""

    def __init__(self, dtype) -> None:
        self.values, self.n = np.empty(0, dtype), 0

    def append(self, part) -> None:
        """Add ``part``, a 1-d array or a list of values."""
        end = self.n + len(part)
        if end > self.values.size:
            self.values.resize(max(2 * self.values.size, end), refcheck=False)
        self.values[self.n:end] = part
        self.n = end

    def array(self) -> np.ndarray:
        """The values, trimmed to length; the column takes no more."""
        values, self.values = self.values, None
        values.resize(self.n, refcheck=False)
        return values


class _Codes:
    """First-appearance codes of one column's cells, block by block: each
    distinct cell is keyed once per file, each row keeps one int32. A cell
    past ``MAX_DISTINCT`` distinct values is kept as the column's error and
    ends its coding."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.index: dict[str, int] = {}
        self.codes = _Column(np.int32)
        self.first_empty: int | None = None
        self.error: str | None = None

    def add(self, cells: list[str], base: int) -> None:
        """Code a block's cells, spaces stripped. Keys are stripped, so a
        cell that is a key needs no strip; only a block holding a cell that
        is not strips its cells and runs the pass that keys new values."""
        if self.error is not None:
            return
        index = self.index
        try:
            codes = np.fromiter(map(index.__getitem__, cells), np.int32, len(cells))
        except KeyError:
            cells = list(map(str.strip, cells))
            for v in dict.fromkeys(cells):
                if v not in index:
                    if len(index) == MAX_DISTINCT:
                        self.error = (f"column {self.name!r} holds more than "
                                      f"{MAX_DISTINCT} distinct values, row "
                                      f"{base + cells.index(v) + 2}")
                        return
                    index[v] = len(index)
                    if v == "":
                        self.first_empty = base + cells.index("")
            codes = np.fromiter(map(index.__getitem__, cells), np.int32, len(cells))
        self.codes.append(codes)

    def which(self) -> np.ndarray:
        """Each row's code."""
        if self.error is not None:
            raise DataError(self.error)
        return self.codes.array()


class _Floats:
    """One numeric column's floats, block by block. Its first bad cell is
    kept as the column's error and ends its coding; the per-cell loop runs
    only in a block where some cell does not parse."""

    def __init__(self, name: str, impute_missing: bool) -> None:
        self.name, self.impute_missing = name, impute_missing
        self.values = _Column(np.float64)
        self.missing: list[int] = []
        self.error: str | None = None

    def add(self, cells: list[str], base: int) -> None:
        """Parse a block's cells; ``float`` reads past the spaces that
        ``str.strip`` strips, so only the per-cell loop strips them."""
        if self.error is not None:
            return
        try:
            self.values.append(np.fromiter(map(float, cells), dtype=np.float64,
                                           count=len(cells)))
            return
        except ValueError:
            pass
        col = np.empty(len(cells), dtype=np.float64)
        for i, cell in enumerate(map(str.strip, cells)):
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
        self.values.append(col)

    def column(self) -> np.ndarray:
        if self.error is not None:
            raise DataError(self.error)
        col = self.values.array()
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
    """A CSV table coded per row, without its feature matrix: the int64
    labels, the int32 group ids, each numeric column's floats and, for each
    categorical column, each row's int32 cell code with the int64 (bucket,
    sign) of each code. Codes count distinct values in order of first
    appearance, so a column holds at most ``MAX_DISTINCT``. Columns are
    keyed by name, in schema order; every code occurs in some row.
    ``sha256`` is the hex SHA-256 of the bytes the coder read.
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
    cell, a label or sensitive column past ``MAX_DISTINCT`` distinct
    values, the label coding, then each feature column's first error in
    schema order. Rows are numbered among the nonblank rows, the header
    being row 1.
    """
    digest = hashlib.sha256()
    blocks = _csv_blocks(path, "file", digest)
    header = next(blocks)
    want = [c.name for c in schema.columns]
    if sorted(header) != sorted(want):
        for _ in blocks:  # a read error later in the file comes first
            pass
        raise DataError(
            f"header mismatch: file has {header!r}, schema expects {sorted(want)!r}"
        )
    coders = {c.name: _Floats(c.name, impute_missing) if c.kind == "numeric"
              else _Codes(c.name) for c in schema.columns}
    at = [(header.index(name), coder) for name, coder in coders.items()]
    n, ragged, width = 0, None, len(header)
    for rows, cells, widths in blocks:
        if ragged is None:
            if widths is not None:
                i = next(i for i, k in enumerate(widths) if k != width)
                ragged = f"row {n + i + 2}: expected {width} cells, got {widths[i]}"
            elif rows:
                for j, coder in at:
                    coder.add(cells[j::width], n)
        n += rows
    if n == 0:
        raise DataError(f"empty file: {path} has a header but no rows")
    if ragged is not None:
        raise DataError(ragged)

    label, group = coders[schema.label_column], coders[schema.sensitive_column]
    if label.first_empty is not None:
        raise DataError("missing label cell")
    if group.first_empty is not None:
        raise DataError("missing sensitive cell")
    codes, s = label.which(), group.which()
    y = _map_labels(list(label.index), codes)
    numeric, categorical = {}, {}
    for c in schema.feature_columns:
        coder = coders[c.name]
        if c.kind == "numeric":
            numeric[c.name] = coder.column()
            continue
        if coder.first_empty is not None and not impute_missing:
            raise DataError(f"missing cell in categorical column {c.name!r}, "
                            f"row {coder.first_empty + 2}")
        which = coder.which()
        # One hash per distinct value, in order of first appearance.
        pairs = [hash_features(v, c.name, schema.hash_buckets) for v in coder.index]
        bucket, sign = np.array(pairs, dtype=np.int64).T
        categorical[c.name] = (which, bucket, sign)
    return CodedTable(schema, y, s, numeric, categorical, digest.hexdigest())


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
    for, never whole; the one path from codes to rows (audit chunks, train's
    matrix and its coded valid and test rows, and ``load_csv`` with mean 0
    and std 1, which is exact). ``y``, ``s`` and ``sha256`` are the table's.

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
        # The numeric columns as one (n, k) block in schema order, column i
        # at position numeric_pos[i] of a row: one gather and one store per fill.
        self.numeric_index = {name: i for i, name in enumerate(table.numeric)}
        self.numeric_pos = schema.numeric_positions()
        self.numeric = np.empty((table.n, self.numeric_pos.size))
        for i, col in enumerate(table.numeric.values()):
            self.numeric[:, i] = col
        self.numeric -= mean[self.numeric_pos]
        self.numeric /= std[self.numeric_pos]
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
                  and np.isfinite(self.numeric).all()
                  and all(np.isfinite(v).all() for _, _, v in self.hot))
        if not finite:
            raise DataError("x contains non-finite values")
        self.schema, self.y, self.s, self.sha256 = schema, table.y, table.s, table.sha256
        self.shift = None

    def take(self, rows: np.ndarray) -> StandardizedRows:
        """A copy holding only ``rows``, an index array, in its order: their
        codes, standardized numeric values, labels and groups, copied out,
        so the whole table's arrays need not stay alive. Each code's value
        and the zero row are shared; built rows are those rows' bits."""
        out = copy.copy(self)
        out.y, out.s = self.y[rows], self.s[rows]
        out.shape = (out.y.shape[0], self.shape[1])
        out.numeric = self.numeric[rows]
        out.hot = [(which[rows], pos, values) for which, pos, values in self.hot]
        return out

    def shifted(self, shift: np.ndarray) -> StandardizedRows:
        """These rows plus ``shift``, a vector of width m: each built cell is
        its value plus its column's entry of ``shift``, one add per cell, as
        ``np.add(rows, shift)`` would give on the built rows. The zero row
        and each code's hot value are shifted here, once; numeric cells as
        they are built."""
        out = copy.copy(self)
        out.zero = self.zero + shift
        out.hot = [(which, pos, values + shift[pos]) for which, pos, values in self.hot]
        out.shift = shift
        return out

    def fill(self, rows: slice | np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write ``rows`` (a slice or an index array) into ``out``, a
        C-contiguous array of their shape; return it. Each categorical
        column's hot cells go in with one store into ``out``'s flat view."""
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        out[:] = self.zero
        numeric = self.numeric[rows]
        out[:, self.numeric_pos] = numeric if self.shift is None \
            else numeric + self.shift[self.numeric_pos]
        flat = out.reshape(-1)
        row_starts = np.arange(0, flat.size, out.shape[1])
        for which, pos, values in self.hot:
            # One cast for both gathers: numpy would cast int32 codes at each.
            w = which[rows].astype(np.intp)
            flat[row_starts + pos[w]] = values[w]
        return out

    def dataset(self, rows: slice | np.ndarray) -> Dataset:
        """``rows`` as a Dataset."""
        y = self.y[rows]
        x = self.fill(rows, np.empty((y.shape[0], self.shape[1])))
        return Dataset(x=x, y=y, s=self.s[rows], schema=self.schema)

    def feature(self, name: str) -> np.ndarray:
        """A copy of the standardized column of numeric feature ``name``,
        which keeps none of the other columns alive."""
        kinds = {c.name: c.kind for c in self.schema.feature_columns}
        if name not in kinds:
            raise DataError(f"unknown feature {name!r}")
        if kinds[name] != "numeric":
            raise DataError(f"feature {name!r} is not numeric")
        return self.numeric[:, self.numeric_index[name]].copy()


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
