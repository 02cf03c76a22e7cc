import contextlib
import csv
import hashlib
import io
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reckoner import data
from reckoner.cli import _prepare_data
from reckoner.data import (
    ColumnSpec,
    Dataset,
    Schema,
    SplitSpec,
    SynthConfig,
    code_csv,
    hash_features,
    load_csv,
    read_predictions,
    split_dataset,
    standardize,
    synth_biased,
)
from reckoner.errors import ConfigError, DataError


def fnv1a64_oracle(text: str) -> int:
    """Independent FNV-1a reimplementation from the published constants."""
    h = 14695981039346656037
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 1099511628211) % (1 << 64)
    return h


class TestHashFeatures:
    def test_deterministic(self):
        assert hash_features("A", "race", 8) == hash_features("A", "race", 8)

    def test_range(self):
        for v in ("Alpha", "Beta", "Gamma", "", "ünïcode"):
            idx, sign = hash_features(v, "col", 16)
            assert 0 <= idx < 16
            assert sign in (1, -1)

    def test_golden_value(self):
        # Frozen from the independent digest: fnv1a64("race:A").
        digest = fnv1a64_oracle("race:A")
        assert digest == 4529142942310221381
        expect_idx = digest & 7
        expect_sign = 1 if ((digest >> 3) & 1) == 0 else -1
        assert hash_features("A", "race", 8) == (expect_idx, expect_sign) == (5, 1)

    def test_matches_oracle_for_many_inputs(self):
        for i in range(50):
            val, col = f"v{i}", f"c{i % 3}"
            digest = fnv1a64_oracle(f"{col}:{val}")
            for buckets in (2, 8, 64):
                idx, sign = hash_features(val, col, buckets)
                assert idx == digest % buckets
                bit = (digest >> (buckets.bit_length() - 1)) & 1
                assert sign == (1 if bit == 0 else -1)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            hash_features("A", "race", 12)
        with pytest.raises(ConfigError):
            hash_features("A", "race", 1)


class TestSchema:
    def test_m_counts_numeric_and_hashed_blocks(self):
        schema = Schema(columns=(
            ColumnSpec("age", "numeric"),
            ColumnSpec("job", "categorical"),
            ColumnSpec("y", "label"),
            ColumnSpec("s", "sensitive"),
        ), hash_buckets=16)
        assert schema.m == 1 + 16
        assert schema.feature_offsets() == {"age": 0, "job": 1}

    def test_requires_exactly_one_label_and_sensitive(self):
        with pytest.raises(ConfigError):
            Schema(columns=(ColumnSpec("a", "numeric"), ColumnSpec("s", "sensitive")))
        with pytest.raises(ConfigError):
            Schema(columns=(ColumnSpec("a", "numeric"), ColumnSpec("y", "label"),
                            ColumnSpec("s1", "sensitive"), ColumnSpec("s2", "sensitive")))

    def test_rejects_bad_buckets(self):
        cols = (ColumnSpec("a", "categorical"), ColumnSpec("y", "label"),
                ColumnSpec("s", "sensitive"))
        with pytest.raises(ConfigError):
            Schema(columns=cols, hash_buckets=12)

    def test_roundtrips_through_dict(self):
        schema = Schema(columns=(ColumnSpec("a", "numeric"), ColumnSpec("y", "label"),
                                 ColumnSpec("s", "sensitive")), hash_buckets=32)
        assert Schema.from_dict(schema.to_dict()) == schema


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_minimal_file(self, tmp_path):
        schema = Schema(columns=(ColumnSpec("a", "numeric"), ColumnSpec("y", "label"),
                                 ColumnSpec("s", "sensitive")))
        p = write_csv(tmp_path / "d.csv", "a,y,s\n1.5,0,x\n2.5,1,y\n3.5,1,x\n")
        d = load_csv(p, schema)
        assert d.n == 3 and d.m == 1
        assert d.x[:, 0].tolist() == [1.5, 2.5, 3.5]
        assert d.y.tolist() == [0, 1, 1]
        assert d.s.tolist() == [0, 1, 0]  # insertion order of first appearance

    def test_non_binary_label_rejected(self, tmp_path):
        schema = Schema(columns=(ColumnSpec("a", "numeric"), ColumnSpec("y", "label"),
                                 ColumnSpec("s", "sensitive")))
        p = write_csv(tmp_path / "d.csv", "a,y,s\n1,yes,x\n2,no,y\n3,maybe,x\n")
        with pytest.raises(DataError, match="non-binary label"):
            load_csv(p, schema)

    def test_sensitive_column_excluded_from_features(self, tmp_path):
        # COMPAS-shaped: Race is carried in s, never encoded into x.
        schema = Schema(columns=(
            ColumnSpec("Age", "numeric"),
            ColumnSpec("Priors", "numeric"),
            ColumnSpec("ChargeDegree", "categorical"),
            ColumnSpec("Race", "sensitive"),
            ColumnSpec("TwoYearRecid", "label"),
        ), hash_buckets=8)
        body = ("Age,Priors,ChargeDegree,Race,TwoYearRecid\n"
                "25,0,F,African-American,1\n"
                "31,2,M,Caucasian,0\n"
                "47,1,F,African-American,0\n")
        d = load_csv(write_csv(tmp_path / "c.csv", body), schema)
        assert d.m == 2 + 8
        assert sorted(np.unique(d.s).tolist()) == [0, 1]
        # Permuting the sensitive column leaves x untouched.
        body2 = ("Age,Priors,ChargeDegree,Race,TwoYearRecid\n"
                 "25,0,F,Caucasian,1\n"
                 "31,2,M,African-American,0\n"
                 "47,1,F,Caucasian,0\n")
        d2 = load_csv(write_csv(tmp_path / "c2.csv", body2), schema)
        np.testing.assert_array_equal(d.x, d2.x)

    def test_categorical_hashing_places_sign_in_block(self, tmp_path):
        schema = Schema(columns=(ColumnSpec("cat", "categorical"),
                                 ColumnSpec("y", "label"),
                                 ColumnSpec("s", "sensitive")), hash_buckets=8)
        d = load_csv(write_csv(tmp_path / "d.csv", "cat,y,s\nA,0,g\nB,1,h\nA,1,g\n"),
                     schema)
        idx_a, sign_a = hash_features("A", "cat", 8)
        assert d.x[0, idx_a] == sign_a
        assert np.abs(d.x[0]).sum() == 1
        np.testing.assert_array_equal(d.x[0], d.x[2])

    def test_missing_file(self, tmp_path):
        schema = Schema(columns=(ColumnSpec("a", "numeric"), ColumnSpec("y", "label"),
                                 ColumnSpec("s", "sensitive")))
        with pytest.raises(DataError, match="missing file"):
            load_csv(tmp_path / "nope.csv", schema)

    def test_header_mismatch(self, tmp_path):
        schema = Schema(columns=(ColumnSpec("a", "numeric"), ColumnSpec("y", "label"),
                                 ColumnSpec("s", "sensitive")))
        p = write_csv(tmp_path / "d.csv", "a,b,s\n1,0,x\n")
        with pytest.raises(DataError, match="header mismatch"):
            load_csv(p, schema)

    def test_unparseable_numeric(self, tmp_path):
        schema = Schema(columns=(ColumnSpec("a", "numeric"), ColumnSpec("y", "label"),
                                 ColumnSpec("s", "sensitive")))
        p = write_csv(tmp_path / "d.csv", "a,y,s\noops,0,x\n1,1,y\n")
        with pytest.raises(DataError, match="unparseable numeric"):
            load_csv(p, schema)

    def test_empty_file(self, tmp_path):
        schema = Schema(columns=(ColumnSpec("a", "numeric"), ColumnSpec("y", "label"),
                                 ColumnSpec("s", "sensitive")))
        with pytest.raises(DataError, match="empty file"):
            load_csv(write_csv(tmp_path / "e.csv", ""), schema)
        with pytest.raises(DataError, match="empty file"):
            load_csv(write_csv(tmp_path / "h.csv", "a,y,s\n"), schema)

    def test_missing_cell_is_hard_error_unless_imputed(self, tmp_path):
        schema = Schema(columns=(ColumnSpec("a", "numeric"), ColumnSpec("y", "label"),
                                 ColumnSpec("s", "sensitive")))
        p = write_csv(tmp_path / "d.csv", "a,y,s\n1,0,x\n,1,y\n3,1,x\n")
        with pytest.raises(DataError, match="missing cell"):
            load_csv(p, schema)
        d = load_csv(p, schema, impute_missing=True)
        assert d.x[1, 0] == pytest.approx(2.0)  # mean of 1 and 3

    @pytest.mark.parametrize("head", [b"\xef\xbb\xbfa,c,y,s\n", b" a , c,y,s \n",
                                      b"\xef\xbb\xbf a,c , y,s\n"],
                             ids=["bom", "spaced-header", "bom-and-spaces"])
    def test_byte_order_mark_and_spaced_header(self, tmp_path, head):
        """A leading UTF-8 byte-order mark and spaces around header names
        are read past; the SHA-256 is still that of the file's bytes."""
        schema = Schema(columns=(ColumnSpec("a", "numeric"), ColumnSpec("c", "categorical"),
                                 ColumnSpec("y", "label"), ColumnSpec("s", "sensitive")),
                        hash_buckets=4)
        body = b"1.5,k,0,x\n2.5,j,1,y\n3.5,k,1,x\n"
        plain = tmp_path / "plain.csv"
        plain.write_bytes(b"a,c,y,s\n" + body)
        other = tmp_path / "other.csv"
        other.write_bytes(head + body)
        want, got = code_csv(plain, schema), code_csv(other, schema)
        assert got.sha256 == hashlib.sha256(head + body).hexdigest() != want.sha256
        assert got.y.tolist() == want.y.tolist() and got.s.tolist() == want.s.tolist()
        assert got.numeric["a"].tobytes() == want.numeric["a"].tobytes()
        for g, w in zip(got.categorical["c"], want.categorical["c"]):
            assert g.tolist() == w.tolist()
        assert load_csv(other, schema).x.tobytes() == load_csv(plain, schema).x.tobytes()

    def test_encoding_is_pure(self, tmp_path):
        schema = Schema(columns=(ColumnSpec("a", "numeric"),
                                 ColumnSpec("c", "categorical"),
                                 ColumnSpec("y", "label"),
                                 ColumnSpec("s", "sensitive")), hash_buckets=4)
        p = write_csv(tmp_path / "d.csv", "a,c,y,s\n1,u,0,x\n2,v,1,y\n")
        d1, d2 = load_csv(p, schema), load_csv(p, schema)
        np.testing.assert_array_equal(d1.x, d2.x)


def _map_labels(raw: list[str]) -> np.ndarray:
    distinct: list[str] = []
    for v in raw:
        if v not in distinct:
            distinct.append(v)
    if len(distinct) > 2:
        raise DataError(f"non-binary label: {len(distinct)} distinct values")
    try:
        as_num = {v: float(v) for v in distinct}
    except ValueError:
        as_num = None
    if as_num is not None and set(as_num.values()) <= {0.0, 1.0}:
        mapping = {v: int(as_num[v]) for v in distinct}
    elif len(distinct) == 2:
        lo, hi = sorted(distinct)
        mapping = {lo: 0, hi: 1}
    else:
        raise DataError(f"label column has a single unmappable value {distinct[0]!r}")
    return np.array([mapping[v] for v in raw], dtype=np.int64)


def _map_groups(raw: list[str]) -> np.ndarray:
    ids: dict[str, int] = {}
    for v in raw:
        if v not in ids:
            ids[v] = len(ids)
    return np.array([ids[v] for v in raw], dtype=np.int64)


def read_csv_rows_whole(path, what: str = "file") -> tuple[list[str], list[list[str]]]:
    """The whole-file CSV reader as it was before the block coder: csv.reader
    over io.TextIOWrapper, reading past a byte-order mark and stripping the
    header names, as every CSV reader does."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing {what}: {path}")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [r for r in reader if r]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    if header is None:
        raise DataError(f"empty {what}: {path}")
    return [name.strip() for name in header], rows


def load_csv_per_cell(path, schema: Schema, impute_missing: bool = False) -> Dataset:
    """Reference encoder: one ``float`` or ``hash_features`` call and one
    add per cell, the loader as it was before the column-at-once encoding,
    with the label and group coders (above, verbatim) as they were before
    the one first-appearance coder, on the whole-file reader (above)."""
    header, rows = read_csv_rows_whole(path)
    want = [c.name for c in schema.columns]
    if sorted(header) != sorted(want):
        raise DataError(
            f"header mismatch: file has {header!r}, schema expects {sorted(want)!r}"
        )
    if not rows:
        raise DataError(f"empty file: {path} has a header but no rows")
    col_at = {name: header.index(name) for name in want}
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"row {i + 2}: expected {len(header)} cells, got {len(row)}")
    label_at, sens_at = col_at[schema.label_column], col_at[schema.sensitive_column]
    label_raw = [row[label_at].strip() for row in rows]
    sens_raw = [row[sens_at].strip() for row in rows]
    if any(v == "" for v in label_raw):
        raise DataError("missing label cell")
    if any(v == "" for v in sens_raw):
        raise DataError("missing sensitive cell")
    y = _map_labels(label_raw)
    s = _map_groups(sens_raw)
    x = np.zeros((n, schema.m), dtype=np.float64)
    offsets = schema.feature_offsets()
    for c in schema.feature_columns:
        j = col_at[c.name]
        cells = [row[j].strip() for row in rows]
        if c.kind == "numeric":
            col = np.empty(n, dtype=np.float64)
            missing = []
            for i, cell in enumerate(cells):
                if cell == "":
                    if not impute_missing:
                        raise DataError(f"missing cell in numeric column {c.name!r}, row {i + 2}")
                    missing.append(i)
                    col[i] = np.nan
                    continue
                try:
                    col[i] = float(cell)
                except ValueError:
                    raise DataError(
                        f"unparseable numeric cell {cell!r} in column {c.name!r}, row {i + 2}"
                    ) from None
            if missing:
                present = np.delete(col, missing)
                if present.size == 0:
                    raise DataError(f"numeric column {c.name!r} is entirely missing")
                col[missing] = present.mean()
            if not np.isfinite(col).all():
                raise DataError(f"non-finite value in numeric column {c.name!r}")
            x[:, offsets[c.name]] = col
        else:
            base = offsets[c.name]
            for i, cell in enumerate(cells):
                if cell == "" and not impute_missing:
                    raise DataError(f"missing cell in categorical column {c.name!r}, row {i + 2}")
                idx, sign = hash_features(cell, c.name, schema.hash_buckets)
                x[i, base + idx] += sign
    return Dataset(x=x, y=y, s=s, schema=schema)


def load_outcome(loader, path, schema, impute_missing):
    try:
        return loader(path, schema, impute_missing)
    except DataError as exc:
        return str(exc)


# Few distinct values so that they repeat; padding, empty and bad cells so
# that the error paths and their row numbers are compared too. Label and
# group columns draw from a small alphabet of their own per table, so that
# two-value, one-value and too-many-value label columns all occur. The
# spaces around cells are ones that str.strip strips: no-break, ideographic,
# and \x1f, which float does not read past.
CATEGORICAL_CELLS = st.sampled_from(["a", "b", " a", "a ", "ü", "", "  ", "1", "\xa0a",
                                     "a\u3000"])
LABEL_CELLS = st.sampled_from(["0", "1", "yes", "no", " 1", "1.0", "-0", "2", "", "Yes",
                               "1\xa0"])
GROUP_CELLS = st.sampled_from(["g", "h", " g", "0", "1", "ü", "x y", "", "10", "\u3000g"])
NUMERIC_CELLS = st.sampled_from(["0", "1.5", " -2 ", "1e3", "-0", "1_0", "", "x",
                                 "nan", "inf", "\xa01.5", "2\u3000", "\x1f3"]) \
    | st.floats(-1e6, 1e6).map(repr)
# Cells that send the reader to csv.reader: csv.writer quotes a comma, a
# quote or a line end, and csv.reader rejects a NUL on Python 3.10 only.
CSV_ONLY_CELLS = st.sampled_from(["x,y", 'q"t', "n\nl", "c\rr", "z\x00", '"'])


@st.composite
def csv_bytes(draw, rows: list[list[str]]) -> bytes:
    """``rows`` as csv.writer writes them, with CRLF or LF line ends; now and
    then with a cell that only csv.reader reads, in any row but the first,
    with a byte-order mark, with one LF turned into a lone CR, or with a
    byte that is not UTF-8."""
    rows = [list(row) for row in rows]
    if draw(st.integers(0, 3)) == 0 and any(rows[1:]):
        row = draw(st.sampled_from([row for row in rows[1:] if row]))
        row[draw(st.integers(0, len(row) - 1))] += draw(CSV_ONLY_CELLS)
    buf = io.StringIO()
    csv.writer(buf, lineterminator=draw(st.sampled_from(["\r\n", "\n"]))).writerows(rows)
    text = buf.getvalue()
    if draw(st.integers(0, 7)) == 0 and "\n" in text:
        at = draw(st.sampled_from([i for i, c in enumerate(text) if c == "\n"]))
        text = text[:at] + "\r" + text[at + 1:]
    raw = ("\ufeff" if draw(st.integers(0, 3)) == 0 else "").encode() + text.encode()
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"])) + raw[at:]
    return raw


@st.composite
def csv_tables(draw):
    """A schema and the bytes of a CSV for it: header columns in any order,
    some rows ragged (a cell short or one too many), some blank."""
    kinds = draw(st.lists(st.sampled_from(["numeric", "categorical"]),
                          min_size=1, max_size=4))
    names = [f"c{i}" for i in range(len(kinds))]
    schema = Schema(columns=tuple(ColumnSpec(n, k) for n, k in zip(names, kinds))
                    + (ColumnSpec("y", "label"), ColumnSpec("s", "sensitive")),
                    hash_buckets=draw(st.sampled_from([2, 4, 16])))
    n = draw(st.integers(1, 30))
    columns = [draw(st.lists(NUMERIC_CELLS if k == "numeric" else CATEGORICAL_CELLS,
                             min_size=n, max_size=n)) for k in kinds]
    for cells in (LABEL_CELLS, GROUP_CELLS):
        alphabet = draw(st.lists(cells, min_size=1, max_size=4, unique=True))
        columns.append(draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n)))
    header = names + ["y", "s"]
    order = draw(st.permutations(range(len(header))))
    rows = [[row[j] for j in order] for row in [header, *map(list, zip(*columns))]]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        row = rows[draw(st.integers(1, n))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append("extra")
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(1, len(rows))), [])
    return schema, draw(csv_bytes(rows))


@contextlib.contextmanager
def field_size_limit(limit: int | None):
    """csv's field size limit set to ``limit`` (if not None) inside."""
    old = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        yield
    finally:
        csv.field_size_limit(old)


# Ten plain rows among blank lines, then a quoted cell: in blocks of 1 to 3
# rows, the reader switches to csv.reader after coding several blocks.
LATE_QUOTE = (
    Schema(columns=(ColumnSpec("c0", "categorical"), ColumnSpec("c1", "numeric"),
                    ColumnSpec("y", "label"), ColumnSpec("s", "sensitive")), hash_buckets=4),
    b"c0,c1,y,s\n" + b"a,1.5,0,g\n\nb,2,1,h\n" * 5 + b'"a,b",3,1,g\n' + b"b,4,0,g\n" * 3,
)


@settings(max_examples=200, deadline=None)
@given(table=csv_tables(), impute_missing=st.booleans(),
       limit=st.sampled_from([None, None, None, 4, 12]))
@example(table=LATE_QUOTE, impute_missing=False, limit=None)
@example(table=LATE_QUOTE, impute_missing=False, limit=6)
def test_load_csv_matches_per_cell_reference(tmp_path_factory, table, impute_missing, limit):
    """Arrays, messages and row numbers match the per-cell loader on
    csv.reader, with the coder's blocks cut after every row, every 2 or 3
    rows, or at the default size, and with csv's field size limit lowered."""
    schema, content = table
    path = tmp_path_factory.mktemp("eq") / "d.csv"
    path.write_bytes(content)
    with field_size_limit(limit):
        want = load_outcome(load_csv_per_cell, path, schema, impute_missing)
        for block_rows in (1, 2, 3, data.CODE_BLOCK_ROWS):
            with mock.patch.object(data, "CODE_BLOCK_ROWS", block_rows):
                got = load_outcome(load_csv, path, schema, impute_missing)
            if isinstance(want, str):
                assert got == want, block_rows
                continue
            assert isinstance(got, Dataset), (block_rows, got)
            assert got.x.shape == want.x.shape
            assert np.array_equal(got.x, want.x) and got.x.tobytes() == want.x.tobytes()
            assert got.y.tobytes() == want.y.tobytes() and got.y.dtype == want.y.dtype
            assert got.s.tobytes() == want.s.tobytes() and got.s.dtype == want.s.dtype


def assert_same_codes(got: data.CodedTable, want: data.CodedTable) -> None:
    """Equal codes, labels, groups and floats, bit for bit."""
    assert got.y.tobytes() == want.y.tobytes() and got.s.tobytes() == want.s.tobytes()
    assert got.numeric.keys() == want.numeric.keys()
    for name, col in want.numeric.items():
        assert got.numeric[name].tobytes() == col.tobytes()
    assert got.categorical.keys() == want.categorical.keys()
    for name, arrays in want.categorical.items():
        for g, w in zip(got.categorical[name], arrays):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_plain_lines_skip_csv_reader(tmp_path):
    """A file with no quote, carriage return or NUL is coded without
    csv.reader; its quoted twin goes through csv.reader to equal codes."""
    schema = Schema(columns=(ColumnSpec("a", "numeric"), ColumnSpec("c", "categorical"),
                             ColumnSpec("y", "label"), ColumnSpec("s", "sensitive")),
                    hash_buckets=4)
    rows = [["a", "c", "y", "s"]] + [[f"{i / 4}", " kj"[i % 3] + "v", str(i % 2), "gh"[i % 5 < 2]]
                                     for i in range(3000)]
    plain = tmp_path / "plain.csv"
    plain.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    quoted = tmp_path / "quoted.csv"
    with quoted.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(rows)
    with mock.patch("reckoner.data.csv.reader", side_effect=AssertionError("csv.reader")):
        got = code_csv(plain, schema)
    with mock.patch("reckoner.data.csv.reader", wraps=csv.reader) as reader:
        want = code_csv(quoted, schema)
    assert reader.called and got.n == want.n == 3000
    assert got.sha256 == hashlib.sha256(plain.read_bytes()).hexdigest()
    assert_same_codes(got, want)


def read_predictions_whole(path):
    """The predictions reader as it was before the block reader: the
    whole-file reader (above), then each row's cells parsed in turn."""
    header, rows = read_csv_rows_whole(path, "predictions file")
    need = {"pred", "label", "group"}
    if not need <= set(header):
        raise DataError(f"predictions file needs columns {sorted(need)}, got {header}")
    col = {name: header.index(name) for name in (*need, "score") if name in header}
    has_score = "score" in col
    preds, labels, groups, scores = [], [], [], []
    for row in rows:
        try:
            preds.append(data._integer_cell(row[col["pred"]]))
            labels.append(data._integer_cell(row[col["label"]]))
            groups.append(data._integer_cell(row[col["group"]]))
            if has_score:
                scores.append(data._score_cell(row[col["score"]]))
        except (IndexError, ValueError) as exc:
            raise DataError(f"unparseable predictions row {row!r}") from exc
    if not preds:
        raise DataError(f"predictions file {path} has no rows")
    return (np.array(preds), np.array(labels), np.array(groups),
            np.array(scores) if has_score else None,
            hashlib.sha256(Path(path).read_bytes()).hexdigest())


def predictions_outcome(reader, path):
    try:
        return reader(path)
    except DataError as exc:
        return str(exc)


PREDICTION_CELLS = st.sampled_from(["0", "1", "1.0", "-3", "0.5", "", " 1", "x", "nan",
                                    "inf", "1e19", "0.75", "\xa01", "0\u3000"])
VALID_PREDICTION = {"pred": "1", "label": "0.0", "group": "-2", "score": "0.75", "x": "z"}


@st.composite
def predictions_files(draw):
    """The bytes of a predictions CSV: a header with a column missing, an
    extra one or none, in any order; valid rows around a few short, long,
    blank or fuzzed ones; now and then an invalid UTF-8 tail."""
    names = draw(st.permutations(["pred", "label", "group", "score", "x"]))
    header = draw(st.lists(st.sampled_from(names), min_size=3, max_size=5, unique=True))
    valid = [VALID_PREDICTION[name] for name in header]
    rows = [valid] * draw(st.sampled_from([0, 1, 5, 1100]))
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.lists(PREDICTION_CELLS, min_size=0, max_size=6))
        rows.insert(draw(st.integers(0, len(rows))), row)
    text = draw(csv_bytes([header, *rows]))
    return text + b"\xff,1,0\n" if draw(st.sampled_from([0, 0, 0, 1])) else text


@settings(max_examples=150, deadline=None)
@given(content=predictions_files(), limit=st.sampled_from([None, None, None, 3]))
@example(content=b"pred,label,group\n1,0,1\n\n0,1\n1,1,1,9\n", limit=None)
@example(content=b"pred,label,group,score\n\n\n", limit=None)
@example(content=b"pred,label,score\n1,0,0.5\n", limit=None)
@example(content=b"pred,label,group\n0.5,1,0\n" + b"1,0,1\n" * 2000 + b"\xff,1,0\n", limit=None)
@example(content=b"\xef\xbb\xbfpred,label,group\n" + b"1,0,1\n" * 2000 + b"\xff,1,0\n",
         limit=None)
@example(content=b"pred,label,group\n" + b"1,0,1\n" * 900 + b"1,\xe2\x82,0\n", limit=None)
@example(content=b"pred,label,group\n" + b"1,0,1\n" * 1500 + b'"0",1,1\n' + b"0,0,0\n" * 900,
         limit=None)
@example(content=b"pred,label,group\n" + b"1,0,1\n" * 1500 + b"0,1,1\r" + b"0,0,0\n" * 900,
         limit=None)
def test_read_predictions_matches_whole_file_reference(tmp_path_factory, content, limit):
    """Columns, dtypes and SHA-256, or the error message, match the
    whole-file reader on csv.reader, with the blocks cut after every row,
    every 2 rows, or at the default size, and with csv's field size limit
    lowered."""
    path = tmp_path_factory.mktemp("pred") / "p.csv"
    path.write_bytes(content)
    with field_size_limit(limit):
        want = predictions_outcome(read_predictions_whole, path)
        for block_rows in (1, 2, data.CODE_BLOCK_ROWS):
            with mock.patch.object(data, "CODE_BLOCK_ROWS", block_rows):
                got = predictions_outcome(read_predictions, path)
            if isinstance(want, str):
                assert got == want, block_rows
                continue
            assert not isinstance(got, str), (block_rows, got)
            assert got[4] == want[4]
            for g, w in zip(got[:4], want[:4]):
                assert (g is None) == (w is None)
                if w is not None:
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), block_rows


@pytest.mark.parametrize("head", [b"\xef\xbb\xbfpred,label,group,score\n",
                                  b"pred, label, group, score\n",
                                  b"\xef\xbb\xbf pred ,label,group , score\n"],
                         ids=["bom", "spaced-header", "bom-and-spaces"])
def test_read_predictions_reads_past_bom_and_header_spaces(tmp_path, head):
    """The columns match those of the plain file, and the SHA-256 is that
    of the file's own bytes, byte-order mark included."""
    body = b"1,0,1,0.75\n0,0,0,0.5\n1,1,0,0.875\n"
    plain = tmp_path / "plain.csv"
    plain.write_bytes(b"pred,label,group,score\n" + body)
    other = tmp_path / "other.csv"
    other.write_bytes(head + body)
    want, got = read_predictions(plain), read_predictions(other)
    assert got[4] == hashlib.sha256(head + body).hexdigest() != want[4]
    for g, w in zip(got[:4], want[:4]):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("cell, value", [
    ("1", 1), ("1.0", 1), ("1e3", 1000), (" -3", -3),
    (str(2**53 + 1), 2**53 + 1), ("9007199254740993.0", 2**53 + 1),
    ("9.007199254740993e15", 2**53 + 1), (str(2**63 - 1), 2**63 - 1), (str(-2**63), -2**63),
])
def test_integer_cell_is_read_exactly(cell, value):
    """Integers past 2**53, where floats skip some, keep their value, up to
    the int64 ends."""
    assert data._integer_cell(cell) == value


@pytest.mark.parametrize("cell", ["0.9", "nan", "inf", "1e19", str(2**63), str(-2**63 - 1),
                                  "9007199254740993.5", "x", ""])
def test_integer_cell_refuses_fractions_and_the_outside_of_int64(cell):
    with pytest.raises(ValueError):
        data._integer_cell(cell)


# Standardization statistics that make (x - mean) / std overflow or divide
# by zero: a zero, a subnormal and a tiny normal deviation among plain ones.
STD_VALUES = st.sampled_from([1.0, 1.0, 2.0, 0.5, 0.0, 5e-324, 1e-310, 1e-301, -3.0])
MEAN_VALUES = st.sampled_from([0.0, 0.0, -0.0, 1.0, -1.0, 0.25, 1e308, -1e308])


@st.composite
def coded_tables(draw):
    """A CSV for a schema of numeric and categorical columns whose rows are
    valid; a categorical column often holds one value, so that every row is
    hot in one slot of its block and that slot never holds the zero."""
    kinds = draw(st.lists(st.sampled_from(["numeric", "categorical"]),
                          min_size=1, max_size=3))
    names = [f"c{i}" for i in range(len(kinds))]
    schema = Schema(columns=tuple(ColumnSpec(n, k) for n, k in zip(names, kinds))
                    + (ColumnSpec("y", "label"), ColumnSpec("s", "sensitive")),
                    hash_buckets=draw(st.sampled_from([2, 4])))
    n = draw(st.integers(1, 12))
    columns = []
    for kind in kinds:
        if kind == "numeric":
            cells = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 1e300, 3e-320]) \
                | st.floats(-1e6, 1e6)
            columns.append([repr(v) for v in draw(st.lists(cells, min_size=n, max_size=n))])
        else:
            alphabet = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=3,
                                     unique=True))
            columns.append(draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n)))
    columns.append(draw(st.lists(st.sampled_from(["0", "1"]), min_size=n, max_size=n)))
    columns.append(draw(st.lists(st.sampled_from(["g", "h"]), min_size=n, max_size=n)))
    mean = np.array(draw(st.lists(MEAN_VALUES, min_size=schema.m, max_size=schema.m)))
    std = np.array(draw(st.lists(STD_VALUES, min_size=schema.m, max_size=schema.m)))
    return schema, [names + ["y", "s"], *map(list, zip(*columns))], mean, std


@settings(max_examples=300, deadline=None)
@given(case=coded_tables(), chunk=st.integers(1, 5), pick=st.data())
def test_standardized_rows_match_the_matrix(tmp_path_factory, case, chunk, pick):
    """The coded-form finiteness check agrees with the check on the whole
    standardized matrix, and every chunk of rows, and rows picked by index
    in any order, equal the matrix's rows, bit for bit."""
    schema, rows, mean, std = case
    path = tmp_path_factory.mktemp("std") / "d.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    table = data.code_csv(path, schema)
    perm = pick.draw(st.permutations(range(table.n)))
    picked = np.array(perm[:pick.draw(st.integers(0, table.n))], dtype=np.int64)
    with np.errstate(all="ignore"):
        whole = np.subtract(load_csv(path, schema).x, mean)
        whole /= std
        try:
            coded = data.StandardizedRows(table, mean, std)
        except DataError as exc:
            assert str(exc) == "x contains non-finite values"
            assert not np.isfinite(whole).all()
            return
    assert np.isfinite(whole).all()
    assert coded.shape == whole.shape
    buf = np.full((chunk, schema.m), np.nan)
    for lo in range(0, table.n, chunk):
        hi = min(lo + chunk, table.n)
        assert coded.fill(slice(lo, hi), buf[:hi - lo]).tobytes() \
            == whole[lo:hi].tobytes()
    out = np.full((picked.size, schema.m), np.nan)
    assert coded.fill(picked, out).tobytes() == whole[picked].tobytes()


def ref_fill(coded, rows, out, shift=None):
    """``StandardizedRows.fill`` as it was before each code's shifted value
    was computed once per call: the shift added per chunk, each numeric
    column stored on its own, and the hot cells written with one 2-d
    fancy-indexed store per column."""
    out[:] = coded.zero if shift is None else coded.zero + shift
    for j, values in zip(np.arange(out.shape[1])[coded.numeric_pos], coded.numeric.T):
        out[:, j] = values[rows] if shift is None else values[rows] + shift[j]
    row_ids = np.arange(out.shape[0])
    for which, pos, values in coded.hot:
        w = which[rows]
        cols = pos[w]
        out[row_ids, cols] = values[w] if shift is None else values[w] + shift[cols]
    return out


@st.composite
def coded_rows(draw):
    """Standardized coded rows: numeric and categorical columns, a
    categorical column's codes sometimes all in one bucket, and -0.0 among
    the values and the means."""
    n = draw(st.integers(1, 40))
    kinds = draw(st.lists(st.sampled_from(["numeric", "categorical"]), min_size=1,
                          max_size=4))
    names = [f"c{i}" for i in range(len(kinds))]
    buckets = draw(st.sampled_from([2, 4, 8]))
    schema = Schema(columns=tuple(ColumnSpec(n_, k) for n_, k in zip(names, kinds))
                    + (ColumnSpec("y", "label"), ColumnSpec("s", "sensitive")),
                    hash_buckets=buckets)
    floats = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])
    numeric, categorical = {}, {}
    for name, kind in zip(names, kinds):
        if kind == "numeric":
            numeric[name] = np.array(draw(st.lists(floats, min_size=n, max_size=n)))
            continue
        codes = draw(st.integers(1, n))
        which = np.arange(n) % codes
        np.random.default_rng(draw(st.integers(0, 99))).shuffle(which)
        one = draw(st.booleans())
        bucket = np.full(codes, draw(st.integers(0, buckets - 1))) if one else \
            np.array(draw(st.lists(st.integers(0, buckets - 1), min_size=codes,
                                   max_size=codes)))
        sign = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=codes,
                                      max_size=codes)))
        categorical[name] = (which, bucket, sign)
    table = data.CodedTable(schema, y=np.zeros(n, dtype=np.int64),
                            s=np.zeros(n, dtype=np.int64), numeric=numeric,
                            categorical=categorical, sha256="")
    mean = np.array(draw(st.lists(floats, min_size=schema.m, max_size=schema.m)))
    std = np.array(draw(st.lists(st.sampled_from([1.0, 0.5, 3.0]), min_size=schema.m,
                                 max_size=schema.m)))
    return data.StandardizedRows(table, mean, std)


@settings(max_examples=300, deadline=None)
@given(coded=coded_rows(), pick=st.data())
def test_fill_is_byte_equal_to_the_per_chunk_shift(coded, pick):
    """Rows built by ``fill``, plain or from ``shifted`` rows, have the
    bytes of the old formulation: for slices, 1-row requests and index
    arrays in any order with repeats."""
    n, m = coded.shape
    shift = np.array(pick.draw(st.lists(st.floats(-10, 10) | st.just(-0.0), min_size=m,
                                        max_size=m)))
    lo = pick.draw(st.integers(0, n - 1))
    hi = pick.draw(st.integers(lo + 1, n))
    requests = [slice(lo, hi), slice(lo, lo + 1), np.array([lo]),
                np.array(pick.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)),
                         dtype=np.int64)]
    for rows in requests:
        k = np.arange(n)[rows].size
        for built, wanted in ((coded, None), (coded.shifted(shift), shift)):
            got = built.fill(rows, np.full((k, m), np.nan))
            want = ref_fill(coded, rows, np.full((k, m), np.nan), wanted)
            assert got.tobytes() == want.tobytes(), rows


def test_fill_refuses_a_buffer_that_is_not_c_contiguous():
    """The hot cells are stored through the buffer's flat view, which only a
    C-contiguous buffer shares its memory with: another buffer is refused,
    never filled wrongly."""
    schema = Schema(columns=(ColumnSpec("c", "categorical"), ColumnSpec("v", "numeric"),
                             ColumnSpec("y", "label"), ColumnSpec("s", "sensitive")),
                    hash_buckets=2)
    table = data.CodedTable(schema, y=np.zeros(4, dtype=np.int64),
                            s=np.zeros(4, dtype=np.int64), numeric={"v": np.arange(4.0)},
                            categorical={"c": (np.array([0, 1, 0, 1]), np.array([0, 1]),
                                               np.array([1.0, -1.0]))},
                            sha256="")
    coded = data.StandardizedRows(table, np.zeros(3), np.ones(3))
    want = coded.fill(slice(None), np.empty((4, 3)))
    assert want.tolist() == [[1, 0, 0], [0, -1, 1], [1, 0, 2], [0, -1, 3]]
    for out in (np.empty((4, 3), order="F"), np.empty((4, 6))[:, ::2],
                np.empty((8, 3))[::2]):
        out[:] = np.nan
        with pytest.raises(ValueError, match="C-contiguous"):
            coded.fill(slice(None), out)
        assert np.isnan(out).all()


def prepare_from_matrix(schema, split, path):
    """Train and sweep's data preparation as it was: the whole raw matrix,
    three split copies, then three standardized copies."""
    tr, va, te = split_dataset(load_csv(path, schema), split)
    (tr, va, te), mean, std = standardize(tr, [va, te])
    return tr, va, te, mean, std


SPLITS = st.builds(lambda fractions, seed: SplitSpec(*fractions, seed=seed),
                   st.sampled_from([(0.7, 0.15, 0.15), (0.34, 0.33, 0.33),
                                    (0.2, 0.5, 0.3)]),
                   st.integers(0, 2**32 - 1))
CONSTANT_COLUMN = (
    Schema(columns=(ColumnSpec("c0", "numeric"), ColumnSpec("c1", "categorical"),
                    ColumnSpec("c2", "numeric"), ColumnSpec("y", "label"),
                    ColumnSpec("s", "sensitive")), hash_buckets=4),
    "".join(",".join(row) + "\r\n" for row in [
        ["c0", "c1", "c2", "y", "s"],
        *([" 2.5", "ab"[i % 2], str(i * 0.7 - 1), str(i % 2), "gh"[i % 3 == 0]]
          for i in range(9))]).encode(),
)
NO_NUMERIC_COLUMN = (
    Schema(columns=(ColumnSpec("c0", "categorical"), ColumnSpec("c1", "categorical"),
                    ColumnSpec("y", "label"), ColumnSpec("s", "sensitive")), hash_buckets=2),
    "".join(",".join(row) + "\n" for row in [
        ["s", "c0", "y", "c1"],
        *(["gh"[i % 2], "abc"[i % 3], "01"[i % 4 < 2], "xy"[i % 5 == 0]]
          for i in range(7))]).encode(),
)


@settings(max_examples=200, deadline=None)
@given(table=csv_tables() | coded_tables().flatmap(
           lambda case: st.tuples(st.just(case[0]), csv_bytes(case[1]))),
       split=SPLITS)
@example(table=CONSTANT_COLUMN, split=SplitSpec(0.34, 0.33, 0.33, seed=4))
@example(table=NO_NUMERIC_COLUMN, split=SplitSpec(0.7, 0.15, 0.15, seed=0))
def test_prepare_data_matches_the_matrix_chain(tmp_path_factory, table, split):
    """``train``'s preparation from the codes gives the splits, mean and std
    of ``load_csv`` -> ``split_dataset`` -> ``standardize``, bit for bit, or
    the same DataError, on tables with bad cells and on valid ones. Its
    splits are coded rows: the rows built from them are the chain's."""
    schema, content = table
    path = tmp_path_factory.mktemp("prep") / "d.csv"
    path.write_bytes(content)
    outcomes = []
    for prepare in (prepare_from_matrix, _prepare_data):
        try:
            with np.errstate(all="ignore"):  # as under the CLI
                outcomes.append(prepare(schema, split, path)[:5])
        except DataError as exc:
            outcomes.append(str(exc))
    want, got = outcomes
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert all(isinstance(g, data.StandardizedRows) for g in got[:3])
    for w, g in zip(want[:3], (rows.dataset(slice(None)) for rows in got[:3])):
        assert g.x.shape == w.x.shape and g.x.tobytes() == w.x.tobytes()
        assert g.y.tobytes() == w.y.tobytes() and g.s.tobytes() == w.s.tobytes()
    for w, g in zip(want[3:], got[3:]):
        assert g.tobytes() == w.tobytes()


def test_prepare_data_peak_is_close_to_its_matrices(tmp_path):
    """Preparing a 20,000-row table at m = 130 builds no matrix: it holds
    the codes, the train rows' numeric columns and the coded splits: a
    peak of about a quarter of the train split's matrix bytes, where it
    was 1.39 times them when it built that matrix."""
    rng = random.Random(0)
    names = [f"c{k}" for k in range(8)] + ["n0", "n1", "label", "group"]
    lines = [",".join(names)]
    for _ in range(20_000):
        cells = [f"v{int(rng.random() * 5 * 2 ** k)}" for k in range(8)]
        cells += [f"{rng.random():.6f}", f"{rng.gauss(0, 1):.6f}",
                  str(int(rng.random() < 0.5)), f"g{int(rng.random() < 0.4)}"]
        lines.append(",".join(cells))
    path = write_csv(tmp_path / "d.csv", "\n".join(lines) + "\n")
    kinds = ["categorical"] * 8 + ["numeric", "numeric", "label", "sensitive"]
    schema = Schema(columns=tuple(map(ColumnSpec, names, kinds)), hash_buckets=16)
    tracemalloc.start()
    try:
        train, valid, test = _prepare_data(schema, SplitSpec(0.7, 0.15, 0.15, seed=0), path)[:3]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert train.shape == (14_000, 130) and valid.shape == test.shape == (3_000, 130)
    assert peak < 0.35 * 14_000 * 130 * 8, peak / (14_000 * 130 * 8)


def test_one_bucket_column_skips_its_zero(tmp_path):
    """Every row of ``c`` is hot in one slot, so that slot never holds the
    standardized zero: a zero that overflows there is no error. In the
    other slot, which holds only zeros, it is."""
    schema = Schema(columns=(ColumnSpec("c", "categorical"), ColumnSpec("y", "label"),
                             ColumnSpec("s", "sensitive")), hash_buckets=2)
    table = data.code_csv(write_csv(tmp_path / "d.csv", "c,y,s\nv,0,g\nv,1,h\n"), schema)
    _, (hot,), (sign,) = table.categorical["c"]
    mean, std = np.zeros(2), np.ones(2)
    mean[hot], std[hot] = sign, 1e-310  # the hot cells give 0.0, the zero overflows
    with np.errstate(all="ignore"):
        rows = data.StandardizedRows(table, mean, std)
        assert rows.fill(slice(0, 2), np.empty((2, 2)))[:, hot].tolist() == [0.0, 0.0]
        with pytest.raises(DataError, match="x contains non-finite values"):
            data.StandardizedRows(table, mean[::-1].copy(), std[::-1].copy())


# Codes a hashed CSV and builds its rows in a fresh interpreter, then
# prints whether numpy.ma was imported.
CODE_AND_BUILD = """
import sys
import numpy as np
from reckoner.data import ColumnSpec, Schema, StandardizedRows, code_csv
schema = Schema(columns=(ColumnSpec("c", "categorical"), ColumnSpec("n", "numeric"),
                         ColumnSpec("y", "label"), ColumnSpec("s", "sensitive")),
                hash_buckets=4)
StandardizedRows(code_csv(sys.argv[1], schema), np.zeros(schema.m), np.ones(schema.m))
print("numpy.ma" in sys.modules)
"""


def test_building_hashed_rows_does_not_import_numpy_ma(tmp_path):
    """A plain ``np.unique`` imports ``numpy.ma``, 14 to 16 ms of every
    hashed train, sweep and audit launch: coding a hashed CSV and building
    its rows call none."""
    path = write_csv(tmp_path / "d.csv", "c,n,y,s\nu,1,0,g\nv,2,1,h\nu,3,1,g\n")
    proc = subprocess.run([sys.executable, "-c", CODE_AND_BUILD, str(path)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(Path(data.__file__).parents[1])))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_codes_are_int32_on_the_benchmark_schema(tmp_path):
    """On the benchmark's mixed schema (eight categorical columns of 5 to
    640 levels, two numeric columns, a label and a string group id) the
    group ids and the cell codes are int32, so the per-row arrays take 60
    bytes a row: 8 for the label, 4 for the group, 8 per numeric and 4 per
    categorical column (96 with int64 codes)."""
    rng = random.Random(1)
    names = [f"c{k}" for k in range(8)] + ["n0", "n1", "label", "group"]
    lines = [",".join(names)]
    for _ in range(3_000):
        cells = [f"c{k}_v{int(rng.random() * 5 * 2 ** k):04d}" for k in range(8)]
        cells += [repr(rng.gauss(0, 1)), repr(rng.random()), str(int(rng.random() < 0.5)),
                  ("grp-north", "grp-south")[rng.random() < 0.5]]
        lines.append(",".join(cells))
    kinds = ["categorical"] * 8 + ["numeric", "numeric", "label", "sensitive"]
    schema = Schema(columns=tuple(map(ColumnSpec, names, kinds)), hash_buckets=16)
    table = code_csv(write_csv(tmp_path / "d.csv", "\n".join(lines) + "\n"), schema)
    assert table.y.dtype == np.int64 and table.s.dtype == np.int32
    per_row = [table.y, table.s, *table.numeric.values()]
    for which, bucket, sign in table.categorical.values():
        assert which.dtype == np.int32 and bucket.dtype == sign.dtype == np.int64
        per_row.append(which)
    assert all(a.shape == (table.n,) for a in per_row)
    assert sum(a.nbytes for a in per_row) <= 60 * table.n


DISTINCT_LIMIT_CASES = {
    "categorical": ("c,y,s\na,0,g\nb,1,g\nc,0,h\nd,1,h\ne,0,g\n", False,
                    "column 'c' holds more than 3 distinct values, row 5"),
    "sensitive": ("c,y,s\na,0,g\na,1,h\na,0,i\na,1,j\n", False,
                  "column 's' holds more than 3 distinct values, row 5"),
    "label": ("c,y,s\na,0,g\na,1,g\na,2,g\na,3,g\n", False,
              "column 'y' holds more than 3 distinct values, row 5"),
    "missing-cell-first": ("c,y,s\na,0,g\n,1,g\nc,0,h\nd,1,h\n", False,
                           "missing cell in categorical column 'c', row 3"),
    "missing-cell-imputed": ("c,y,s\na,0,g\n,1,g\nc,0,h\nd,1,h\n", True,
                             "column 'c' holds more than 3 distinct values, row 5"),
    "label-before-sensitive": ("c,y,s\na,0,g\na,1,h\na,2,i\na,3,j\n", False,
                               "column 'y' holds more than 3 distinct values, row 5"),
}


@pytest.mark.parametrize("content, impute_missing, message", DISTINCT_LIMIT_CASES.values(),
                         ids=DISTINCT_LIMIT_CASES.keys())
@pytest.mark.parametrize("block_rows", [1, 2, data.CODE_BLOCK_ROWS])
def test_distinct_values_past_the_limit_are_a_data_error(tmp_path, content, impute_missing,
                                                         message, block_rows):
    """A column past ``MAX_DISTINCT`` distinct values, whose next code
    would overflow int32, is that column's error, naming the row of its
    first value past the limit, in whatever blocks it is read."""
    schema = Schema(columns=(ColumnSpec("c", "categorical"), ColumnSpec("y", "label"),
                             ColumnSpec("s", "sensitive")), hash_buckets=4)
    path = write_csv(tmp_path / "d.csv", content)
    with mock.patch.object(data, "MAX_DISTINCT", 3), \
            mock.patch.object(data, "CODE_BLOCK_ROWS", block_rows), \
            pytest.raises(DataError) as raised:
        code_csv(path, schema, impute_missing)
    assert str(raised.value) == message


@pytest.mark.parametrize("numeric_first", [True, False])
def test_distinct_limit_keeps_the_schema_order_of_feature_errors(tmp_path, numeric_first):
    """Among feature columns the first error in schema order is raised, a
    column past the distinct limit as any other."""
    columns = [ColumnSpec("n", "numeric"), ColumnSpec("c", "categorical")]
    schema = Schema(columns=(*columns[::1 if numeric_first else -1],
                             ColumnSpec("y", "label"), ColumnSpec("s", "sensitive")),
                    hash_buckets=4)
    path = write_csv(tmp_path / "d.csv", "n,c,y,s\n1,a,0,g\nx,b,1,g\n2,c,0,g\n")
    with mock.patch.object(data, "MAX_DISTINCT", 2), pytest.raises(DataError) as raised:
        code_csv(path, schema)
    assert str(raised.value) == ("unparseable numeric cell 'x' in column 'n', row 3"
                                 if numeric_first else
                                 "column 'c' holds more than 2 distinct values, row 4")


class TestStandardize:
    def test_constant_column_becomes_zero(self, numeric_schema):
        x = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        d = Dataset(x=x, y=[0, 1, 0], s=[0, 1, 0], schema=numeric_schema)
        (out,), mean, std = standardize(d)
        assert np.all(out.x[:, 0] == 0.0)
        assert std[0] == 1.0

    def test_hand_computed_population_stats(self, numeric_schema):
        x = np.array([[0.0, 7.0], [2.0, 7.0]])
        d = Dataset(x=x, y=[0, 1], s=[0, 1], schema=numeric_schema)
        (out,), mean, std = standardize(d)
        assert mean[0] == 1.0 and std[0] == 1.0
        assert out.x[:, 0].tolist() == [-1.0, 1.0]

    def test_others_use_train_stats(self, numeric_schema):
        train = Dataset(x=np.array([[0.0, 0.0], [2.0, 0.0]]), y=[0, 1], s=[0, 1],
                        schema=numeric_schema)
        test = Dataset(x=np.array([[4.0, 0.0]]), y=[1], s=[0], schema=numeric_schema)
        (tr, te), mean, std = standardize(train, [test])
        assert te.x[0, 0] == pytest.approx((4.0 - 1.0) / 1.0)

    def test_hashed_blocks_untouched(self, tmp_path):
        schema = Schema(columns=(ColumnSpec("a", "numeric"),
                                 ColumnSpec("c", "categorical"),
                                 ColumnSpec("y", "label"),
                                 ColumnSpec("s", "sensitive")), hash_buckets=4)
        p = write_csv(tmp_path / "d.csv", "a,c,y,s\n1,u,0,x\n3,v,1,y\n")
        d = load_csv(p, schema)
        (out,), _, _ = standardize(d)
        np.testing.assert_array_equal(out.x[:, 1:], d.x[:, 1:])


class TestSplitDataset:
    def test_sizes_from_fractions(self, numeric_schema):
        d = Dataset(x=np.zeros((10, 2)), y=[0, 1] * 5, s=[0, 1] * 5,
                    schema=numeric_schema)
        tr, va, te = split_dataset(d, SplitSpec(0.6, 0.2, 0.2, seed=7))
        assert (tr.n, va.n, te.n) == (6, 2, 2)

    def test_deterministic(self, numeric_schema):
        rng = np.random.default_rng(0)
        d = Dataset(x=rng.standard_normal((20, 2)), y=rng.integers(0, 2, 20),
                    s=rng.integers(0, 2, 20), schema=numeric_schema)
        a = split_dataset(d, SplitSpec(0.5, 0.25, 0.25, seed=3))
        b = split_dataset(d, SplitSpec(0.5, 0.25, 0.25, seed=3))
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.x, pb.x)
            np.testing.assert_array_equal(pa.y, pb.y)

    def test_partition_property(self, numeric_schema):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((37, 2))
        d = Dataset(x=x, y=rng.integers(0, 2, 37), s=rng.integers(0, 2, 37),
                    schema=numeric_schema)
        tr, va, te = split_dataset(d, SplitSpec(0.4, 0.3, 0.3, seed=11))
        assert tr.n + va.n + te.n == 37
        merged = np.vstack([tr.x, va.x, te.x])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, x))

    def test_too_small_errors(self, numeric_schema):
        d = Dataset(x=np.zeros((2, 2)), y=[0, 1], s=[0, 1], schema=numeric_schema)
        with pytest.raises(DataError):
            split_dataset(d, SplitSpec(0.4, 0.3, 0.3, seed=0))

    def test_bad_fractions_rejected(self):
        with pytest.raises(ConfigError):
            SplitSpec(0.5, 0.5, 0.5)
        with pytest.raises(ConfigError):
            SplitSpec(1.0, 0.0, 0.0)


class TestSynthBiased:
    def test_zero_flip_identity(self):
        d = synth_biased(SynthConfig(n=500, flip_rate_g0=0.0, flip_rate_g1=0.0, seed=2))
        np.testing.assert_array_equal(d.y, d.clean_y)

    def test_flip_fraction_matches_rate(self):
        d = synth_biased(SynthConfig(n=100_000, flip_rate_g0=0.0, flip_rate_g1=0.3,
                                     seed=5))
        g1 = d.s == 1
        flipped = (d.y != d.clean_y)
        assert abs(flipped[g1].mean() - 0.3) < 0.01
        assert flipped[~g1].sum() == 0

    def test_degenerate_group_balance(self):
        d = synth_biased(SynthConfig(n=100, group_balance=1.0, seed=1))
        assert np.all(d.s == 1)

    def test_seeded_determinism(self):
        a = synth_biased(SynthConfig(n=300, flip_rate_g1=0.2, seed=9))
        b = synth_biased(SynthConfig(n=300, flip_rate_g1=0.2, seed=9))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.s, b.s)

    def test_first_feature_is_group_proxy(self):
        d = synth_biased(SynthConfig(n=20_000, seed=4))
        gap = d.x[d.s == 1, 0].mean() - d.x[d.s == 0, 0].mean()
        assert gap > 1.0  # shifted by the proxy offset

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(n=0)
        with pytest.raises(ConfigError):
            SynthConfig(n=10, flip_rate_g0=1.5)


class TestDatasetInvariants:
    def test_rejects_nonbinary_labels(self, numeric_schema):
        with pytest.raises(DataError):
            Dataset(x=np.zeros((2, 2)), y=[0, 2], s=[0, 1], schema=numeric_schema)

    @pytest.mark.parametrize("cells", [[np.nan, 0.0], [np.inf, 0.0], [np.inf, -np.inf],
                                       [np.inf, np.nan]])
    def test_rejects_nonfinite_features(self, numeric_schema, cells):
        with pytest.raises(DataError, match="x contains non-finite values"):
            Dataset(x=np.array([cells, [1e308, 1e308]]), y=[0, 1], s=[0, 1],
                    schema=numeric_schema)

    def test_accepts_finite_features_whose_sum_overflows(self, numeric_schema):
        x = np.full((2, 2), 1e308)
        with np.errstate(over="ignore"):
            assert not np.isfinite(x.sum())
        assert Dataset(x=x, y=[0, 1], s=[0, 1], schema=numeric_schema).x is x

    def test_accepts_an_empty_matrix(self, numeric_schema):
        assert Dataset(x=np.zeros((0, 2)), y=[], s=[], schema=numeric_schema).n == 0

    def test_rejects_length_mismatch(self, numeric_schema):
        with pytest.raises(DataError):
            Dataset(x=np.zeros((2, 2)), y=[0], s=[0, 1], schema=numeric_schema)

    def test_caller_arrays_are_taken_and_frozen(self, numeric_schema):
        x, y, s = np.zeros((2, 2)), np.array([0, 1]), np.array([0, 1])
        d = Dataset(x=x, y=y, s=s, schema=numeric_schema)
        assert d.x is x and d.y is y and d.s is s
        assert not (x.flags.writeable or y.flags.writeable or s.flags.writeable)

    def test_arrays_are_readonly(self, numeric_schema):
        d = Dataset(x=np.zeros((2, 2)), y=[0, 1], s=[0, 1], schema=numeric_schema)
        with pytest.raises(ValueError):
            d.x[0, 0] = 1.0
