import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reckoner.confidence import (
    GAP_RATES,
    BucketEntry,
    BucketReport,
    Buckets,
    BucketSpec,
    bucket_analysis,
    confidence_of,
    feature_histograms,
    split_by_confidence,
)
from reckoner.data import CodedTable, ColumnSpec, Dataset, Schema, StandardizedRows
from reckoner.errors import ConfigError, DataError
from reckoner.metrics import GroupCounts, aligned, confusion, fairness_report, rates, signed_gaps

SCHEMA = Schema(columns=(ColumnSpec("f0", "numeric"), ColumnSpec("y", "label"),
                         ColumnSpec("s", "sensitive")))


class StubModel:
    """Duck-typed scorer returning fixed probabilities."""

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=float)

    def score(self, x):
        return self.probs[: np.atleast_2d(x).shape[0]]


def make_dataset(labels, groups):
    n = len(labels)
    return Dataset(x=np.zeros((n, 1)), y=labels, s=groups, schema=SCHEMA)


class TestConfidenceOf:
    def test_boundary(self):
        assert confidence_of(0.5) == 0.5

    def test_symmetry(self):
        conf = confidence_of([0.9, 0.2])
        assert conf.tolist() == [0.9, 0.8]

    def test_label_flip_invariance(self):
        p = np.array([0.1, 0.35, 0.77])
        np.testing.assert_allclose(confidence_of(p), confidence_of(1 - p), atol=1e-15)


class TestSplitByConfidence:
    def test_tie_goes_high(self):
        d = make_dataset([0, 1, 1], [0, 1, 0])
        # probabilities 0.45/0.60/0.93 -> confidences 0.55/0.60/0.93
        split = split_by_confidence(d, StubModel([0.45, 0.60, 0.93]), 0.6)
        assert split.low.tolist() == [0]
        assert split.high.tolist() == [1, 2]

    def test_threshold_half_puts_everything_high(self):
        """Every confidence is at least 0.5, so a 0.5 threshold would put
        every row on the high side; it is rejected as a config error."""
        d = make_dataset([0, 1], [0, 1])
        assert (confidence_of([0.5, 0.7]) >= 0.5).all()
        with pytest.raises(ConfigError, match=r"must lie in \(0.5, 1\)"):
            split_by_confidence(d, StubModel([0.5, 0.7]), 0.5)

    def test_threshold_out_of_range(self):
        d = make_dataset([0, 1], [0, 1])
        for threshold in (0.4, 1.0):
            with pytest.raises(ConfigError, match=r"must lie in \(0.5, 1\)"):
                split_by_confidence(d, StubModel([0.5, 0.7]), threshold)


class TestBucketSpec:
    def test_default_thresholds(self):
        assert BucketSpec().thresholds == (0.5, 0.6, 0.7, 0.8)

    def test_edges_close_last_at_one(self):
        assert BucketSpec().edges()[-1] == (0.8, 1.0)

    def test_assign_ties_up_and_top_inclusive(self):
        spec = BucketSpec()
        idx = spec.assign(np.array([0.5, 0.6, 0.69999, 0.8, 1.0]))
        assert idx.tolist() == [0, 1, 1, 3, 3]

    def test_validation(self):
        with pytest.raises(ConfigError):
            BucketSpec((0.6, 0.7))
        with pytest.raises(ConfigError):
            BucketSpec((0.5, 0.5))
        with pytest.raises(ConfigError):
            BucketSpec((0.5, 1.0))
        for t in ((0.5, float("nan"), 0.7), (0.5, 0.6, float("nan")), (0.5, float("inf")),
                  (float("nan"), 0.6), (0.5, float("-inf"))):
            with pytest.raises(ConfigError):
                BucketSpec(t)

    @given(st.lists(st.floats(0.5, 0.99, exclude_max=True), min_size=1, max_size=30,
                    unique=True),
           st.lists(st.floats(0.5, 1.0), max_size=50), st.data())
    @settings(max_examples=200, deadline=None)
    def test_assign_matches_a_binary_search(self, inner, scores, data):
        """Counting the thresholds a score reaches gives the bucket that a
        right-sided binary search over the thresholds gives."""
        spec = BucketSpec(tuple(sorted({0.5, *inner})))
        scores = np.array(scores + data.draw(st.lists(
            st.sampled_from(spec.thresholds + (1.0,)), max_size=10)))
        want = np.searchsorted(np.asarray(spec.thresholds), scores, side="right") - 1
        got = spec.assign(scores)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()

    def test_rejects_out_of_range_scores(self):
        with pytest.raises(DataError):
            BucketSpec().assign(np.array([0.4]))

    def test_rejects_nan_scores(self):
        for scores in ([0.7, np.nan], [np.nan], [np.nan, 0.4]):
            with pytest.raises(DataError, match=r"must lie in \[0.5, 1\]"):
                BucketSpec().assign(np.array(scores))


# Hand fixture: (confidence, pred, label, group) spread over the four
# default buckets, two groups.
FIXTURE = [
    (0.55, 1, 1, 0), (0.52, 0, 1, 0), (0.58, 1, 0, 1), (0.51, 0, 0, 1),
    (0.60, 1, 1, 0), (0.65, 0, 1, 1), (0.62, 1, 0, 0), (0.68, 0, 0, 1),
    (0.75, 1, 1, 1), (0.70, 0, 0, 0), (0.78, 1, 0, 1), (0.72, 0, 1, 0),
    (0.85, 1, 1, 0), (0.95, 0, 1, 1), (0.88, 1, 0, 1), (0.99, 0, 0, 0),
]


def brute_force_bucket_gaps(rows, edges):
    """Exhaustive per-bucket counting, independent of the library."""
    out = []
    for k, (lo, hi) in enumerate(edges):
        last = k == len(edges) - 1
        cell = [r for r in rows if (lo <= r[0] < hi) or (last and r[0] == hi)]
        gaps = {}
        for name in ("tpr", "tnr", "fpr", "fnr"):
            vals = {}
            for g in (0, 1):
                tp = sum(1 for c in cell if c[3] == g and c[1] == 1 and c[2] == 1)
                fp = sum(1 for c in cell if c[3] == g and c[1] == 1 and c[2] == 0)
                tn = sum(1 for c in cell if c[3] == g and c[1] == 0 and c[2] == 0)
                fn = sum(1 for c in cell if c[3] == g and c[1] == 0 and c[2] == 1)
                num, den = {
                    "tpr": (tp, tp + fn), "tnr": (tn, tn + fp),
                    "fpr": (fp, fp + tn), "fnr": (fn, fn + tp),
                }[name]
                vals[g] = None if den == 0 else num / den
            gaps[name] = (None if vals[0] is None or vals[1] is None
                          else vals[0] - vals[1])
        out.append(gaps)
    return out


class TestBucketAnalysis:
    def fixture(self):
        conf = np.array([r[0] for r in FIXTURE])
        preds = np.array([r[1] for r in FIXTURE])
        d = make_dataset([r[2] for r in FIXTURE], [r[3] for r in FIXTURE])
        return d, preds, conf

    def test_matches_brute_force_oracle(self):
        d, preds, conf = self.fixture()
        spec = BucketSpec()
        report = bucket_analysis(preds, d.y, d.s, conf, spec, 0, 1)
        expected = brute_force_bucket_gaps(FIXTURE, spec.edges())
        for entry, exp in zip(report.entries, expected):
            for name in ("tpr", "tnr", "fpr", "fnr"):
                if exp[name] is None:
                    assert entry.gaps[name] is None
                else:
                    assert entry.gaps[name] == pytest.approx(exp[name], abs=1e-12)

    def test_perfect_predictions_zero_gaps(self):
        d = make_dataset([1, 0, 1, 0, 1, 0, 1, 0], [0, 0, 1, 1, 0, 0, 1, 1])
        preds = d.y.copy()
        conf = np.array([0.55, 0.65, 0.75, 0.85, 0.55, 0.65, 0.75, 0.85])
        report = bucket_analysis(preds, d.y, d.s, conf, BucketSpec(), 0, 1)
        for entry in report.entries:
            for gap in entry.gaps.values():
                assert gap is None or gap == 0.0

    def test_single_bucket_reproduces_whole_set(self):
        d, preds, conf = self.fixture()
        report = bucket_analysis(preds, d.y, d.s, conf, BucketSpec((0.5,)), 0, 1)
        assert len(report.entries) == 1
        whole = confusion(preds, d.y, d.s)
        entry = report.entries[0]
        for g in (0, 1):
            k = whole[g]
            assert entry.group_counts[g] == k.size
            assert entry.group_rates[g].tpr == k.tp / (k.tp + k.fn)

    def test_bucket_counts_sum_to_n(self):
        d, preds, conf = self.fixture()
        report = bucket_analysis(preds, d.y, d.s, conf, BucketSpec(), 0, 1)
        total = sum(sum(e.group_counts.values()) for e in report.entries)
        assert total == d.n == report.total

    def test_merged_bucket_confusions_reproduce_whole_set(self):
        d, preds, conf = self.fixture()
        spec = BucketSpec()
        assignment = spec.assign(conf)
        merged = {g: [0, 0, 0, 0] for g in (0, 1)}
        for k in range(spec.count):
            mask = assignment == k
            part = confusion(preds[mask], d.y[mask], d.s[mask])
            for g, c in part.items():
                merged[g][0] += c.tp
                merged[g][1] += c.fp
                merged[g][2] += c.tn
                merged[g][3] += c.fn
        whole = confusion(preds, d.y, d.s)
        for g in (0, 1):
            k = whole[g]
            assert merged[g] == [k.tp, k.fp, k.tn, k.fn]

    def test_length_mismatch(self):
        d, preds, conf = self.fixture()
        with pytest.raises(DataError):
            bucket_analysis(preds[:-1], d.y, d.s, conf, BucketSpec(), 0, 1)

    def test_csv_roundtrip_preserves_12_digits(self):
        d, preds, conf = self.fixture()
        report = bucket_analysis(preds, d.y, d.s, conf, BucketSpec(), 0, 1)
        rows = report.to_csv_rows()
        header, body = rows[0], rows[1:]
        gi = {name: i for i, name in enumerate(header)}
        for entry_idx, entry in enumerate(report.entries):
            for name in ("tpr", "tnr", "fpr", "fnr"):
                want = entry.gaps[name]
                got = next(r[gi["value"]] for r in body
                           if r[gi["bucket"]] == str(entry_idx)
                           and r[gi["measure"]] == f"delta_{name}")
                if want is None:
                    assert got == ""
                else:
                    assert float(got) == pytest.approx(want, rel=1e-11)


    def test_rejects_input_that_is_not_1d(self):
        """Equal 2-d shapes used to be flattened by the bucket masks, so
        ``total`` counted rows while the buckets counted entries."""
        two_d = np.array([[1, 0], [0, 1]])
        with pytest.raises(DataError, match="preds must be 1-d"):
            bucket_analysis(two_d, two_d, two_d, np.full((2, 2), 0.7), BucketSpec(), 0, 1)
        with pytest.raises(DataError, match="preds must be 1-d"):
            bucket_analysis(1, 1, 0, 0.7, BucketSpec(), 0, 1)

    def test_first_bucket_with_a_bad_entry_sets_the_error(self):
        """As when each bucket's rows were checked in turn: the first bucket
        holding a bad pred or label raises, its pred error first."""
        conf = np.array([0.55, 0.65, 0.75, 0.85])
        groups = np.zeros(4, int)
        cases = [  # (preds, labels, error), one row per bucket
            ([0, 0, 2, 0], [0, 5, 0, 0], "labels"),
            ([0, 0, 0, 2], [0, 0, -1, 0], "labels"),
            ([0, 2, 0, 0], [0, 0, -1, 0], "preds"),
            ([0, 2, 0, 0], [0, 3, 0, 0], "preds"),
        ]
        for preds, labels, name in cases:
            with pytest.raises(DataError, match=f"{name} must contain only 0/1 entries"):
                bucket_analysis(preds, labels, groups, conf, BucketSpec(), 0, 1)

    def test_rejects_non_integral_group_ids(self):
        """0.9 and 1.9 used to be cast to groups 0 and 1."""
        conf = np.array([0.55, 0.65, 0.75, 0.85])
        with pytest.raises(DataError, match="groups must be integer ids"):
            bucket_analysis([1, 0, 1, 0], [1, 0, 0, 1], [0.9, 0.9, 1.9, 1.9], conf,
                            BucketSpec(), 0, 1)

    def test_buckets_of_another_spec_are_refused(self):
        d, preds, conf = self.fixture()
        other = Buckets(BucketSpec((0.5,)), BucketSpec((0.5,)).assign(conf))
        with pytest.raises(ValueError, match="another spec"):
            bucket_analysis(preds, d.y, d.s, other, BucketSpec(), 0, 1)


class TestFeatureHistograms:
    def groups_of(self, values, groups=None):
        return np.zeros(len(values), int) if groups is None else np.asarray(groups)

    def test_hand_binning(self):
        values = np.arange(1, 11, dtype=float)
        scores = np.full(10, 0.6)
        hist = feature_histograms(values, self.groups_of(values), scores,
                                  BucketSpec((0.5,)), "f0", bins=2)
        np.testing.assert_allclose(hist.edges, [1.0, 5.5, 10.0])
        assert hist.counts[(0, 0)].tolist() == [5, 5]

    def test_constant_feature_single_bin(self):
        values = np.full(6, 4.2)
        hist = feature_histograms(values, self.groups_of(values), np.full(6, 0.7),
                                  BucketSpec((0.5,)), "f0", bins=3)
        assert sorted(hist.counts[(0, 0)].tolist(), reverse=True)[0] == 6
        assert hist.counts[(0, 0)].sum() == 6

    def test_counts_partition_dataset(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(40)
        groups = rng.integers(0, 2, 40)
        scores = rng.uniform(0.5, 1.0, 40)
        hist = feature_histograms(values, groups, scores, BucketSpec(), "f0", bins=5)
        assert sum(int(arr.sum()) for arr in hist.counts.values()) == 40

    def test_unknown_or_non_numeric_feature(self):
        """The audit looks the standardized column up by name in its coded
        rows; only a numeric feature has one."""
        schema = Schema(columns=(ColumnSpec("f0", "numeric"), ColumnSpec("c", "categorical"),
                                 ColumnSpec("y", "label"), ColumnSpec("s", "sensitive")),
                        hash_buckets=2)
        table = CodedTable(schema, y=np.array([0, 1]), s=np.array([0, 1]),
                           numeric={"f0": np.array([1.0, 2.0])},
                           categorical={"c": (np.array([0, 0]), np.array([1]), np.array([-1]))},
                           sha256="")
        rows = StandardizedRows(table, np.zeros(schema.m), np.ones(schema.m))
        assert rows.feature("f0").tolist() == [1.0, 2.0]
        for name in ("nope", "c"):
            with pytest.raises(DataError):
                rows.feature(name)

    def test_bad_bins(self):
        values = np.array([1.0, 2.0])
        with pytest.raises(ConfigError):
            feature_histograms(values, self.groups_of(values), np.full(2, 0.6),
                               BucketSpec(), "f0", bins=0)

    def test_length_mismatch(self):
        values = np.array([1.0, 2.0])
        with pytest.raises(DataError):
            feature_histograms(values, self.groups_of(values), np.full(3, 0.6),
                               BucketSpec(), "f0", bins=2)

    def test_nan_score_rejected(self):
        values = np.array([1.0, 2.0])
        with pytest.raises(DataError, match=r"must lie in \[0.5, 1\]"):
            feature_histograms(values, self.groups_of(values), np.array([0.7, np.nan]),
                               BucketSpec(), "f0", bins=2)

    def test_rejects_input_that_is_not_1d(self):
        """An (n, 2) ``values`` used to pass the length check on its first
        axis and count both columns of every row."""
        values = np.arange(8, dtype=float).reshape(4, 2)
        groups, scores = np.zeros(4, int), np.full(4, 0.7)
        with pytest.raises(DataError, match="values must be 1-d"):
            feature_histograms(values, groups, scores, BucketSpec(), "f0", bins=2)
        with pytest.raises(DataError, match="groups must be 1-d"):
            feature_histograms(values[:, 0], groups.reshape(4, 1), scores, BucketSpec(),
                               "f0", bins=2)
        with pytest.raises(DataError, match="values must be 1-d"):
            feature_histograms(1.0, 0, 0.7, BucketSpec(), "f0", bins=2)

    def test_rejects_non_integral_group_ids(self):
        """Both groups used to be keyed ``int(g) = 0``, and only 2 of the 4
        rows were counted."""
        with pytest.raises(DataError, match="groups must be integer ids"):
            feature_histograms(np.arange(4.0), [0.4, 0.4, 0.6, 0.6], np.full(4, 0.7),
                               BucketSpec(), "f0", bins=2)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_values_name_the_feature(self, bad):
        """No bin edges span a value that is not finite: a DataError names
        the feature, where numpy's binning raised a bare ValueError."""
        with pytest.raises(DataError, match="feature 'age' has values that are not finite"):
            feature_histograms(np.array([1.0, bad, 2.0]), np.zeros(3, int), np.full(3, 0.7),
                               BucketSpec(), "age", bins=2)


# The per-group and per-bucket mask loops that counted the reports before one
# count table did, kept as the reference of the differential tests below.
def ref_confusion(preds, labels, groups):
    def as_binary(values, name):  # cast first, as the loops did
        arr = np.asarray(values)
        if arr.ndim != 1:
            raise DataError(f"{name} must be 1-d")
        arr = arr.astype(np.int64)
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise DataError(f"{name} must contain only 0/1 entries")
        return arr

    p, y = as_binary(preds, "preds"), as_binary(labels, "labels")
    g = np.asarray(groups, dtype=np.int64)
    if not (p.shape == y.shape == g.shape):
        raise DataError("preds, labels, groups lengths differ")
    out = {}
    for gid in np.unique(g):
        mask = g == gid
        pg, yg = p[mask], y[mask]
        out[int(gid)] = GroupCounts(
            tp=int(((pg == 1) & (yg == 1)).sum()),
            fp=int(((pg == 1) & (yg == 0)).sum()),
            tn=int(((pg == 0) & (yg == 0)).sum()),
            fn=int(((pg == 0) & (yg == 1)).sum()),
        )
    return out


def ref_bucket_analysis(preds, labels, groups, scores, spec, g_i, g_j):
    preds, labels, groups, scores = (np.asarray(a) for a in (preds, labels, groups, scores))
    if not (preds.shape == labels.shape == groups.shape == scores.shape):
        raise DataError("preds, labels, groups, scores lengths differ")
    assignment = spec.assign(scores)
    entries = []
    for k, (lo, hi) in enumerate(spec.edges()):
        mask = assignment == k
        counts = ref_confusion(preds[mask], labels[mask], groups[mask])
        table = rates(counts)
        entries.append(BucketEntry(lo=lo, hi=hi, group_rates=table,
                                   group_counts={g: c.size for g, c in counts.items()},
                                   gaps=signed_gaps(table, GAP_RATES, g_i, g_j)))
    return BucketReport(spec=spec, pair=(g_i, g_j), entries=tuple(entries),
                        total=len(preds))


def ref_feature_histograms(values, groups, scores, spec, bins):
    values, groups = np.asarray(values, dtype=np.float64), np.asarray(groups)
    assignment = spec.assign(np.asarray(scores, dtype=np.float64))
    _, edges = np.histogram(values, bins=bins, range=(values.min(), values.max()))
    counts = {}
    for k in range(spec.count):
        for g in np.unique(groups):
            mask = (assignment == k) & (groups == g)
            counts[(k, int(g))], _ = np.histogram(values[mask], bins=edges)
    return edges, counts


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (DataError, ValueError) as e:
        return type(e), str(e)


SPECS = (BucketSpec((0.5,)), BucketSpec(), BucketSpec((0.5, 0.75)),
         BucketSpec((0.5, 0.55, 0.9, 0.99)))


@st.composite
def scored_rows(draw, min_size=0):
    """A spec and 1-d preds, labels, groups and confidences: one to four
    group ids, negative and sparse among them; confidences at every
    threshold and at 1.0, so some buckets are empty or hold only edges."""
    spec = draw(st.sampled_from(SPECS))
    n = draw(st.integers(min_size, 40))
    rows = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4, unique=True))
    groups = draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n))
    scores = draw(st.lists(st.sampled_from(spec.thresholds + (1.0,))
                           | st.floats(0.5, 1.0), min_size=n, max_size=n))
    return (spec, np.array(draw(rows), dtype=np.int64), np.array(draw(rows), dtype=np.int64),
            np.array(groups, dtype=np.int64), np.array(scores), ids)


class TestOnePassCountsMatchMaskLoops:
    @given(scored_rows(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_confusion_and_buckets(self, rows, data):
        """Counts, rates, gaps and errors as the mask loops gave them; a
        bad pred and a bad label may sit in different buckets."""
        spec, preds, labels, groups, scores, ids = rows
        n = preds.size
        for arr in (preds, labels):
            if n and data.draw(st.booleans()):
                arr[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from([-1, 2, 7]))
        g_i, g_j = data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids))
        assert outcome(confusion, preds, labels, groups) == \
            outcome(ref_confusion, preds, labels, groups)
        got = outcome(bucket_analysis, preds, labels, groups, scores, spec, g_i, g_j)
        assert got == outcome(ref_bucket_analysis, preds, labels, groups, scores, spec,
                              g_i, g_j)
        if isinstance(got, BucketReport):
            assert got.to_csv_rows() == ref_bucket_analysis(
                preds, labels, groups, scores, spec, g_i, g_j).to_csv_rows()

    @given(scored_rows(min_size=1), st.integers(1, 12), st.data())
    @settings(max_examples=300, deadline=None)
    def test_feature_histograms(self, rows, bins, data):
        """Edges and per-cell bin counts as ``np.histogram`` gave them, for
        free columns and for columns drawn from a pool of one to three
        values (constant, or with a repeated min and max, or one ulp
        apart)."""
        spec, _, _, groups, scores, _ = rows
        free = st.floats(-1e3, 1e3)
        pool = data.draw(st.lists(free, min_size=1, max_size=3))
        if data.draw(st.booleans()):
            pool.append(float(np.nextafter(pool[0], np.inf)))
        values = np.array(data.draw(st.lists(st.sampled_from(pool) | free,
                                             min_size=groups.size, max_size=groups.size)))
        got = outcome(feature_histograms, values, groups, scores, spec, "f", bins)
        want = outcome(ref_feature_histograms, values, groups, scores, spec, bins)
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want
            return
        edges, counts = want
        assert got.edges.tobytes() == edges.tobytes()
        assert list(got.counts) == list(counts)
        for key, cell in counts.items():
            assert got.counts[key].tolist() == cell.tolist(), key


class TestSharedPassMatchesStandaloneCalls:
    @given(scored_rows(min_size=1), st.integers(1, 12), st.data())
    @settings(max_examples=300, deadline=None)
    def test_reports_from_coded_columns(self, rows, bins, data):
        """The audit's shared pass: preds and labels checked and groups
        coded once by ``aligned``, scores assigned once to ``Buckets``; all
        three reports equal the standalone calls and the mask loops."""
        spec, preds, labels, groups, scores, ids = rows
        values = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=preds.size,
                                             max_size=preds.size)))
        g_i, g_j = data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids))
        p, y, g = aligned(preds, labels, groups)
        buckets = Buckets(spec, spec.assign(scores))

        assert confusion(p, y, g) == ref_confusion(preds, labels, groups)
        assert outcome(fairness_report, p, y, g) == outcome(fairness_report, preds, labels,
                                                            groups)
        got = bucket_analysis(p, y, g, buckets, spec, g_i, g_j)
        assert got == bucket_analysis(preds, labels, groups, scores, spec, g_i, g_j)
        assert got == ref_bucket_analysis(preds, labels, groups, scores, spec, g_i, g_j)
        assert got.to_csv_rows() == ref_bucket_analysis(
            preds, labels, groups, scores, spec, g_i, g_j).to_csv_rows()

        hist = feature_histograms(values, g, buckets, spec, "f", bins)
        alone = feature_histograms(values, groups, scores, spec, "f", bins)
        edges, counts = ref_feature_histograms(values, groups, scores, spec, bins)
        assert hist.edges.tobytes() == alone.edges.tobytes() == edges.tobytes()
        assert list(hist.counts) == list(alone.counts) == list(counts)
        for key, cell in counts.items():
            assert hist.counts[key].tolist() == alone.counts[key].tolist() == cell.tolist()
