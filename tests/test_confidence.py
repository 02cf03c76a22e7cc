import numpy as np
import pytest

from reckoner.confidence import (
    BucketSpec,
    bucket_analysis,
    confidence_of,
    feature_histograms,
    split_by_confidence,
)
from reckoner.data import CodedTable, ColumnSpec, Dataset, Schema, StandardizedRows
from reckoner.errors import ConfigError, DataError
from reckoner.metrics import confusion

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
        d = make_dataset([0, 1], [0, 1])
        split = split_by_confidence(d, StubModel([0.5, 0.7]), 0.5)
        assert split.low.size == 0
        assert split.high.tolist() == [0, 1]

    def test_threshold_out_of_range(self):
        d = make_dataset([0, 1], [0, 1])
        with pytest.raises(ConfigError):
            split_by_confidence(d, StubModel([0.5, 0.7]), 0.4)
        with pytest.raises(ConfigError):
            split_by_confidence(d, StubModel([0.5, 0.7]), 1.0)


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
