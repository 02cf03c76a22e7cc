"""Confidence-based data splitting and confidence-stratified bias analysis:
per-bucket group rate gaps and per-bucket feature histograms.

Both reports take the confidences as they are and assign them to buckets
themselves; the preds, labels and groups may be raw or coded once for
several reports with ``metrics.aligned``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, DataError
from .metrics import (
    RATE_NAMES,
    GroupCodes,
    RateTable,
    cell_confusion,
    code_groups,
    count_table,
    rates,
    signed_gaps,
)
from .serial import format_float, round_float

GAP_RATES = ("tpr", "tnr", "fpr", "fnr")


def confidence_of(prob) -> np.ndarray:
    """max(p, 1 - p) of predicted probabilities; always in [0.5, 1]."""
    p = np.asarray(prob, dtype=np.float64)
    return np.maximum(p, 1.0 - p)


@dataclass(frozen=True)
class ConfidenceSplit:
    low: np.ndarray
    high: np.ndarray


def split_by_confidence(d: Dataset, model, threshold: float) -> ConfidenceSplit:
    """Partition rows at a confidence threshold; ties go to the high side."""
    if not (0.5 < threshold < 1.0):
        raise ConfigError(f"confidence threshold must lie in (0.5, 1), got {threshold}")
    is_high = confidence_of(model.score(d.x)) >= threshold
    idx = np.arange(d.n, dtype=np.int64)
    return ConfidenceSplit(low=idx[~is_high], high=idx[is_high])


@dataclass(frozen=True)
class BucketSpec:
    """Confidence bucket boundaries: [t_k, t_{k+1}), the last bucket closed at 1."""

    thresholds: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8)

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))
        t = self.thresholds
        if not t or t[0] != 0.5:
            raise ConfigError("bucket thresholds must start at 0.5")
        if any(not b > a for a, b in zip(t, t[1:])):  # NaN compares false
            raise ConfigError("bucket thresholds must be finite and strictly increasing")
        if t[-1] >= 1.0:
            raise ConfigError("bucket thresholds must stay below 1")

    @property
    def count(self) -> int:
        return len(self.thresholds)

    def edges(self) -> list[tuple[float, float]]:
        t = self.thresholds
        return [(t[k], t[k + 1] if k + 1 < len(t) else 1.0) for k in range(len(t))]

    def assign(self, scores: np.ndarray) -> np.ndarray:
        """Each score's bucket: the number of thresholds after the first
        that it reaches, counted with one comparison pass per threshold."""
        scores = np.asarray(scores, dtype=np.float64)
        if scores.size and not (scores.min() >= 0.5 and scores.max() <= 1.0):  # NaN fails
            raise DataError("confidence scores must lie in [0.5, 1]")
        idx = np.zeros(scores.shape, dtype=np.int64)
        for t in self.thresholds[1:]:
            idx += scores >= t
        return idx


def _column(a) -> np.ndarray:
    """The array that holds one row per entry of a raw or a coded column."""
    return a.inverse if isinstance(a, GroupCodes) else np.asarray(a)


@dataclass(frozen=True)
class BucketEntry:
    lo: float
    hi: float
    group_rates: RateTable
    group_counts: dict[int, int]
    gaps: dict[str, float | None]


@dataclass(frozen=True)
class BucketReport:
    spec: BucketSpec
    pair: tuple[int, int]
    entries: tuple[BucketEntry, ...]
    total: int

    def to_dict(self) -> dict:
        buckets = []
        for e in self.entries:
            buckets.append({
                "lo": e.lo,
                "hi": e.hi,
                "counts": {str(g): c for g, c in sorted(e.group_counts.items())},
                "rates": {
                    str(g): {name: round_float(r.get(name)) for name in RATE_NAMES}
                    for g, r in sorted(e.group_rates.items())
                },
                "gaps": {name: round_float(e.gaps[name]) for name in GAP_RATES},
            })
        return {
            "group_pair": [self.pair[0], self.pair[1]],
            "thresholds": list(self.spec.thresholds),
            "total": self.total,
            "buckets": buckets,
        }

    def to_csv_rows(self) -> list[list[str]]:
        """One row per bucket x group x measure, plus per-bucket gap rows."""
        rows = [["bucket", "lo", "hi", "group", "measure", "value"]]
        for k, e in enumerate(self.entries):
            cell = [str(k), format_float(e.lo), format_float(e.hi)]
            for g in sorted(e.group_counts):
                rows.append([*cell, str(g), "count", str(e.group_counts[g])])
                r = e.group_rates[g]
                for name in RATE_NAMES:
                    rows.append([*cell, str(g), name, format_float(r.get(name))])
            for name in GAP_RATES:
                rows.append([*cell, "gap", f"delta_{name}", format_float(e.gaps[name])])
        return rows


def bucket_analysis(preds, labels, groups, scores, spec: BucketSpec,
                    g_i: int, g_j: int) -> BucketReport:
    """Per-bucket, per-group confusion rates and signed gaps for a group pair.

    Every bucket is counted from one count table; a bucket lists the groups
    that have rows in it. Undefined rates propagate as None gaps rather
    than being zero-filled.
    """
    preds, labels, scores = np.asarray(preds), np.asarray(labels), np.asarray(scores)
    if not (preds.shape == labels.shape == _column(groups).shape == scores.shape):
        raise DataError("preds, labels, groups, scores lengths differ")
    if preds.ndim != 1:
        raise DataError("preds must be 1-d")
    assignment = spec.assign(scores)
    entries = []
    for (lo, hi), counts in zip(spec.edges(),
                                cell_confusion(preds, labels, groups, assignment, spec.count)):
        table = rates(counts)
        entries.append(BucketEntry(
            lo=lo, hi=hi,
            group_rates=table,
            group_counts={g: c.size for g, c in counts.items()},
            gaps=signed_gaps(table, GAP_RATES, g_i, g_j),
        ))
    return BucketReport(spec=spec, pair=(g_i, g_j), entries=tuple(entries),
                        total=len(preds))


@dataclass(frozen=True)
class HistogramReport:
    feature: str
    edges: np.ndarray
    counts: dict[tuple[int, int], np.ndarray]  # (bucket, group) -> per-bin counts

    def to_dict(self) -> dict:
        return {
            "feature": self.feature,
            "edges": [round_float(e) for e in self.edges],
            "counts": {
                f"{b}:{g}": [int(c) for c in arr]
                for (b, g), arr in sorted(self.counts.items())
            },
        }

    def to_csv_rows(self) -> list[list[str]]:
        rows = [["bucket", "group", "bin", "lo", "hi", "count"]]
        for (b, g), arr in sorted(self.counts.items()):
            for i, c in enumerate(arr):
                rows.append([str(b), str(g), str(i), format_float(self.edges[i]),
                             format_float(self.edges[i + 1]), str(int(c))])
        return rows


def feature_histograms(values, groups, scores, spec: BucketSpec, feature: str,
                       bins: int) -> HistogramReport:
    """Equal-width histograms of one numeric feature's column ``values``,
    split by bucket and group.

    Bin edges are shared across all cells, spanning the feature's global
    [min, max], so every value must be finite. Each value's bin is found
    once, and every (bucket, group) cell, empty ones too, is counted from
    one count table.
    """
    if bins < 1:
        raise ConfigError("bins must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise DataError("empty dataset")
    scores = np.asarray(scores)
    columns = ((values, "values"), (_column(groups), "groups"), (scores, "scores"))
    if len({arr.shape[:1] for arr, _ in columns}) > 1:
        raise DataError("scores and dataset lengths differ")
    for arr, name in columns:
        if arr.ndim != 1:
            raise DataError(f"{name} must be 1-d")
    groups = code_groups(groups)
    assignment = spec.assign(scores)
    if not np.isfinite(values).all():
        raise DataError(f"feature {feature!r} has values that are not finite")
    edges = np.histogram_bin_edges(values, bins=bins, range=(values.min(), values.max()))
    # np.histogram's rule for array edges: [e_i, e_i+1), the last bin closed.
    bin_of = np.searchsorted(edges, values, "right") - 1
    np.minimum(bin_of, bins - 1, out=bin_of)
    table = count_table(groups, assignment * bins + bin_of, spec.count * bins)
    table = table.reshape(spec.count, bins, groups.ids.size)
    counts = {(k, int(g)): table[k, :, j]
              for k in range(spec.count) for j, g in enumerate(groups.ids)}
    return HistogramReport(feature=feature, edges=edges, counts=counts)
