"""Group-fairness metrics: per-group confusion counts, confusion-derived
rates, signed bias gaps, Demographic Parity, and Equalised Odds.

Every count, here and in the confidence reports, comes from one
``count_table`` pass over the rows, not from a mask per group. A caller
that runs several reports over the same rows checks and codes them once
with ``aligned``, and each report takes the coded columns in place of the
raw ones.

Rates with zero denominators are reported as None rather than silently
zero-filled; aggregations that need them raise UndefinedRateError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UndefinedRateError
from .serial import round_float

RATE_NAMES = ("tpr", "tnr", "fpr", "fnr", "positive_rate")


def _is_binary(arr: np.ndarray) -> np.ndarray:
    return (arr == 0) | (arr == 1)


def _as_binary(values, name: str) -> np.ndarray:
    """``values`` as bool once every entry is checked to be 0 or 1 (before
    the cast, which would make 0.9 True). A bool column is binary by its
    type and passes unchecked."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise DataError(f"{name} must be 1-d")
    if arr.dtype != bool:
        if not _is_binary(arr).all():
            raise DataError(f"{name} must contain only 0/1 entries")
        arr = arr == 1
    return arr


@dataclass(frozen=True)
class GroupCodes:
    """A group column coded once: its sorted distinct ``ids`` and each
    row's index into them, ``inverse``, of the column's shape."""

    ids: np.ndarray
    inverse: np.ndarray


def _integer_ids(groups) -> np.ndarray:
    """``groups`` as int64 once every entry is checked to be an integer id
    (before the cast, which would truncate 0.9 to 0): integral floats such
    as 1.0 count as their integers; fractions, NaN, out-of-range values and
    strings are a DataError."""
    g = np.asarray(groups)
    if g.dtype.kind == "f":
        ok = ((g >= -2.0 ** 63) & (g < 2.0 ** 63) & (np.floor(g) == g)).all()
    else:
        ok = g.dtype.kind in "biu" and (g.dtype != np.uint64 or not g.size
                                        or g.max() < 2 ** 63)
    if not ok:
        raise DataError("groups must be integer ids")
    return g.astype(np.int64, copy=False)


def code_groups(groups) -> GroupCodes:
    """The ids and inverse that ``np.unique(groups, return_inverse=True)``
    gives for a column of integer ids; coded groups pass through.

    A 1-d column of non-negative ids below twice its length is coded in
    O(n): one ``np.bincount`` marks the ids present, and its cumulative
    sum is the remap from id to index. Other ids take ``np.unique``."""
    if isinstance(groups, GroupCodes):
        return groups
    g = _integer_ids(groups)
    if g.ndim == 1 and g.size and g.min() >= 0 and g.max() < 2 * g.size:
        present = np.bincount(g) > 0
        return GroupCodes(np.flatnonzero(present), (np.cumsum(present) - 1)[g])
    return GroupCodes(*np.unique(g, return_inverse=True))


def aligned(preds, labels, groups) -> tuple[np.ndarray, np.ndarray, GroupCodes]:
    """``preds`` and ``labels`` checked to be 0/1 (as bool) and ``groups``
    checked and coded, in that order, then their lengths; every report
    takes the results in place of the raw columns and checks them no more.
    """
    p = _as_binary(preds, "preds")
    y = _as_binary(labels, "labels")
    g = code_groups(groups)
    if not (p.shape == y.shape == g.inverse.shape):
        raise DataError("preds, labels, groups lengths differ")
    return p, y, g


@dataclass(frozen=True)
class GroupCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def size(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class GroupRates:
    tpr: float | None
    tnr: float | None
    fpr: float | None
    fnr: float | None
    positive_rate: float | None

    def get(self, name: str) -> float | None:
        if name not in RATE_NAMES:
            raise DataError(f"unknown rate {name!r}")
        return getattr(self, name)


RateTable = dict[int, GroupRates]


def count_table(groups: GroupCodes, cells=None, n_cells: int = 1, preds=None,
                labels=None) -> np.ndarray:
    """Row counts per (cell, group, pred, label) from one ``np.bincount``.

    Returns an int64 array of shape (n_cells, groups, 2, 2) indexed [cell,
    group, pred, label], or (n_cells, groups) without ``preds`` and
    ``labels``; groups are in the order of ``groups.ids``. ``cells`` are
    int64 ids in [0, n_cells), all 0 when None; ``preds`` and ``labels``
    are bool. Every array is 1-d and of one length.
    """
    shape = (n_cells, groups.ids.size)
    key = groups.inverse
    if cells is not None:
        key = key + cells * groups.ids.size
    if preds is not None:
        key = key * 4 + preds * 2 + labels
        shape += (2, 2)
    return np.bincount(key, minlength=math.prod(shape)).reshape(shape)


def _by_group(ids: np.ndarray, table: np.ndarray) -> dict[int, GroupCounts]:
    """The groups of a (groups, 2, 2) count table that have rows, in id order."""
    return {int(g): GroupCounts(tp=int(t[1, 1]), fp=int(t[1, 0]),
                                tn=int(t[0, 0]), fn=int(t[0, 1]))
            for g, t in zip(ids, table) if t.any()}


def confusion(preds, labels, groups) -> dict[int, GroupCounts]:
    """Exhaustive per-group TP/FP/TN/FN counts; takes raw or ``aligned``
    columns."""
    p, y, g = aligned(preds, labels, groups)
    return _by_group(g.ids, count_table(g, preds=p, labels=y)[0])


def cell_confusion(preds, labels, groups, cells: np.ndarray,
                   n_cells: int) -> list[dict[int, GroupCounts]]:
    """``confusion`` of the rows of each cell 0..n_cells-1, from one count
    table; row i is in cell ``cells[i]``. The arrays are 1-d and of one
    length; bool preds and labels, as ``aligned`` gives them, are not
    checked again. A pred or label outside {0, 1} raises what ``confusion``
    raises on the rows of the first cell that holds one: the pred error if
    that cell has a bad pred. Group ids are checked after them."""
    p, y = np.asarray(preds), np.asarray(labels)
    if p.dtype != bool or y.dtype != bool:
        bad_p, bad_y = ~_is_binary(p), ~_is_binary(y)
        if bad_p.any() or bad_y.any():
            first = cells[bad_p | bad_y].min()
            name = "preds" if bad_p[cells == first].any() else "labels"
            raise DataError(f"{name} must contain only 0/1 entries")
        p, y = p == 1, y == 1
    g = code_groups(groups)
    return [_by_group(g.ids, t) for t in count_table(g, cells, n_cells, p, y)]


def _ratio(num: int, den: int) -> float | None:
    return None if den == 0 else num / den


def rates(counts: dict[int, GroupCounts]) -> RateTable:
    return {
        gid: GroupRates(
            tpr=_ratio(k.tp, k.tp + k.fn),
            tnr=_ratio(k.tn, k.tn + k.fp),
            fpr=_ratio(k.fp, k.fp + k.tn),
            fnr=_ratio(k.fn, k.fn + k.tp),
            positive_rate=_ratio(k.tp + k.fp, k.size),
        )
        for gid, k in counts.items()
    }


def bias_gap(table: RateTable, rate: str, g_i: int, g_j: int) -> float:
    """Signed rate difference value(g_i) - value(g_j)."""
    for gid in (g_i, g_j):
        if gid not in table:
            raise DataError(f"group {gid} absent from rate table")
    vi = table[g_i].get(rate)
    vj = table[g_j].get(rate)
    if vi is None or vj is None:
        raise UndefinedRateError(f"rate {rate!r} undefined for group pair ({g_i}, {g_j})")
    return vi - vj


def signed_gaps(table: RateTable, names, g_i: int, g_j: int) -> dict[str, float | None]:
    """``bias_gap`` per rate name; None where a rate is undefined or a group absent."""
    gaps: dict[str, float | None] = {}
    for name in names:
        try:
            gaps[name] = bias_gap(table, name, g_i, g_j)
        except DataError:
            gaps[name] = None
    return gaps


def _demographic_parity(table: RateTable, g_i: int, g_j: int) -> float:
    return abs(bias_gap(table, "positive_rate", g_i, g_j))


def _equalized_odds(table: RateTable, g_i: int, g_j: int) -> float:
    d_tpr = bias_gap(table, "tpr", g_i, g_j)
    d_fpr = bias_gap(table, "fpr", g_i, g_j)
    return 0.5 * abs(d_tpr) + 0.5 * abs(d_fpr)


def demographic_parity(preds, groups, g_i: int, g_j: int) -> float:
    """Absolute positive-prediction rate difference between two groups."""
    # The positive rate reads predictions only, so any labels will do.
    return _demographic_parity(rates(confusion(preds, preds, groups)), g_i, g_j)


def equalized_odds(preds, labels, groups, g_i: int, g_j: int) -> float:
    """Half the absolute TPR gap plus half the absolute FPR gap."""
    return _equalized_odds(rates(confusion(preds, labels, groups)), g_i, g_j)


def accuracy(preds, labels) -> float:
    p = _as_binary(preds, "preds")
    y = _as_binary(labels, "labels")
    if p.shape != y.shape:
        raise DataError("preds and labels lengths differ")
    if p.size == 0:
        raise DataError("cannot compute accuracy of an empty prediction set")
    return float((p == y).mean())


def largest_pair(groups) -> tuple[int, int]:
    """The two most populous group ids; ties break toward the smaller id."""
    g = code_groups(groups)
    counts = np.bincount(g.inverse.reshape(-1), minlength=g.ids.size)
    return _largest_pair(dict(zip(g.ids.tolist(), counts.tolist())))


def _largest_pair(sizes: dict[int, int]) -> tuple[int, int]:
    if len(sizes) < 2:
        raise DataError("fairness evaluation needs at least two groups")
    g_i, g_j = sorted(sizes, key=lambda gid: (-sizes[gid], gid))[:2]
    return g_i, g_j


@dataclass(frozen=True)
class FairnessReport:
    accuracy: float
    dp: float
    eodds: float
    signed_gaps: dict[str, float | None]
    group_sizes: dict[int, int]
    pair: tuple[int, int]

    def to_dict(self) -> dict:
        return {
            "accuracy": round_float(self.accuracy),
            "demographic_parity": round_float(self.dp),
            "equalized_odds": round_float(self.eodds),
            "signed_gaps": {k: round_float(v) for k, v in self.signed_gaps.items()},
            "group_sizes": {str(g): n for g, n in sorted(self.group_sizes.items())},
            "group_pair": [self.pair[0], self.pair[1]],
        }


def fairness_report(preds, labels, groups) -> FairnessReport:
    """Accuracy plus fairness metrics for the two largest groups; takes raw
    or ``aligned`` columns.

    Every number comes from one per-group confusion table. Signed gaps that
    are undefined in either group are reported as None; DP and EOdds
    themselves must be computable or this raises.
    """
    counts = confusion(preds, labels, groups)
    sizes = {gid: k.size for gid, k in counts.items()}
    g_i, g_j = _largest_pair(sizes)
    table = rates(counts)
    # Both raise unless both groups have rows, so accuracy divides by n > 0.
    dp = _demographic_parity(table, g_i, g_j)
    eodds = _equalized_odds(table, g_i, g_j)
    return FairnessReport(
        accuracy=sum(k.tp + k.tn for k in counts.values()) / sum(sizes.values()),
        dp=dp,
        eodds=eodds,
        signed_gaps=signed_gaps(table, RATE_NAMES, g_i, g_j),
        group_sizes=sizes,
        pair=(g_i, g_j),
    )
