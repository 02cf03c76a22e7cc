"""Group-fairness metrics: per-group confusion counts, confusion-derived
rates, signed bias gaps, Demographic Parity, and Equalised Odds.

Rates with zero denominators are reported as None rather than silently
zero-filled; aggregations that need them raise UndefinedRateError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, UndefinedRateError
from .serial import round_float

RATE_NAMES = ("tpr", "tnr", "fpr", "fnr", "positive_rate")


def _as_binary(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise DataError(f"{name} must be 1-d")
    arr = arr.astype(np.int64)
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise DataError(f"{name} must contain only 0/1 entries")
    return arr


def _aligned(preds, labels, groups) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    p = _as_binary(preds, "preds")
    y = _as_binary(labels, "labels")
    g = np.asarray(groups, dtype=np.int64)
    if not (p.shape == y.shape == g.shape):
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
class GroupConfusion:
    groups: dict[int, GroupCounts]

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", dict(self.groups))

    def sizes(self) -> dict[int, int]:
        return {g: c.size for g, c in self.groups.items()}


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


@dataclass(frozen=True)
class RateTable:
    groups: dict[int, GroupRates]

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", dict(self.groups))


def confusion(preds, labels, groups) -> GroupConfusion:
    """Exhaustive per-group TP/FP/TN/FN counts."""
    p, y, g = _aligned(preds, labels, groups)
    out: dict[int, GroupCounts] = {}
    for gid in np.unique(g):
        mask = g == gid
        pg, yg = p[mask], y[mask]
        out[int(gid)] = GroupCounts(
            tp=int(((pg == 1) & (yg == 1)).sum()),
            fp=int(((pg == 1) & (yg == 0)).sum()),
            tn=int(((pg == 0) & (yg == 0)).sum()),
            fn=int(((pg == 0) & (yg == 1)).sum()),
        )
    return GroupConfusion(out)


def _ratio(num: int, den: int) -> float | None:
    return None if den == 0 else num / den


def rates(c: GroupConfusion) -> RateTable:
    out: dict[int, GroupRates] = {}
    for gid, k in c.groups.items():
        out[gid] = GroupRates(
            tpr=_ratio(k.tp, k.tp + k.fn),
            tnr=_ratio(k.tn, k.tn + k.fp),
            fpr=_ratio(k.fp, k.fp + k.tn),
            fnr=_ratio(k.fn, k.fn + k.tp),
            positive_rate=_ratio(k.tp + k.fp, k.size),
        )
    return RateTable(out)


def bias_gap(table: RateTable, rate: str, g_i: int, g_j: int) -> float:
    """Signed rate difference value(g_i) - value(g_j)."""
    for gid in (g_i, g_j):
        if gid not in table.groups:
            raise DataError(f"group {gid} absent from rate table")
    vi = table.groups[g_i].get(rate)
    vj = table.groups[g_j].get(rate)
    if vi is None or vj is None:
        raise UndefinedRateError(f"rate {rate!r} undefined for group pair ({g_i}, {g_j})")
    return vi - vj


def demographic_parity(preds, groups, g_i: int, g_j: int) -> float:
    """Absolute positive-prediction rate difference between two groups."""
    p = _as_binary(preds, "preds")
    g = np.asarray(groups, dtype=np.int64)
    if p.shape != g.shape:
        raise DataError("preds and groups lengths differ")
    rates_by_group = []
    for gid in (g_i, g_j):
        mask = g == gid
        if not mask.any():
            raise DataError(f"group {gid} is empty")
        rates_by_group.append(int(p[mask].sum()) / int(mask.sum()))
    return abs(rates_by_group[0] - rates_by_group[1])


def equalized_odds(preds, labels, groups, g_i: int, g_j: int) -> float:
    """Half the absolute TPR gap plus half the absolute FPR gap."""
    table = rates(confusion(preds, labels, groups))
    d_tpr = bias_gap(table, "tpr", g_i, g_j)
    d_fpr = bias_gap(table, "fpr", g_i, g_j)
    return 0.5 * abs(d_tpr) + 0.5 * abs(d_fpr)


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
    g = np.asarray(groups, dtype=np.int64)
    ids, counts = np.unique(g, return_counts=True)
    if ids.size < 2:
        raise DataError("fairness evaluation needs at least two groups")
    order = sorted(range(ids.size), key=lambda i: (-counts[i], ids[i]))
    return int(ids[order[0]]), int(ids[order[1]])


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
            "signed_gaps": {
                k: (None if v is None else round_float(v))
                for k, v in self.signed_gaps.items()
            },
            "group_sizes": {str(g): n for g, n in sorted(self.group_sizes.items())},
            "group_pair": [self.pair[0], self.pair[1]],
        }


def fairness_report(preds, labels, groups, pair: tuple[int, int] | None = None) -> FairnessReport:
    """Accuracy plus fairness metrics for a designated group pair.

    The pair defaults to the two largest groups. Signed gaps that are
    undefined in either group are reported as None; DP and EOdds themselves
    must be computable or this raises.
    """
    p, y, g = _aligned(preds, labels, groups)
    if pair is None:
        pair = largest_pair(g)
    g_i, g_j = pair
    table = rates(confusion(p, y, g))
    gaps: dict[str, float | None] = {}
    for name in RATE_NAMES:
        try:
            gaps[name] = bias_gap(table, name, g_i, g_j)
        except UndefinedRateError:
            gaps[name] = None
    dp = demographic_parity(p, g, g_i, g_j)
    eo = equalized_odds(p, y, g, g_i, g_j)
    sizes = {int(gid): int((g == gid).sum()) for gid in np.unique(g)}
    return FairnessReport(
        accuracy=accuracy(p, y),
        dp=dp,
        eodds=eo,
        signed_gaps=gaps,
        group_sizes=sizes,
        pair=(g_i, g_j),
    )
