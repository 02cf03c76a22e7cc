import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reckoner.errors import DataError, UndefinedRateError
from reckoner.metrics import (
    RATE_NAMES,
    accuracy,
    aligned,
    bias_gap,
    code_groups,
    confusion,
    demographic_parity,
    equalized_odds,
    fairness_report,
    largest_pair,
    rates,
    signed_gaps,
)

# Hand fixture: group A rows (pred, label) = (1,1),(0,1),(1,0);
# group B rows (1,1),(0,0),(0,0).
PREDS = [1, 0, 1, 1, 0, 0]
LABELS = [1, 1, 0, 1, 0, 0]
GROUPS = [0, 0, 0, 1, 1, 1]


def oracle_dp(preds, groups, gi, gj):
    """Exhaustive counting, independent of the metrics module."""
    pos = {gi: 0, gj: 0}
    tot = {gi: 0, gj: 0}
    for p, g in zip(preds, groups):
        if g in tot:
            tot[g] += 1
            pos[g] += int(p)
    return abs(pos[gi] / tot[gi] - pos[gj] / tot[gj])


def oracle_eodds(preds, labels, groups, gi, gj):
    tp = {gi: 0, gj: 0}
    pos = {gi: 0, gj: 0}
    fp = {gi: 0, gj: 0}
    neg = {gi: 0, gj: 0}
    for p, y, g in zip(preds, labels, groups):
        if g not in tp:
            continue
        if y == 1:
            pos[g] += 1
            tp[g] += int(p)
        else:
            neg[g] += 1
            fp[g] += int(p)
    tpr = {g: tp[g] / pos[g] for g in (gi, gj)}
    fpr = {g: fp[g] / neg[g] for g in (gi, gj)}
    return 0.5 * abs(tpr[gi] - tpr[gj]) + 0.5 * abs(fpr[gi] - fpr[gj])


class TestConfusion:
    def test_hand_counts(self):
        c = confusion(PREDS, LABELS, GROUPS)
        a, b = c[0], c[1]
        assert (a.tp, a.fn, a.fp, a.tn) == (1, 1, 1, 0)
        assert (b.tp, b.tn, b.fp, b.fn) == (1, 2, 0, 0)

    def test_perfect_predictions(self):
        c = confusion([1, 0, 1], [1, 0, 1], [0, 0, 1])
        assert all(k.fp == 0 and k.fn == 0 for k in c.values())

    def test_empty_input(self):
        assert confusion([], [], []) == {}

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            confusion([1, 0], [1], [0, 0])

    def test_non_binary_rejected(self):
        with pytest.raises(DataError):
            confusion([2, 0], [1, 0], [0, 0])

    def test_non_integral_values_rejected_before_the_cast(self):
        """0.9 is not a 0/1 entry: it must not be truncated to 0."""
        with pytest.raises(DataError, match="preds must contain only 0/1 entries"):
            accuracy([0.9], [0])
        with pytest.raises(DataError, match="preds must contain only 0/1 entries"):
            confusion([0.7, 1.2, 0.2], [0, 1, 0], [0, 0, 0])
        with pytest.raises(DataError, match="labels must contain only 0/1 entries"):
            confusion([1, 0], [0.5, 0], [0, 0])
        with pytest.raises(DataError, match="labels must contain only 0/1 entries"):
            accuracy([1, 0], [np.nan, 0])

    def test_integral_floats_and_booleans_count(self):
        c = confusion([1.0, 0.0, True], [True, 0.0, 1], [0, 0, 0])
        assert (c[0].tp, c[0].fp, c[0].tn, c[0].fn) == (2, 0, 1, 0)


class TestGroupIds:
    """Group ids are integers: a fraction is neither truncated nor merged."""

    def test_fairness_report_rejects_non_integral_ids(self):
        for groups in ([0.4, 0.4, 0.6, 0.6], [0.9, 0.9, 1.9, 1.9], ["a", "a", "b", "b"],
                       [0, 0, np.nan, 1], [0, 0, np.inf, 1], [0, 0, 2.0 ** 63, 1]):
            with pytest.raises(DataError, match="groups must be integer ids"):
                fairness_report([1, 0, 1, 0], [1, 0, 0, 1], groups)

    def test_largest_pair_rejects_non_integral_ids(self):
        with pytest.raises(DataError, match="groups must be integer ids"):
            largest_pair([0.9, 1.9, 1.9])

    def test_integral_floats_count_as_their_integers(self):
        floats = fairness_report([1, 0, 1, 0], [1, 0, 0, 1], [1.0, 1.0, 2.0, 2.0])
        assert floats == fairness_report([1, 0, 1, 0], [1, 0, 0, 1], [1, 1, 2, 2])
        assert largest_pair(np.array([5, 3, 3], dtype=np.uint64)) == (3, 5)
        assert largest_pair([True, False, True]) == (1, 0)

    def test_checks_run_in_order_once(self):
        """``aligned`` checks preds, then labels, then groups, then lengths,
        and hands back columns that no report checks again."""
        with pytest.raises(DataError, match="preds must"):
            aligned([2], [5], [0.5])
        with pytest.raises(DataError, match="labels must"):
            aligned([1], [5], [0.5])
        with pytest.raises(DataError, match="groups must be integer ids"):
            aligned([1], [0], [0.5, 1])
        with pytest.raises(DataError, match="lengths differ"):
            aligned([1], [0], [0, 1])
        p, y, g = aligned([1, 0, 1.0], [True, 0, 1], [7, 3, 7])
        assert (p.tolist(), y.tolist()) == ([True, False, True], [True, False, True])
        assert (g.ids.tolist(), g.inverse.tolist()) == ([3, 7], [1, 0, 1])
        again = aligned(p, y, g)
        assert again[0] is p and again[1] is y and again[2] is g


GROUP_COLUMNS = st.one_of(
    # non-negative, below twice the length: the bincount path
    st.lists(st.integers(0, 7), min_size=4, max_size=60),
    st.lists(st.integers(-50, 50), min_size=1, max_size=60),  # negative ids
    st.lists(st.integers(2 ** 62, 2 ** 63 - 1), min_size=1, max_size=20),
    st.integers(0, 10 ** 6).flatmap(lambda g: st.lists(st.just(g), min_size=1,
                                                       max_size=30)),  # one group
    st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=60),  # max far above n
)


class TestCodeGroups:
    @given(GROUP_COLUMNS)
    @settings(max_examples=300, deadline=None)
    def test_equals_np_unique(self, groups):
        g = np.array(groups, dtype=np.int64)
        ids, inverse = np.unique(g, return_inverse=True)
        got = code_groups(g)
        assert got.ids.dtype == ids.dtype and got.ids.tobytes() == ids.tobytes()
        assert got.inverse.dtype == inverse.dtype
        assert got.inverse.tobytes() == inverse.tobytes()

    def test_dense_ids_take_no_sort(self, monkeypatch):
        """Non-negative ids below twice the row count are coded in O(n),
        without ``np.unique``; others fall back to it."""
        calls = []
        real = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a) or real(*a, **k))
        assert code_groups([5, 0, 5, 2, 2, 9]).ids.tolist() == [0, 2, 5, 9]
        assert not calls
        assert code_groups([5, 0, 5, 12, 2, 9]).ids.tolist() == [0, 2, 5, 9, 12]
        assert len(calls) == 1


class TestRates:
    def test_hand_rates(self):
        t = rates(confusion(PREDS, LABELS, GROUPS))
        assert t[0].tpr == 0.5
        assert t[0].fpr == 1.0
        assert t[1].tpr == 1.0
        assert t[1].fpr == 0.0

    def test_zero_denominator_is_none(self):
        t = rates(confusion([0, 0], [0, 0], [0, 0]))  # group with no positives
        assert t[0].tpr is None
        assert t[0].fnr is None
        assert t[0].tnr == 1.0

    def test_all_correct(self):
        t = rates(confusion([1, 0], [1, 0], [0, 0]))
        assert t[0].tpr == 1.0 and t[0].fpr == 0.0

    def test_complement_identities(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(4, 60)
            t = rates(confusion(rng.integers(0, 2, n), rng.integers(0, 2, n),
                                rng.integers(0, 3, n)))
            for r in t.values():
                if r.tpr is not None:
                    assert r.tpr + r.fnr == pytest.approx(1.0, abs=1e-12)
                if r.tnr is not None:
                    assert r.tnr + r.fpr == pytest.approx(1.0, abs=1e-12)


class TestBiasGap:
    def test_hand_gap(self):
        t = rates(confusion(PREDS, LABELS, GROUPS))
        assert bias_gap(t, "tpr", 0, 1) == -0.5

    def test_identical_rates_give_zero(self):
        t = rates(confusion([1, 0, 1, 0], [1, 0, 1, 0], [0, 0, 1, 1]))
        assert bias_gap(t, "tpr", 0, 1) == 0.0

    def test_antisymmetry(self):
        t = rates(confusion(PREDS, LABELS, GROUPS))
        for name in ("tpr", "fpr", "positive_rate"):
            assert bias_gap(t, name, 0, 1) == -bias_gap(t, name, 1, 0)

    def test_undefined_rate_raises(self):
        t = rates(confusion([0, 1], [0, 1], [0, 1]))  # group 0 has no positives
        with pytest.raises(UndefinedRateError):
            bias_gap(t, "tpr", 0, 1)


class TestDemographicParity:
    def test_equal_rates(self):
        assert demographic_parity([1, 0, 1, 0], [0, 0, 1, 1], 0, 1) == 0.0

    def test_hand_value(self):
        # A predicts positive 2/3, B predicts positive 1/3.
        assert demographic_parity(PREDS, GROUPS, 0, 1) == pytest.approx(1 / 3)

    def test_all_positive(self):
        assert demographic_parity([1, 1, 1, 1], [0, 0, 1, 1], 0, 1) == 0.0

    def test_empty_group_errors(self):
        with pytest.raises(DataError):
            demographic_parity([1, 0], [0, 0], 0, 1)


class TestEqualizedOdds:
    def test_perfect_classifier(self):
        assert equalized_odds([1, 0, 1, 0], [1, 0, 1, 0], [0, 0, 1, 1], 0, 1) == 0.0

    def test_hand_value(self):
        assert equalized_odds(PREDS, LABELS, GROUPS, 0, 1) == pytest.approx(0.75)

    def test_identical_behavior(self):
        preds = [1, 0, 1, 0, 1, 0, 1, 0]
        labels = [1, 1, 0, 0, 1, 1, 0, 0]
        groups = [0, 0, 0, 0, 1, 1, 1, 1]
        assert equalized_odds(preds, labels, groups, 0, 1) == 0.0

    def test_undefined_raises(self):
        with pytest.raises(UndefinedRateError):
            equalized_odds([1, 0], [1, 0], [0, 1], 0, 1)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0

    def test_inverted(self):
        assert accuracy([0, 1, 0], [1, 0, 1]) == 0.0

    def test_hand_value(self):
        assert accuracy([1, 1, 0, 0], [1, 1, 0, 1]) == 0.75

    def test_empty_errors(self):
        with pytest.raises(DataError):
            accuracy([], [])


class TestOracleEquivalence:
    def test_formulas_match_exhaustive_counting(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(4, 200))
            preds = rng.integers(0, 2, n)
            labels = rng.integers(0, 2, n)
            groups = rng.integers(0, 2, n)
            ok = all(
                ((groups == g) & (labels == y)).any()
                for g in (0, 1) for y in (0, 1)
            )
            if not ok:
                continue
            assert demographic_parity(preds, groups, 0, 1) == oracle_dp(
                preds, groups, 0, 1)
            assert equalized_odds(preds, labels, groups, 0, 1) == oracle_eodds(
                preds, labels, groups, 0, 1)


@st.composite
def labeled_groups(draw):
    n = draw(st.integers(min_value=8, max_value=120))
    preds = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    groups = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return np.array(preds), np.array(labels), np.array(groups)


class TestProperties:
    @given(labeled_groups())
    @settings(max_examples=80, deadline=None)
    def test_permutation_invariance(self, data):
        preds, labels, groups = data
        if len(np.unique(groups)) < 2:
            return
        if not all(((groups == g) & (labels == y)).any()
                   for g in (0, 1) for y in (0, 1)):
            return
        perm = np.random.default_rng(0).permutation(len(preds))
        assert demographic_parity(preds, groups, 0, 1) == pytest.approx(
            demographic_parity(preds[perm], groups[perm], 0, 1), abs=1e-15)
        assert equalized_odds(preds, labels, groups, 0, 1) == pytest.approx(
            equalized_odds(preds[perm], labels[perm], groups[perm], 0, 1), abs=1e-15)

    @given(labeled_groups())
    @settings(max_examples=80, deadline=None)
    def test_group_swap_leaves_dp_eodds_unchanged(self, data):
        preds, labels, groups = data
        if len(np.unique(groups)) < 2:
            return
        if not all(((groups == g) & (labels == y)).any()
                   for g in (0, 1) for y in (0, 1)):
            return
        assert demographic_parity(preds, groups, 0, 1) == demographic_parity(
            preds, groups, 1, 0)
        assert equalized_odds(preds, labels, groups, 0, 1) == equalized_odds(
            preds, labels, groups, 1, 0)

    @given(labeled_groups())
    @settings(max_examples=60, deadline=None)
    def test_ranges(self, data):
        preds, labels, groups = data
        if len(np.unique(groups)) < 2:
            return
        if not all(((groups == g) & (labels == y)).any()
                   for g in (0, 1) for y in (0, 1)):
            return
        assert 0.0 <= demographic_parity(preds, groups, 0, 1) <= 1.0
        assert 0.0 <= equalized_odds(preds, labels, groups, 0, 1) <= 1.0
        assert 0.0 <= accuracy(preds, labels) <= 1.0


class TestFairnessReport:
    def test_defaults_to_two_largest_groups(self):
        groups = [0] * 5 + [1] * 4 + [2] * 2
        preds = [1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1]
        labels = [1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1]
        assert largest_pair(groups) == (0, 1)
        rep = fairness_report(preds, labels, groups)
        assert rep.pair == (0, 1)
        assert rep.group_sizes == {0: 5, 1: 4, 2: 2}

    def test_dp_is_absolute_signed_gap(self):
        rep = fairness_report(PREDS, LABELS, GROUPS)
        assert rep.dp == abs(rep.signed_gaps["positive_rate"])
        assert rep.eodds == pytest.approx(0.75)

    def test_json_fixed_keys_and_fraction_units(self):
        doc = fairness_report(PREDS, LABELS, GROUPS).to_dict()
        for key in ("accuracy", "demographic_parity", "equalized_odds",
                    "signed_gaps", "group_sizes"):
            assert key in doc
        assert 0.0 <= doc["demographic_parity"] <= 1.0
        assert 0.0 <= doc["equalized_odds"] <= 1.0

    def test_one_confusion_table_matches_the_standalone_metrics(self, monkeypatch):
        from reckoner import metrics

        builds = []
        real_confusion = metrics.confusion
        monkeypatch.setattr(metrics, "confusion",
                            lambda *a: builds.append(1) or real_confusion(*a))
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(4, 300))
            preds, labels = rng.integers(0, 2, n), rng.integers(0, 2, n)
            groups = rng.integers(0, 3, n)
            if not all(((groups == g) & (labels == y)).any()
                       for g in (0, 1, 2) for y in (0, 1)):
                continue
            builds.clear()
            rep = fairness_report(preds, labels, groups)
            assert len(builds) == 1
            g_i, g_j = largest_pair(groups)
            assert rep.pair == (g_i, g_j)
            assert rep.accuracy == accuracy(preds, labels)
            assert rep.dp == demographic_parity(preds, groups, g_i, g_j)
            assert rep.eodds == equalized_odds(preds, labels, groups, g_i, g_j)
            assert rep.group_sizes == {g: int((groups == g).sum()) for g in (0, 1, 2)}

    def test_undefined_eodds_keeps_its_message(self):
        # group 1 has no positive labels: its TPR is undefined
        with pytest.raises(UndefinedRateError,
                           match=r"rate 'tpr' undefined for group pair \(0, 1\)"):
            fairness_report([1, 0, 1, 0], [1, 0, 0, 0], [0, 0, 1, 1])


class TestSignedGaps:
    def test_none_for_undefined_rate_or_absent_group(self):
        table = rates(confusion([1, 0, 1, 0], [1, 0, 0, 0], [0, 0, 1, 1]))
        gaps = signed_gaps(table, RATE_NAMES, 0, 1)
        assert gaps["tpr"] is None and gaps["fnr"] is None
        assert gaps["fpr"] == -0.5 and gaps["positive_rate"] == 0.0
        assert signed_gaps(table, RATE_NAMES, 0, 5) == dict.fromkeys(RATE_NAMES)
