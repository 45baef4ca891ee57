"""Oracle and property tests for the evaluation statistics.

The Mann-Whitney exact p-values are checked against a from-first-
principles enumeration of every assignment of pooled values, written
independently of the implementation's dynamic program.
"""

from __future__ import annotations

import itertools
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from onhold.errors import DataFormatError
from onhold.evalstats import (
    ComparisonResult,
    DegenerateMetricWarning,
    FoldScores,
    cliffs_delta,
    cohens_kappa,
    compare_folds,
    comparisons_tsv,
    compute_auc,
    compute_metrics,
    holm_correct,
    kfold_split,
    lifespan_days,
    lifespan_stats,
    mann_whitney,
    resolution_delay_stats,
    results_tsv,
)
from onhold.learn import Label

try:  # scipy is a test-only oracle, not a dependency
    from scipy import stats as scipy_stats
except ImportError:
    scipy_stats = None

needs_scipy = pytest.mark.skipif(scipy_stats is None, reason="scipy is not installed")

ON = Label.ON_HOLD
CROSS = Label.CROSS_REFERENCE

UTC = timezone.utc


def brute_force_mann_whitney_p(xs: list[float], ys: list[float]) -> float:
    """Two-sided exact p by enumerating every split of the pooled values."""

    def double_u(sample_x: list[float], sample_y: list[float]) -> int:
        total = 0
        for x in sample_x:
            for y in sample_y:
                if x > y:
                    total += 2
                elif x == y:
                    total += 1
        return total

    n, m = len(xs), len(ys)
    pooled = xs + ys
    center = n * m
    threshold = abs(double_u(xs, ys) - center)
    favourable = 0
    total = 0
    for positions in itertools.combinations(range(n + m), n):
        chosen = set(positions)
        sample_x = [pooled[i] for i in range(n + m) if i in chosen]
        sample_y = [pooled[i] for i in range(n + m) if i not in chosen]
        total += 1
        if abs(double_u(sample_x, sample_y) - center) >= threshold:
            favourable += 1
    return favourable / total


def brute_force_cliffs(xs: list[float], ys: list[float]) -> float:
    greater = sum(1 for x in xs for y in ys if x > y)
    lesser = sum(1 for x in xs for y in ys if x < y)
    return (greater - lesser) / (len(xs) * len(ys))


class TestKFold:
    def test_sizes_differ_by_at_most_one(self):
        folds = kfold_split(list(range(23)), k=10, seed=0)
        sizes = [len(f) for f in folds]
        assert sizes == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]

    def test_folds_partition_the_rows(self):
        rows = list(range(23))
        folds = kfold_split(rows, k=10, seed=1)
        flat = [r for fold in folds for r in fold]
        assert sorted(flat) == rows

    def test_same_seed_same_folds(self):
        rows = list(range(40))
        assert kfold_split(rows, k=5, seed=3) == kfold_split(rows, k=5, seed=3)

    def test_k_larger_than_n_is_rejected(self):
        with pytest.raises(ValueError):
            kfold_split([1, 2], k=3)

    def test_k_below_one_is_rejected(self):
        with pytest.raises(ValueError):
            kfold_split([1, 2], k=0)


class TestComputeMetrics:
    def test_hand_computed_case(self):
        predicted = [ON, ON, CROSS, ON]
        truth = [ON, CROSS, CROSS, ON]
        precision, recall, f1 = compute_metrics(predicted, truth)
        assert precision == pytest.approx(2 / 3)
        assert recall == 1.0
        assert f1 == pytest.approx(0.8)

    def test_no_positive_predictions_warns_and_reports_zero(self):
        with pytest.warns(DegenerateMetricWarning):
            precision, recall, f1 = compute_metrics([CROSS, CROSS], [ON, CROSS])
        assert precision == 0.0
        assert recall == 0.0
        assert f1 == 0.0

    def test_no_positive_truth_warns_on_recall(self):
        with pytest.warns(DegenerateMetricWarning):
            _, recall, _ = compute_metrics([ON], [CROSS])
        assert recall == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DataFormatError):
            compute_metrics([ON], [ON, CROSS])

    def test_perfect_prediction(self):
        assert compute_metrics([ON, CROSS], [ON, CROSS]) == (1.0, 1.0, 1.0)


class TestComputeAuc:
    def test_hand_computed_case(self):
        # Positives hold ranks 3 and 1 of [0.4, 0.8, 0.9]: U = 4 - 3 = 1,
        # AUC = 1 / (2 * 1) = 0.5.
        assert compute_auc([0.9, 0.8, 0.4], [ON, CROSS, ON]) == pytest.approx(0.5)

    def test_perfect_ranking(self):
        assert compute_auc([0.9, 0.8, 0.1], [ON, ON, CROSS]) == 1.0

    def test_inverted_ranking(self):
        assert compute_auc([0.1, 0.9], [ON, CROSS]) == 0.0

    def test_all_tied_scores(self):
        assert compute_auc([0.5, 0.5, 0.5, 0.5], [ON, CROSS, ON, CROSS]) == 0.5

    def test_single_class_is_rejected(self):
        with pytest.raises(ValueError):
            compute_auc([0.5, 0.6], [ON, ON])

    @given(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=6),
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=6),
    )
    def test_auc_equals_u_over_pair_count(self, pos_scores, neg_scores):
        scores = pos_scores + neg_scores
        truth = [ON] * len(pos_scores) + [CROSS] * len(neg_scores)
        u, _ = mann_whitney(pos_scores, neg_scores)
        expected = u / (len(pos_scores) * len(neg_scores))
        assert compute_auc(scores, truth) == pytest.approx(expected, abs=1e-12)

    @needs_scipy
    @settings(deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=30),
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=30),
    )
    def test_auc_matches_scipy_u(self, pos_scores, neg_scores):
        truth = [ON] * len(pos_scores) + [CROSS] * len(neg_scores)
        u = scipy_stats.mannwhitneyu(pos_scores, neg_scores).statistic
        expected = u / (len(pos_scores) * len(neg_scores))
        assert compute_auc(pos_scores + neg_scores, truth) == pytest.approx(expected, abs=1e-12)


class TestMannWhitney:
    def test_identical_singletons(self):
        u, p = mann_whitney([5.0], [5.0])
        assert u == 0.5
        assert p == 1.0

    def test_fully_separated_samples(self):
        u, p = mann_whitney([1, 2, 3], [4, 5, 6])
        assert u == 0.0
        # Only the two extreme assignments of C(6, 3) = 20 are as extreme.
        assert p == pytest.approx(0.1)

    def test_u_statistics_of_both_orientations_sum_to_nm(self):
        xs, ys = [1, 3, 3, 7], [2, 3, 5]
        ux, px = mann_whitney(xs, ys)
        uy, py = mann_whitney(ys, xs)
        assert ux + uy == len(xs) * len(ys)
        assert px == pytest.approx(py)

    def test_empty_sample_is_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney([], [1.0])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=1, max_size=4),
        st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=1, max_size=4),
    )
    def test_exact_p_matches_full_enumeration(self, xs, ys):
        _, p = mann_whitney(xs, ys)
        assert p == pytest.approx(brute_force_mann_whitney_p(xs, ys), abs=1e-12)

    def test_normal_approximation_detects_a_strong_shift(self):
        xs = [float(v) for v in range(30, 60)]
        ys = [float(v) for v in range(30)]
        _, p = mann_whitney(xs, ys)
        assert p < 0.01

    @needs_scipy
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 6), min_size=11, max_size=40),
        st.lists(st.integers(0, 6), min_size=10, max_size=40),
    )
    def test_normal_approximation_matches_scipy(self, xs, ys):
        assume(len(set(xs + ys)) > 1)
        u, p = mann_whitney(xs, ys)
        oracle = scipy_stats.mannwhitneyu(
            xs, ys, alternative="two-sided", method="asymptotic", use_continuity=True
        )
        assert u == oracle.statistic
        assert p == pytest.approx(oracle.pvalue, rel=1e-9, abs=1e-15)

    def test_normal_approximation_on_identical_samples(self):
        values = [float(v) for v in range(15)]
        _, p = mann_whitney(values, values)
        assert p > 0.9


class TestHolm:
    def test_hand_computed_case(self):
        assert holm_correct([0.01, 0.04, 0.03]) == pytest.approx([0.03, 0.06, 0.06])

    def test_empty_list(self):
        assert holm_correct([]) == []

    def test_single_p_is_unchanged(self):
        assert holm_correct([0.2]) == [0.2]

    def test_out_of_range_is_rejected(self):
        with pytest.raises(ValueError):
            holm_correct([1.5])

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8))
    def test_adjusted_never_below_raw_and_capped_at_one(self, pvalues):
        adjusted = holm_correct(pvalues)
        for raw, adj in zip(pvalues, adjusted):
            assert adj >= raw - 1e-12
            assert adj <= 1.0


class TestCliffsDelta:
    def test_hand_computed_case(self):
        d, magnitude = cliffs_delta([1, 2], [1, 3])
        assert d == pytest.approx(-0.25)
        assert magnitude == "small"

    def test_identical_samples_are_negligible(self):
        d, magnitude = cliffs_delta([1, 1], [1, 1])
        assert d == 0.0
        assert magnitude == "negligible"

    def test_fully_separated_samples_are_large(self):
        d, magnitude = cliffs_delta([4, 5], [1, 2])
        assert d == 1.0
        assert magnitude == "large"

    @pytest.mark.parametrize(
        "ones,expected",
        [(0, "negligible"), (1, "small"), (4, "medium"), (5, "large")],
    )
    def test_magnitude_buckets(self, ones, expected):
        # xs has `ones` values above every y and ties elsewhere, giving
        # d = ones / 10 exactly.
        xs = [1.0] * ones + [0.0] * (10 - ones)
        ys = [0.0] * 10
        _, magnitude = cliffs_delta(xs, ys)
        assert magnitude == expected

    def test_empty_sample_is_rejected(self):
        with pytest.raises(ValueError):
            cliffs_delta([], [1])

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6),
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6),
    )
    def test_matches_brute_force(self, xs, ys):
        d, _ = cliffs_delta(xs, ys)
        assert d == pytest.approx(brute_force_cliffs(xs, ys), abs=1e-12)


class TestCohensKappa:
    def test_identical_labelings(self):
        assert cohens_kappa(["a", "b", "a"], ["a", "b", "a"]) == 1.0

    def test_ten_item_hand_case(self):
        # Contingency: 4 agreements on OnHold, 3 on CrossReference,
        # 3 disagreements. observed = 0.7; marginals 0.6/0.5 positive,
        # so expected = 0.6 * 0.5 + 0.4 * 0.5 = 0.5 and
        # kappa = (0.7 - 0.5) / 0.5 = 0.4.
        rater_a = [1, 1, 1, 1, 1, 1, 0, 0, 0, 0]
        rater_b = [1, 1, 1, 1, 0, 0, 1, 0, 0, 0]
        assert cohens_kappa(rater_a, rater_b) == pytest.approx(0.4)

    def test_opposed_constant_labelings(self):
        assert cohens_kappa([1, 1], [0, 0]) == 0.0

    def test_three_categories(self):
        a = ["x", "y", "z", "x"]
        b = ["x", "y", "z", "y"]
        # observed = 0.75; expected = 0.5*0.25 + 0.25*0.5 + 0.25*0.25.
        expected = 0.5 * 0.25 + 0.25 * 0.5 + 0.25 * 0.25
        assert cohens_kappa(a, b) == pytest.approx((0.75 - expected) / (1 - expected))

    def test_length_mismatch(self):
        with pytest.raises(DataFormatError):
            cohens_kappa([1], [1, 2])

    def test_empty_labelings(self):
        with pytest.raises(ValueError):
            cohens_kappa([], [])


class TestLifespans:
    def test_same_day_is_zero(self):
        a = datetime(2020, 1, 1, 0, 5, tzinfo=UTC)
        b = datetime(2020, 1, 1, 23, 55, tzinfo=UTC)
        assert lifespan_days(a, b) == 0

    def test_calendar_midnight_counts_one(self):
        a = datetime(2020, 1, 1, 23, 59, tzinfo=UTC)
        b = datetime(2020, 1, 2, 0, 1, tzinfo=UTC)
        assert lifespan_days(a, b) == 1

    def test_offsets_normalize_to_utc(self):
        five_west = timezone(timedelta(hours=-5))
        a = datetime(2020, 1, 1, 23, 0, tzinfo=five_west)  # Jan 2, 04:00 UTC
        b = datetime(2020, 1, 2, 10, 0, tzinfo=UTC)
        assert lifespan_days(a, b) == 0

    def test_naive_datetimes_are_read_as_utc(self):
        assert lifespan_days(datetime(2020, 1, 1), datetime(2020, 1, 3)) == 2

    def test_lifespan_stats_split_by_label(self):
        d0 = datetime(2020, 1, 1, tzinfo=UTC)
        records = [
            (ON, d0, d0 + timedelta(days=2)),
            (ON, d0, d0 + timedelta(days=4)),
            (CROSS, d0, d0),
        ]
        stats = lifespan_stats(records)
        assert stats[ON].count == 2
        assert stats[ON].median == 3.0
        assert stats[ON].mean == 3.0
        assert stats[ON].percentiles[0] == (0, 2.0)
        assert stats[ON].percentiles[-1] == (100, 4.0)
        assert stats[CROSS].count == 1
        assert stats[CROSS].median == 0.0


class TestResolutionDelays:
    D0 = datetime(2021, 6, 1, 12, 0, tzinfo=UTC)

    def test_categories_and_fractions(self):
        removals = [
            (self.D0, self.D0),                             # same day: after
            (self.D0 + timedelta(days=400), self.D0),       # after, > 1 year
            (self.D0, self.D0 + timedelta(days=3)),         # before the fix
            (self.D0, None),                                # never fixed
        ]
        summary = resolution_delay_stats(removals)
        assert summary.removed_after == 2
        assert summary.removed_before == 1
        assert summary.open_or_wontfix == 1
        assert summary.total == 4
        assert summary.delays_days == (0, 400)
        assert summary.same_day_fraction == 0.5
        assert summary.over_one_year_fraction == 0.5
        assert summary.median_delay == 200.0

    def test_exactly_one_year_is_not_over_a_year(self):
        removals = [(self.D0 + timedelta(days=365), self.D0)]
        summary = resolution_delay_stats(removals)
        assert summary.over_one_year_fraction == 0.0

    def test_empty_input(self):
        summary = resolution_delay_stats([])
        assert summary.total == 0
        assert summary.median_delay is None
        assert summary.same_day_fraction == 0.0


class TestFoldScores:
    def test_mean_and_k(self):
        scores = FoldScores("v", (1.0, 0.5), (1.0, 1.0), (1.0, 0.6), (0.9, 0.7))
        assert scores.k == 2
        assert scores.mean("precision") == 0.75
        assert scores.series("auc") == (0.9, 0.7)

    def test_ragged_series_rejected(self):
        with pytest.raises(ValueError):
            FoldScores("v", (1.0,), (1.0, 1.0), (1.0,), (1.0,))

    def test_out_of_range_metric_rejected(self):
        with pytest.raises(ValueError):
            FoldScores("v", (1.5,), (1.0,), (1.0,), (1.0,))

    def test_unknown_metric_name(self):
        scores = FoldScores("v", (1.0,), (1.0,), (1.0,), (1.0,))
        with pytest.raises(ValueError):
            scores.series("accuracy")


class TestComparisons:
    A = FoldScores("alpha", (0.9, 0.8, 0.9), (0.7, 0.6, 0.8), (0.8, 0.7, 0.8), (0.9, 0.9, 0.8))
    B = FoldScores("beta", (0.5, 0.4, 0.6), (0.7, 0.6, 0.8), (0.6, 0.5, 0.6), (0.7, 0.6, 0.8))

    def test_one_result_per_metric(self):
        results = compare_folds(self.A, self.B)
        assert [r.metric for r in results] == ["precision", "recall", "f1", "auc"]
        assert all(r.pair == "alpha vs beta" for r in results)

    def test_adjusted_p_dominates_raw(self):
        for result in compare_folds(self.A, self.B):
            assert result.adjusted_p >= result.p_value - 1e-12

    def test_deltas_match_direct_computation(self):
        results = {r.metric: r for r in compare_folds(self.A, self.B)}
        expected, _ = cliffs_delta(self.A.series("precision"), self.B.series("precision"))
        assert results["precision"].cliffs_delta == pytest.approx(expected)

    def test_comparison_result_validation(self):
        with pytest.raises(ValueError):
            ComparisonResult("p", "f1", 0.5, 0.4, 0.0, "negligible")
        with pytest.raises(ValueError):
            ComparisonResult("p", "f1", 0.5, 0.6, 1.5, "large")


class TestTsvRenderers:
    def test_results_tsv_shape(self):
        scores = FoldScores("v", (1.0, 0.5), (1.0, 1.0), (1.0, 0.6), (0.9, 0.7))
        text = results_tsv({"v": scores})
        lines = text.splitlines()
        assert lines[0] == "variant\tfold\tprecision\trecall\tf1\tauc"
        assert len(lines) == 3
        assert lines[1].startswith("v\t0\t")
        assert text.endswith("\n")

    def test_comparisons_tsv_shape(self):
        rows = compare_folds(self.make_a(), self.make_b())
        text = comparisons_tsv(rows)
        lines = text.splitlines()
        assert lines[0] == "pair\tmetric\tp\tadjusted_p\tcliffs_delta\tmagnitude"
        assert len(lines) == 5

    @staticmethod
    def make_a():
        return FoldScores("a", (0.9,), (0.9,), (0.9,), (0.9,))

    @staticmethod
    def make_b():
        return FoldScores("b", (0.5,), (0.5,), (0.5,), (0.5,))
