"""Statistics kernels checked against independent brute-force oracles."""

import itertools
import math

import numpy as np
import pytest
import scipy.stats

from meritrank.errors import UndefinedStatisticError, ValidationError
from meritrank.stats import (
    bottom_top_ratio,
    classify_quantiles,
    gini,
    ordered_sum,
    quantile_class_sizes,
    round_half_up,
    spearman,
    top20_impact_share,
)


def gini_pairwise_oracle(values) -> float:
    """O(n^2) definition: sum of absolute pairwise differences over 2 n^2 mean."""
    x = np.asarray(values, dtype=float)
    n = x.size
    total = x.sum()
    if total == 0:
        return 0.0
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2 * n * total))


def spearman_no_ties_oracle(x, y) -> float:
    """Textbook 1 - 6 sum(d^2) / (n (n^2 - 1)); valid only without ties."""
    rx = scipy.stats.rankdata(x)
    ry = scipy.stats.rankdata(y)
    d = rx - ry
    n = len(x)
    return 1.0 - 6.0 * float((d * d).sum()) / (n * (n * n - 1))


class TestGini:
    def test_constant_vector_is_zero(self):
        assert gini([5, 5, 5, 5]) == 0.0

    def test_single_owner(self):
        assert gini([0, 0, 0, 1]) == pytest.approx(0.75, abs=1e-15)

    def test_small_fixed_case(self):
        assert gini([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-15)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 200))
            x = rng.uniform(0, 1000, size=n)
            x[rng.random(n) < 0.2] = 0.0
            assert abs(gini(x) - gini_pairwise_oracle(x)) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 10, size=50)
        for c in (0.001, 3.0, 1e6):
            assert abs(gini(c * x) - gini(x)) < 1e-12

    def test_all_zero_defined_as_zero(self):
        assert gini([0.0, 0.0, 0.0]) == 0.0

    def test_too_few_values(self):
        with pytest.raises(UndefinedStatisticError):
            gini([1.0])

    def test_negative_values_rejected(self):
        with pytest.raises(ValidationError):
            gini([1.0, -0.5, 2.0])


class TestSpearman:
    def test_worked_five_point_case(self):
        result = spearman([1, 2, 3, 4, 5], [1, 3, 2, 5, 4])
        assert result.rho == 0.8
        assert result.rho == pytest.approx(spearman_no_ties_oracle([1, 2, 3, 4, 5], [1, 3, 2, 5, 4]))

    def test_identity_and_reversal(self):
        x = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
        increasing = [v * 2 + 1 for v in x]
        assert spearman(x, increasing).rho == 1.0
        assert spearman(x, [-v for v in x]).rho == -1.0

    def test_tie_handling_matches_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(4, 40))
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            expected = scipy.stats.spearmanr(x, y).statistic
            assert spearman(x, y).rho == pytest.approx(expected, abs=1e-12)

    def test_exact_permutation_matches_enumeration_with_ties(self):
        x = [1.0, 2.0, 2.0, 4.0, 5.0, 6.0]
        y = [2.0, 1.0, 4.0, 4.0, 3.0, 6.0]
        result = spearman(x, y)
        hits = 0
        total = 0
        for perm in itertools.permutations(y):
            rho = scipy.stats.spearmanr(x, perm).statistic
            hits += abs(rho) >= abs(result.rho) - 1e-12
            total += 1
        assert result.p_value == pytest.approx(hits / total, abs=1e-12)

    def test_exact_permutation_matches_dsquared_enumeration(self):
        # No ties, so every permutation's rho has the closed d^2 form.
        x = list(range(1, 8))
        y = [3, 1, 7, 2, 6, 4, 5]
        result = spearman(x, y)
        n = len(x)
        rx = np.arange(1, n + 1, dtype=float)
        hits = 0
        total = 0
        for perm in itertools.permutations(range(1, n + 1)):
            d = rx - np.asarray(perm, dtype=float)
            rho = 1.0 - 6.0 * float((d * d).sum()) / (n * (n * n - 1))
            hits += abs(rho) >= abs(result.rho) - 1e-12
            total += 1
        assert total == math.factorial(n)
        assert result.p_value == pytest.approx(hits / total, abs=1e-12)

    @pytest.mark.parametrize("n, case", [(n, case) for n in range(3, 9) for case in range(4)] + [(9, 0), (9, 1)])
    def test_exact_p_matches_an_itertools_enumeration(self, n, case):
        # Integer draws from a small range make ties common.
        rng = np.random.default_rng(100 * n + case)
        x = rng.integers(0, n, size=n).astype(float)
        y = rng.integers(0, n, size=n).astype(float)
        x[0], y[0] = -1.0, n  # never zero variance
        rx, ry = scipy.stats.rankdata(x), scipy.stats.rankdata(y)
        dx, dy = rx - rx.mean(), ry - ry.mean()
        rhos = np.array(list(itertools.permutations(dy))) @ dx / math.sqrt((dx @ dx) * (dy @ dy))
        result = spearman(x, y)
        hits = np.count_nonzero(np.abs(rhos) >= abs(result.rho) - 1e-12)
        assert result.p_value == hits / math.factorial(n)

    def test_t_approximation_matches_scipy(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=30)
        y = 0.6 * x + rng.normal(size=30)
        ours = spearman(x, y)
        theirs = scipy.stats.spearmanr(x, y)
        assert ours.rho == pytest.approx(theirs.statistic, abs=1e-12)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-9)

    def test_symmetry_and_self_correlation(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        assert spearman(x, y).rho == pytest.approx(spearman(y, x).rho, abs=1e-15)
        assert spearman(x, x).rho == 1.0

    def test_errors(self):
        with pytest.raises(ValidationError):
            spearman([1, 2, 3], [1, 2])
        with pytest.raises(UndefinedStatisticError):
            spearman([1, 2], [2, 1])
        with pytest.raises(UndefinedStatisticError):
            spearman([1, 1, 1], [1, 2, 3])


class TestBottomTopRatio:
    def test_all_equal_degenerate_case(self):
        result = bottom_top_ratio([1.0] * 10)
        assert result.value == pytest.approx(2.0)
        assert (result.bottom_n, result.top_n) == (4, 2)

    def test_zero_bottom_group(self):
        assert bottom_top_ratio([0.0] * 8 + [10.0, 10.0]).value == 0.0

    def test_five_values(self):
        assert bottom_top_ratio([1, 1, 1, 1, 16]).value == pytest.approx(2 / 16)

    def test_group_sizes_round_down(self):
        # n = 8: 40% and 20% of 8 are 3.2 and 1.6 -> groups of 3 and 1.
        result = bottom_top_ratio([1, 2, 3, 4, 5, 6, 7, 8])
        assert (result.bottom_n, result.top_n) == (3, 1)
        assert result.value == pytest.approx((1 + 2 + 3) / 8)

    def test_errors(self):
        with pytest.raises(UndefinedStatisticError):
            bottom_top_ratio([1, 2, 3, 4])
        with pytest.raises(UndefinedStatisticError):
            bottom_top_ratio([0, 0, 0, 0, 0])



class TestTop20ImpactShare:
    def test_top_fifth_of_the_total(self):
        # n = 8: 0.2 * 8 = 1.6 rounds to 2, so the top two values count.
        assert top20_impact_share([1, 2, 3, 4, 5, 6, 7, 8]) == pytest.approx((7 + 8) / 36)

    def test_at_least_one_value_counts(self):
        assert top20_impact_share([2.0, 1.0]) == pytest.approx(2 / 3)

    def test_zero_total_and_empty(self):
        assert top20_impact_share([0.0, 0.0, 0.0]) == 0.0
        assert top20_impact_share([]) == 0.0

class TestQuantiles:
    @pytest.mark.parametrize(
        "n,k,expected",
        [
            (48, 4, [12, 12, 12, 12]),
            (42, 5, [9, 8, 8, 8, 9]),
            (7, 4, [2, 2, 1, 2]),
            (35, 4, [9, 9, 8, 9]),
            (5, 5, [1, 1, 1, 1, 1]),
        ],
    )
    def test_class_sizes(self, n, k, expected):
        assert quantile_class_sizes(n, k) == expected

    def test_assignment_preserves_order(self):
        classes = classify_quantiles(11, 4)
        assert classes == sorted(classes)
        assert len(classes) == 11

    def test_sizes_differ_by_at_most_one(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            k = int(rng.integers(1, 9))
            n = int(rng.integers(k, 60))
            sizes = quantile_class_sizes(n, k)
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1

    def test_too_few_units(self):
        with pytest.raises(UndefinedStatisticError):
            classify_quantiles(2, 3)


def test_ordered_sum_adds_left_to_right_without_compensation():
    # Compensated summation, as in the built-in `sum` of Python 3.12 on, gives 2.0.
    assert ordered_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert ordered_sum([1.3] + [0.1] * 6 + [0.7]) == 2.6000000000000005
    assert ordered_sum([]) == 0


def test_round_half_up():
    assert round_half_up(1.4) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.5) == 3
    assert round_half_up(0.0) == 0
