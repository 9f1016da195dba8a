"""Top selection, counterfactual re-ranking, transitions, and the scatter."""

import numpy as np
import pytest

from meritrank import scenario
from meritrank.aggregation import LEVEL_SDS, LEVEL_UDA, national_averages, sds_unit_scores
from meritrank.errors import UndefinedStatisticError, ValidationError
from meritrank.scenario import (
    SCOPE_NATIONAL,
    SCOPE_UNIT,
    CounterfactualReport,
    counterfactual_rankings,
    least_squares_line,
    select_top,
    shift_gini_scatter,
)
from meritrank.stats import spearman

from conftest import make_taxonomy, scores_with_ss, selected_ids
from oracles import transition_matrix


def ols_normal_equations_oracle(xs, ys):
    """Closed-form two-pass normal equations: independent of the implementation."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    n = x.size
    sx, sy = x.sum(), y.sum()
    sxx = (x * x).sum()
    sxy = (x * y).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return float(slope), float(intercept)


class TestSelectTop:
    def _scores(self, n, sds="S1", univ="U1"):
        _, scores = scores_with_ss({(univ, sds): [float(n - i) for i in range(n)]})
        return scores

    def test_quota_examples(self):
        for n, expected in ((10, 2), (8, 2), (7, 1), (5, 1)):
            selection = select_top(self._scores(n), SCOPE_UNIT, share=0.2)
            assert int(selection.selected.sum()) == expected

    def test_share_zero_selects_nobody(self):
        selection = select_top(self._scores(10), SCOPE_UNIT, share=0.0)
        assert not selection.selected.any()

    def test_selects_highest_with_deterministic_ties(self):
        _, scores = scores_with_ss({("U1", "S1"): [5.0, 5.0, 5.0, 1.0, 1.0]})
        selection = select_top(scores, SCOPE_UNIT, share=0.2)
        assert selected_ids(scores, selection) == ["U1-S1-00"]

    def test_groups_below_min_staff_skipped(self):
        _, scores = scores_with_ss({("U1", "S1"): [3.0, 2.0, 1.0]})
        selection = select_top(scores, SCOPE_UNIT, share=0.2, min_staff=5)
        assert not selection.selected.any()

    def test_national_scope_groups_by_sds(self):
        _, scores = scores_with_ss(
            {("U1", "S1"): [9.0, 1.0, 1.0], ("U2", "S1"): [5.0, 1.0, 1.0]}
        )
        selection = select_top(scores, SCOPE_NATIONAL, share=0.2, min_staff=5)
        assert selected_ids(scores, selection) == ["U1-S1-00"]

    def test_invalid_share(self):
        with pytest.raises(ValidationError):
            select_top(self._scores(5), SCOPE_UNIT, share=1.5)

    def test_unknown_scope_rejected_on_empty_scores(self):
        _, scores = scores_with_ss({})
        with pytest.raises(ValidationError, match="unknown selection scope"):
            select_top(scores, "bogus")


def counterfactual(corpus, scores, selection, level, **options):
    units = sds_unit_scores(scores)
    return counterfactual_rankings(corpus.taxonomy, scores, units, selection, level, **options)


def hypothetical_order(report):
    """The report's universities in hypothetical rank order."""
    return [university for _, university in sorted(zip(report.hypothetical_rank.tolist(), report.universities))]


class TestCounterfactual:
    def test_share_zero_is_identity(self):
        corpus, scores = scores_with_ss(
            {
                ("U1", "S1"): [9.0, 3.0, 2.0, 1.0, 1.0],
                ("U2", "S1"): [4.0, 4.0, 4.0, 4.0, 4.0],
                ("U3", "S1"): [6.0, 2.0, 2.0, 2.0, 2.0],
            }
        )
        selection = select_top(scores, SCOPE_UNIT, share=0.0)
        report = counterfactual(corpus, scores, selection, LEVEL_SDS)["S1"]
        assert report.delta.tolist() == [0, 0, 0]
        assert report.observed_rank.tolist() == report.hypothetical_rank.tolist()

    def test_concentrated_unit_demoted(self):
        corpus, scores = scores_with_ss(
            {
                ("UA", "S1"): [100.0, 0.0, 0.0, 0.0, 0.0],
                ("UB", "S1"): [3.0, 3.0, 3.0, 3.0, 3.0],
            }
        )
        selection = select_top(scores, SCOPE_UNIT, share=0.2)
        report = counterfactual(corpus, scores, selection, LEVEL_SDS)["S1"]
        assert report.universities == ("UA", "UB")
        assert report.observed_rank.tolist() == [1, 2]
        assert report.hypothetical_rank.tolist() == [2, 1]
        assert report.delta.tolist() == [-1, 1]

    def test_identical_units_keep_ranks(self):
        groups = {(f"U{i}", "S1"): [8.0, 2.0, 2.0, 2.0, 2.0] for i in range(6)}
        corpus, scores = scores_with_ss(groups)
        selection = select_top(scores, SCOPE_UNIT, share=0.2)
        report = counterfactual(corpus, scores, selection, LEVEL_SDS)["S1"]
        assert report.delta.tolist() == [0] * 6

    def test_deltas_sum_to_zero(self):
        rng = np.random.default_rng(47)
        groups = {
            (f"U{i}", "S1"): rng.lognormal(0, 1.2, size=int(rng.integers(5, 12))).tolist()
            for i in range(9)
        }
        corpus, scores = scores_with_ss(groups)
        selection = select_top(scores, SCOPE_UNIT, share=0.2)
        report = counterfactual(corpus, scores, selection, LEVEL_SDS)["S1"]
        assert report.delta.sum() == 0
        observed = sorted(report.observed_rank.tolist())
        hypothetical = sorted(report.hypothetical_rank.tolist())
        assert observed == hypothetical == list(range(1, len(report.universities) + 1))

    def test_share_one_empties_units(self):
        corpus, scores = scores_with_ss(
            {
                ("U1", "S1"): [5.0, 4.0, 3.0, 2.0, 1.0],
                ("U2", "S1"): [9.0, 9.0, 9.0, 9.0, 9.0],
            }
        )
        selection = select_top(scores, SCOPE_UNIT, share=1.0)
        report = counterfactual(corpus, scores, selection, LEVEL_SDS)["S1"]
        assert list(zip(report.universities, report.observed_rank.tolist())) == [("U2", 1), ("U1", 2)]
        # Scored zero; order falls back to the deterministic tie-break.
        assert hypothetical_order(report) == ["U1", "U2"]

    def test_gini_reported_for_observed_distribution(self):
        corpus, scores = scores_with_ss(
            {
                ("U1", "S1"): [1.0, 1.0, 1.0, 1.0, 1.0],
                ("U2", "S1"): [10.0, 0.0, 0.0, 0.0, 0.0],
            }
        )
        selection = select_top(scores, SCOPE_UNIT, share=0.2)
        report = counterfactual(corpus, scores, selection, LEVEL_SDS)["S1"]
        by_univ = dict(zip(report.universities, report.gini.tolist()))
        assert by_univ["U1"] == 0.0
        assert by_univ["U2"] == pytest.approx(0.8)

    def test_uda_level_freezes_national_averages(self):
        # Constructed so the frozen and refit hypothetical orders flip.
        taxonomy = make_taxonomy({"A": "X", "B": "X"})
        groups = {
            ("U1", "A"): [2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            ("U2", "A"): [1.0, 1.0],
            ("U1", "B"): [1.0, 1.0],
            ("U2", "B"): [25.0, 25.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0],
        }
        corpus, scores = scores_with_ss(groups, taxonomy=taxonomy)
        selection = select_top(scores, SCOPE_UNIT, share=0.2)
        frozen = counterfactual(corpus, scores, selection, LEVEL_UDA)["X"]
        refit = counterfactual(corpus, scores, selection, LEVEL_UDA, refit_pstar=True)["X"]
        assert hypothetical_order(frozen) == ["U1", "U2"]
        assert hypothetical_order(refit) == ["U2", "U1"]

    @pytest.mark.parametrize(
        "level, refit_pstar, calls",
        [(LEVEL_SDS, False, 0), (LEVEL_SDS, True, 0), (LEVEL_UDA, False, 1), (LEVEL_UDA, True, 2)],
    )
    def test_national_averages_taken_only_for_uda_composites(self, monkeypatch, level, refit_pstar, calls):
        corpus, scores = scores_with_ss({("U1", "S1"): [1.0, 2.0, 3.0], ("U2", "S1"): [2.0, 2.0, 2.0]})
        taken = []

        def counted(units, mode):
            taken.append(mode)
            return national_averages(units, mode)

        monkeypatch.setattr(scenario, "national_averages", counted)
        selection = select_top(scores, SCOPE_UNIT, share=0.34, min_staff=1)
        counterfactual(corpus, scores, selection, level, min_staff=1, refit_pstar=refit_pstar)
        assert len(taken) == calls

    def test_requires_unit_scope(self):
        corpus, scores = scores_with_ss({("U1", "S1"): [1.0] * 5})
        national = select_top(scores, SCOPE_NATIONAL, share=0.2)
        with pytest.raises(ValidationError):
            counterfactual(corpus, scores, national, LEVEL_SDS)

    def test_spearman_reported_on_larger_fields(self):
        rng = np.random.default_rng(53)
        groups = {
            (f"U{i:02d}", "S1"): rng.lognormal(0, 1.0, size=6).tolist() for i in range(12)
        }
        corpus, scores = scores_with_ss(groups)
        selection = select_top(scores, SCOPE_UNIT, share=0.2)
        report = counterfactual(corpus, scores, selection, LEVEL_SDS, k_classes=4)["S1"]
        assert report.spearman_obs_hyp is not None
        assert report.transition is not None
        sizes = [sum(row) for row in report.transition]
        assert sum(sizes) == 12


class TestTransitionMatrix:
    """The pair-by-pair count that the counterfactual's one `bincount` per field is compared with."""

    def test_identity_is_diagonal(self):
        classes = [0, 1, 2]
        matrix = transition_matrix(classes, classes, 3)
        assert matrix == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_adjacent_swap(self):
        matrix = transition_matrix([0, 1], [1, 0], 2)
        assert matrix == [[0, 1], [1, 0]]

    def test_mismatched_units_rejected(self):
        with pytest.raises(ValueError):
            transition_matrix([0], [0, 0], 1)

    def test_marginals_match_class_sizes(self):
        rng = np.random.default_rng(59)
        k = 5
        observed = [int(c) for c in rng.integers(0, k, size=42)]
        hypothetical = [int(c) for c in rng.integers(0, k, size=42)]
        matrix = transition_matrix(observed, hypothetical, k)
        for c in range(k):
            assert sum(matrix[c]) == observed.count(c)
            assert sum(matrix[i][c] for i in range(k)) == hypothetical.count(c)


def _report_from_points(points):
    """A report whose unit i has rank shift d and Gini g for the i-th point (d, g)."""
    observed = np.arange(1, len(points) + 1)
    deltas = np.array([int(d) for d, _ in points], dtype=np.int64)
    ginis = np.array([g for _, g in points], dtype=float)
    universities = tuple(f"U{i}" for i in range(len(points)))
    return CounterfactualReport("S1", universities, observed, observed - deltas, ginis, None, None, None)


class TestScatter:
    def test_all_zero_deltas_give_flat_line(self):
        report = _report_from_points([(0, 0.2), (0, 0.4), (0, 0.6), (0, 0.5), (0, 0.3)])
        scatter = shift_gini_scatter(report)
        assert scatter.slope == 0.0
        assert scatter.intercept == pytest.approx(0.4)

    def test_ols_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            n = int(rng.integers(5, 40))
            xs = rng.integers(-10, 11, size=n).astype(float)
            if np.all(xs == xs[0]):
                continue
            ys = rng.uniform(0, 1, size=n)
            slope, intercept = least_squares_line(xs, ys)
            o_slope, o_intercept = ols_normal_equations_oracle(xs, ys)
            assert slope == pytest.approx(o_slope, abs=1e-9)
            assert intercept == pytest.approx(o_intercept, abs=1e-9)

    def test_anti_monotone_points_have_negative_rank_correlation(self):
        points = [(d, 0.9 - 0.1 * i) for i, d in enumerate([-4, -2, 0, 2, 4])]
        report = _report_from_points(points)
        scatter = shift_gini_scatter(report)
        deltas = [p[0] for p in scatter.points]
        ginis = [p[1] for p in scatter.points]
        assert spearman(deltas, ginis).rho == -1.0

    def test_needs_five_units(self):
        report = _report_from_points([(0, 0.5), (1, 0.4)])
        with pytest.raises(UndefinedStatisticError):
            shift_gini_scatter(report)
