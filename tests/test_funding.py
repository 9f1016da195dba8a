"""Funding weights, exact allocation arithmetic, census, and paradoxes."""

from fractions import Fraction

import numpy as np
import pytest

from meritrank.aggregation import national_averages, rank_units, sds_unit_scores, uda_unit_scores
from meritrank.errors import AllocationError, ValidationError
from meritrank.funding import (
    KIND_CLASS_INVERSION,
    KIND_STRANDED_INCIDENCE,
    FundingPolicy,
    allocate,
    national_top_census,
    paradox_report,
)
from meritrank.scenario import SCOPE_NATIONAL, TopSelection, select_top

from conftest import allocation_rows, make_taxonomy, ranked_roster, scores_with_ss


def per_capita_by_class(allocation):
    """Each class's per-capita amount, from its first rank with staff."""
    per_class = {}
    for _, class_index, staff, amount in allocation_rows(allocation):
        if staff:
            per_class.setdefault(class_index, amount / staff)
    return per_class


class TestPolicy:
    def test_default_weights(self):
        assert FundingPolicy().class_weights() == (Fraction(9), Fraction(3), Fraction(1), Fraction(0))

    def test_bottom_funded_weights(self):
        policy = FundingPolicy(bottom_class_funded=True)
        assert policy.class_weights() == (Fraction(27), Fraction(9), Fraction(3), Fraction(1))

    def test_validation(self):
        with pytest.raises(ValidationError):
            FundingPolicy(n_classes=1)
        with pytest.raises(ValidationError):
            FundingPolicy(adjacent_ratio=1)
        with pytest.raises(ValidationError):
            FundingPolicy(budget=0)


class TestAllocate:
    def test_ratio_solve_fixed_case(self):
        # 4 classes x 10 staff, budget 130: 10(9k + 3k + k) = 130 -> k = 1.
        allocation = allocate(*ranked_roster([10] * 4), FundingPolicy(budget=130))
        assert list(allocation.amount) == [Fraction(90), Fraction(30), Fraction(10), Fraction(0)]

    def test_one_unit_per_class_budget_13(self):
        allocation = allocate(*ranked_roster([1, 1, 1, 1]), FundingPolicy(budget=13))
        assert list(allocation.amount) == [
            Fraction(9),
            Fraction(3),
            Fraction(1),
            Fraction(0),
        ]

    def test_bottom_funded_geometric_weights(self):
        allocation = allocate(*ranked_roster([1, 1, 1, 1]), FundingPolicy(bottom_class_funded=True, budget=40))
        assert list(allocation.amount) == [
            Fraction(27),
            Fraction(9),
            Fraction(3),
            Fraction(1),
        ]

    def test_exact_conservation_random(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            units, rows = ranked_roster([int(rng.integers(1, 50)) for _ in range(n)])
            budget = Fraction(int(rng.integers(1, 10**9)), int(rng.integers(1, 1000)))
            policy = FundingPolicy(
                n_classes=int(rng.integers(2, min(n, 6) + 1)),
                adjacent_ratio=Fraction(int(rng.integers(2, 6))),
                bottom_class_funded=bool(rng.random() < 0.3),
                budget=budget,
            )
            allocation = allocate(units, rows, policy)
            assert allocation.total == budget  # exact, not approximate

    def test_adjacent_per_capita_ratio_is_exact(self):
        allocation = allocate(*ranked_roster([7, 3, 11, 2, 9, 5, 8, 4]), FundingPolicy(budget=Fraction(997, 3)))
        per_class = per_capita_by_class(allocation)
        for c in range(2):  # funded classes 0, 1, 2
            assert per_class[c] / per_class[c + 1] == Fraction(3)

    def test_per_capita_monotone_down_classes(self):
        allocation = allocate(*ranked_roster([5, 9, 2, 14, 6, 3, 7, 10]), FundingPolicy(budget=1000))
        by_class = per_capita_by_class(allocation)
        values = [by_class[c] for c in sorted(by_class)]
        assert all(a > b for a, b in zip(values, values[1:])) or values[-1] == 0

    def test_budget_homogeneity(self):
        roster = ranked_roster([4, 8, 15, 16, 23, 42])
        one = allocate(*roster, FundingPolicy(budget=100))
        two = allocate(*roster, FundingPolicy(budget=200))
        assert len(one.amount) == len(two.amount) == 6
        for a, b in zip(one.amount, two.amount):
            assert 2 * a == b

    def test_zero_weighted_staff_fails(self):
        units = ranked_roster([0, 0, 0, 7])  # staff only in the unfunded class
        with pytest.raises(AllocationError):
            allocate(*units, FundingPolicy())


def census_fixture():
    """Eight universities in one UDA, quartiles of two, tops steered by SS.

    Returns the area's UDA composites, the scores and the allocation over their
    ranking, U01..U08 in that order, which puts U01-U02 in the first class and U07-U08 in the last.
    """
    taxonomy = make_taxonomy({"S1": "X"})
    groups = {}
    # First class: 5 staff each, high scores; bottom class hosts one stranded top.
    layout = {
        "U01": [100, 100, 1, 1, 1],
        "U02": [90, 90, 1, 1, 1],
        "U03": [80, 80, 1, 1, 1],
        "U04": [70, 70, 1, 1, 1],
        "U05": [60, 60, 1, 1, 1],
        "U06": [50, 50, 1, 1, 1],
        "U07": [49, 49, 1, 1, 1],
        "U08": [95, 0, 0, 0, 0],
    }
    for univ, values in layout.items():
        groups[(univ, "S1")] = [float(v) for v in values]
    _, scores = scores_with_ss(groups, taxonomy=taxonomy)
    units = sds_unit_scores(scores)
    areas = uda_unit_scores(units, national_averages(units), taxonomy)
    # Observed per-capita ranking: U01..U07 descending, U08 last (19 per capita
    # for U08 vs 20.2+ for the rest).
    ranking = rank_units(areas)["X"]
    assert [areas.universities[code] for code in areas.university[ranking].tolist()] == list(layout)
    return areas, scores, allocate(areas, ranking, FundingPolicy(budget=1000))


class TestCensus:
    def test_counts_and_stranded_share(self):
        areas, scores, allocation = census_fixture()
        selection = select_top(scores, SCOPE_NATIONAL, 0.2)
        census = national_top_census(allocation, selection)
        # 40 researchers nationally in S1 -> 8 tops: the pairs at 100/90/80,
        # U08's 95, and one of the tied 70s (id tie-break picks U04-S1-00).
        assert census.total_tops == 8
        assert census.class_totals == [4, 3, 0, 1]
        assert census.stranded_count == 1
        assert census.stranded_share == pytest.approx(0.125)
        by_univ = {u.university_id: u for u in census.universities}
        assert by_univ["U08"].top_count == 1
        assert by_univ["U08"].incidence == pytest.approx(0.2)

    def test_partition_into_classes(self):
        areas, scores, allocation = census_fixture()
        selection = select_top(scores, SCOPE_NATIONAL, 0.2)
        census = national_top_census(allocation, selection)
        assert census.allocation is allocation
        assert sum(census.class_totals) == census.total_tops
        assert sum(u.top_count for u in census.universities) == census.total_tops

    def test_unclassified_universities_tracked_separately(self):
        areas, scores, _ = census_fixture()
        without_u08 = allocate(areas, rank_units(areas)["X"][:7], FundingPolicy(budget=1000))
        selection = select_top(scores, SCOPE_NATIONAL, 0.2)
        census = national_top_census(without_u08, selection)
        assert sum(u.top_count for u in census.universities if u.class_index is None) == 1
        assert census.total_tops == 7
        assert sum(census.class_totals) == 7

    def test_rejects_unit_scope_selection(self):
        areas, scores, allocation = census_fixture()
        bad = TopSelection("unit", np.zeros(len(scores), dtype=bool))
        with pytest.raises(ValidationError):
            national_top_census(allocation, selection=bad)


class TestParadoxReport:
    def _census(self):
        areas, scores, allocation = census_fixture()
        selection = select_top(scores, SCOPE_NATIONAL, 0.2)
        return national_top_census(allocation, selection)

    def test_class_pair_inversion_flagged(self):
        census = self._census()
        # Force an inversion: pretend the first class hosts fewer tops.
        census.class_totals = [156, 204, 100, 50]
        findings = paradox_report(census)
        inversions = [f for f in findings if f.kind == KIND_CLASS_INVERSION]
        assert any(
            f.details["better_class"] == 1 and f.details["worse_class"] == 2 for f in inversions
        )

    def test_monotone_top_counts_no_class_findings(self):
        census = self._census()
        census.class_totals = [10, 6, 3, 1]
        for row in census.universities:  # silence rule (b) for this case
            object.__setattr__(row, "top_count", 0)
        findings = paradox_report(census)
        assert [f for f in findings if f.kind == KIND_CLASS_INVERSION] == []

    def test_stranded_high_incidence_flagged(self):
        census = self._census()
        findings = paradox_report(census)
        stranded = [f for f in findings if f.kind == KIND_STRANDED_INCIDENCE]
        # U08: 1 top of 5 staff (20%) vs first-class average 4/10 (40%) -> not
        # flagged; U07 holds no tops. Sharpen U08 to trigger the rule.
        assert stranded == []
        by_univ = {u.university_id: i for i, u in enumerate(census.universities)}
        row = census.universities[by_univ["U08"]]
        object.__setattr__(row, "top_count", 3)
        object.__setattr__(row, "incidence", 0.6)
        findings = paradox_report(census)
        stranded = [f for f in findings if f.kind == KIND_STRANDED_INCIDENCE]
        assert len(stranded) == 1
        assert stranded[0].details["university_id"] == "U08"
        # The first class's incidence: its 4 tops (class_totals[0]) over U01's and U02's 10 staff.
        assert stranded[0].details["first_class_incidence"] == 0.4
