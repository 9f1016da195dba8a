"""Funding weights, exact allocation arithmetic, census, and paradoxes."""

from fractions import Fraction

import numpy as np
import pytest

from meritrank.aggregation import RankedUnit
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

from conftest import make_taxonomy, scores_with_ss


def ranked(staffs):
    return [RankedUnit(i + 1, f"U{i + 1:02d}", float(len(staffs) - i), s) for i, s in enumerate(staffs)]


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
        units = ranked([10] * 4)
        allocation = allocate(units, FundingPolicy(budget=130))
        amounts = [u.amount for u in allocation.units]
        assert amounts == [Fraction(90), Fraction(30), Fraction(10), Fraction(0)]

    def test_one_unit_per_class_budget_13(self):
        units = ranked([1, 1, 1, 1])
        allocation = allocate(units, FundingPolicy(budget=13))
        assert [u.amount for u in allocation.units] == [
            Fraction(9),
            Fraction(3),
            Fraction(1),
            Fraction(0),
        ]

    def test_bottom_funded_geometric_weights(self):
        units = ranked([1, 1, 1, 1])
        allocation = allocate(units, FundingPolicy(bottom_class_funded=True, budget=40))
        assert [u.amount for u in allocation.units] == [
            Fraction(27),
            Fraction(9),
            Fraction(3),
            Fraction(1),
        ]

    def test_exact_conservation_random(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            units = ranked([int(rng.integers(1, 50)) for _ in range(n)])
            budget = Fraction(int(rng.integers(1, 10**9)), int(rng.integers(1, 1000)))
            policy = FundingPolicy(
                n_classes=int(rng.integers(2, min(n, 6) + 1)),
                adjacent_ratio=Fraction(int(rng.integers(2, 6))),
                bottom_class_funded=bool(rng.random() < 0.3),
                budget=budget,
            )
            allocation = allocate(units, policy)
            assert allocation.total == budget  # exact, not approximate

    def test_adjacent_per_capita_ratio_is_exact(self):
        units = ranked([7, 3, 11, 2, 9, 5, 8, 4])
        allocation = allocate(units, FundingPolicy(budget=Fraction(997, 3)))
        per_class = {}
        for unit in allocation.units:
            per_class.setdefault(unit.class_index, unit.per_capita)
        for c in range(2):  # funded classes 0, 1, 2
            assert per_class[c] / per_class[c + 1] == Fraction(3)

    def test_per_capita_monotone_down_classes(self):
        units = ranked([5, 9, 2, 14, 6, 3, 7, 10])
        allocation = allocate(units, FundingPolicy(budget=1000))
        by_class = {}
        for unit in allocation.units:
            by_class.setdefault(unit.class_index, unit.per_capita)
        values = [by_class[c] for c in sorted(by_class)]
        assert all(a > b for a, b in zip(values, values[1:])) or values[-1] == 0

    def test_budget_homogeneity(self):
        units = ranked([4, 8, 15, 16, 23, 42])
        one = allocate(units, FundingPolicy(budget=100))
        two = allocate(units, FundingPolicy(budget=200))
        for a, b in zip(one.units, two.units):
            assert 2 * a.amount == b.amount

    def test_zero_weighted_staff_fails(self):
        units = [
            RankedUnit(1, "A", 3.0, 0),
            RankedUnit(2, "B", 2.0, 0),
            RankedUnit(3, "C", 1.0, 0),
            RankedUnit(4, "D", 0.5, 7),  # staff only in the unfunded class
        ]
        with pytest.raises(AllocationError):
            allocate(units, FundingPolicy())


def census_fixture():
    """Eight universities in one UDA, quartiles of two, tops steered by SS.

    Returns the corpus, the scores and the allocation over U01..U08 ranked in
    that order, which puts U01-U02 in the first class and U07-U08 in the last.
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
        "U07": [40, 40, 1, 1, 1],
        "U08": [95, 0, 0, 0, 0],
    }
    for univ, values in layout.items():
        groups[(univ, "S1")] = [float(v) for v in values]
    corpus, scores = scores_with_ss(groups, taxonomy=taxonomy)
    # Observed per-capita ranking: U01..U07 descending, U08 last (19 per capita
    # for U08 vs 20.4+ for the rest).
    return corpus, scores, allocate(ranked([5] * 8), FundingPolicy(budget=1000))


class TestCensus:
    def test_counts_and_stranded_share(self):
        corpus, scores, allocation = census_fixture()
        selection = select_top(scores, SCOPE_NATIONAL, 0.2)
        census = national_top_census(scores, corpus.taxonomy, "X", allocation, selection)
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
        corpus, scores, allocation = census_fixture()
        selection = select_top(scores, SCOPE_NATIONAL, 0.2)
        census = national_top_census(scores, corpus.taxonomy, "X", allocation, selection)
        assert census.allocation is allocation
        assert sum(census.class_totals) == census.total_tops
        assert sum(u.top_count for u in census.universities) == census.total_tops

    def test_unclassified_universities_tracked_separately(self):
        corpus, scores, _ = census_fixture()
        without_u08 = allocate(ranked([5] * 7), FundingPolicy(budget=1000))
        selection = select_top(scores, SCOPE_NATIONAL, 0.2)
        census = national_top_census(scores, corpus.taxonomy, "X", without_u08, selection)
        assert sum(u.top_count for u in census.universities if u.class_index is None) == 1
        assert census.total_tops == 7
        assert sum(census.class_totals) == 7

    def test_rejects_unit_scope_selection(self):
        corpus, scores, allocation = census_fixture()
        bad = TopSelection("unit", np.zeros(len(scores), dtype=bool))
        with pytest.raises(ValidationError):
            national_top_census(scores, corpus.taxonomy, "X", allocation, selection=bad)


class TestParadoxReport:
    def _census(self):
        corpus, scores, allocation = census_fixture()
        selection = select_top(scores, SCOPE_NATIONAL, 0.2)
        return national_top_census(scores, corpus.taxonomy, "X", allocation, selection)

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
