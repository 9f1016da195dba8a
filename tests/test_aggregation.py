"""Unit scores, national averages, the UDA composite, and rankings."""

import numpy as np
import pytest

from meritrank.aggregation import (
    PSTAR_MEAN_OF_UNITS,
    PSTAR_POOLED,
    level_unit_scores,
    national_averages,
    rank_units,
    sds_unit_scores,
    uda_unit_scores,
)
from meritrank.errors import ValidationError

from conftest import make_units, table_columns, unit_rows
from conftest import scores_with_ss as _scores_with_ss


def scores_with_ss(groups):
    """groups: mapping (university, sds) -> list of ss values."""
    _, scores = _scores_with_ss(groups)
    return scores


class TestSdsUnitScores:
    def test_per_capita_mean(self):
        units = sds_unit_scores(scores_with_ss({("U1", "S1"): [0, 1, 2]}))
        assert unit_rows(units) == [("U1", "S1", 1.0, 3, 3)]

    def test_all_non_productive_unit(self):
        units = sds_unit_scores(scores_with_ss({("U1", "S1"): [0, 0, 0]}))
        assert units.score.tolist() == [0.0]

    def test_two_member_unit(self):
        units = sds_unit_scores(scores_with_ss({("U1", "S1"): [0.4, 1.0]}))
        assert units.score.tolist() == pytest.approx([0.7])
        assert units.staff.tolist() == [2]


class TestNationalAverages:
    def test_mean_of_units(self):
        units = make_units([("U1", "S1", 1.0, 10), ("U2", "S1", 3.0, 2)])
        assert national_averages(units)["S1"] == pytest.approx(2.0)

    def test_single_university(self):
        units = make_units([("U1", "S1", 1.7, 4)])
        assert national_averages(units)["S1"] == pytest.approx(1.7)

    def test_three_universities(self):
        units = make_units(
            [
                ("U1", "S1", 0.0, 3),
                ("U2", "S1", 0.7, 3),
                ("U3", "S1", 1.4, 3),
            ]
        )
        assert national_averages(units)["S1"] == pytest.approx(0.7)

    def test_pooled_mode_weights_by_staff(self):
        units = make_units([("U1", "S1", 1.0, 10), ("U2", "S1", 3.0, 2)])
        pooled = national_averages(units, PSTAR_POOLED)["S1"]
        assert pooled == pytest.approx((1.0 * 10 + 3.0 * 2) / 12)

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            national_averages(make_units([("U1", "S1", 1.0, 1)]), "median")

    def test_unknown_mode_rejected_without_units(self):
        with pytest.raises(ValidationError, match="unknown national-average mode"):
            national_averages(make_units([]), "bogus")


class TestUdaUnitScores:
    def test_identity_when_units_match_national(self, tiny_taxonomy):
        units = make_units(
            [
                ("U1", "S1", 0.8, 3),
                ("U1", "S2", 2.5, 7),
            ]
        )
        p_stars = {"S1": 0.8, "S2": 2.5}
        area = uda_unit_scores(units, p_stars, tiny_taxonomy)
        assert area.score.tolist() == pytest.approx([1.0], abs=1e-12)
        assert area.staff.tolist() == [10]
        assert area.max_sds_staff.tolist() == [7]

    def test_single_sds_ratio(self, tiny_taxonomy):
        units = make_units([("U1", "S1", 2.0, 5)])
        (score,) = uda_unit_scores(units, {"S1": 1.0}, tiny_taxonomy).score.tolist()
        assert score == pytest.approx(2.0)

    def test_weighted_sum(self, tiny_taxonomy):
        # Staff (2, 3) and ratios (1.5, 0.5): 1.5 * 0.4 + 0.5 * 0.6 = 0.9.
        units = make_units(
            [
                ("U1", "S1", 1.5, 2),
                ("U1", "S2", 0.5, 3),
            ]
        )
        p_stars = {"S1": 1.0, "S2": 1.0}
        (score,) = uda_unit_scores(units, p_stars, tiny_taxonomy).score.tolist()
        assert score == pytest.approx(0.9)

    def test_zero_p_star_contributes_nothing(self, tiny_taxonomy):
        units = make_units(
            [
                ("U1", "S1", 0.0, 5),
                ("U1", "S2", 1.0, 5),
            ]
        )
        p_stars = {"S1": 0.0, "S2": 1.0}
        (score,) = uda_unit_scores(units, p_stars, tiny_taxonomy).score.tolist()
        assert score == pytest.approx(0.5)

    def test_missing_p_star_is_error(self, tiny_taxonomy):
        units = make_units([("U1", "S1", 1.0, 5)])
        with pytest.raises(ValidationError, match="S1"):
            uda_unit_scores(units, {}, tiny_taxonomy)

    def test_weights_sum_to_one_random(self, tiny_taxonomy):
        rng = np.random.default_rng(37)
        for _ in range(50):
            staff = rng.integers(1, 30, size=2)
            pc = rng.uniform(0.1, 5.0, size=2)
            units = make_units(
                [
                    ("U1", "S1", float(pc[0]), int(staff[0])),
                    ("U1", "S2", float(pc[1]), int(staff[1])),
                ]
            )
            p_stars = {"S1": float(pc[0]), "S2": float(pc[1])}
            (score,) = uda_unit_scores(units, p_stars, tiny_taxonomy).score.tolist()
            assert score == pytest.approx(1.0, abs=1e-12)


class TestLevelUnitScores:
    def test_sds_level_keeps_the_units(self, tiny_taxonomy):
        units = make_units([("U1", "S1", 0.8, 3), ("U1", "S2", 2.5, 7)])
        assert level_unit_scores(units, "sds", {}, tiny_taxonomy) is units

    def test_uda_level_is_the_composite(self, tiny_taxonomy):
        units = make_units([("U1", "S1", 0.8, 3), ("U1", "S2", 2.5, 7)])
        p_stars = {"S1": 0.4, "S2": 2.5}
        area = level_unit_scores(units, "uda", p_stars, tiny_taxonomy)
        assert table_columns(area) == table_columns(uda_unit_scores(units, p_stars, tiny_taxonomy))

    def test_unknown_level(self, tiny_taxonomy):
        with pytest.raises(ValidationError, match="unknown ranking level 'sector'"):
            level_unit_scores(make_units([("U1", "S1", 1.0, 5)]), "sector", {}, tiny_taxonomy)


class TestRankUnits:
    def test_descending_order(self):
        units = make_units([("A", "S1", 1.0, 8), ("B", "S1", 2.0, 8)])
        ranking = rank_units(units)["S1"]
        assert [(u.rank, u.university_id) for u in ranking] == [(1, "B"), (2, "A")]

    def test_tie_breaks_by_staff_then_id(self):
        units = make_units(
            [
                ("B", "S1", 1.0, 5),
                ("A", "S1", 1.0, 5),
                ("C", "S1", 1.0, 10),
            ]
        )
        ranking = rank_units(units)["S1"]
        assert [u.university_id for u in ranking] == ["C", "A", "B"]

    def test_min_staff_threshold(self):
        units = make_units([("A", "S1", 5.0, 4), ("B", "S1", 1.0, 5)])
        ranking = rank_units(units, min_staff=5)["S1"]
        assert [u.university_id for u in ranking] == ["B"]

    def test_thirty_five_units_all_distinct_ranks(self):
        rng = np.random.default_rng(41)
        units = make_units(
            [(f"U{i:02d}", "S1", float(rng.uniform(0, 3)), int(rng.integers(5, 40))) for i in range(35)]
        )
        ranking = rank_units(units)["S1"]
        assert [u.rank for u in ranking] == list(range(1, 36))

    def test_uda_eligibility_needs_one_qualifying_sds(self, tiny_taxonomy):
        units = make_units(
            [
                ("A", "S1", 1.0, 3),
                ("A", "S2", 1.0, 2),  # area staff 5 but no unit >= 5
                ("B", "S1", 1.0, 5),
            ]
        )
        area = uda_unit_scores(units, {"S1": 1.0, "S2": 1.0}, tiny_taxonomy)
        ranking = rank_units(area, min_staff=5)["X"]
        assert [u.university_id for u in ranking] == ["B"]

    def test_scale_invariance_of_orderings(self, tiny_taxonomy):
        rng = np.random.default_rng(43)
        groups = {}
        for univ in ("U1", "U2", "U3", "U4", "U5", "U6"):
            for sds in ("S1", "S2"):
                groups[(univ, sds)] = rng.uniform(0, 2, size=int(rng.integers(5, 12))).tolist()
        scores = scores_with_ss(groups)
        scaled = scores_with_ss(
            {(univ, sds): [v * 7.3 for v in values] if sds == "S1" else values for (univ, sds), values in groups.items()}
        )

        def orderings(score_map):
            units = sds_unit_scores(score_map)
            p_stars = national_averages(units)
            area = uda_unit_scores(units, p_stars, tiny_taxonomy)
            return {
                field: [u.university_id for u in ranking]
                for field, ranking in rank_units(area).items()
            }

        assert orderings(scores) == orderings(scaled)
