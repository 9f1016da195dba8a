"""Unit scores, national averages, the UDA composite, and rankings."""

import numpy as np
import pytest

from meritrank.aggregation import (
    PSTAR_MEAN_OF_UNITS,
    PSTAR_POOLED,
    UnitScore,
    level_unit_scores,
    national_averages,
    rank_units,
    sds_unit_scores,
    uda_unit_scores,
)
from meritrank.errors import ValidationError
from meritrank.indicators import researcher_ss
from meritrank.normalization import CreditScheme

from conftest import make_taxonomy, scores_with_ss as _scores_with_ss, solo_corpus


def scores_with_ss(groups):
    """groups: mapping (university, sds) -> list of ss values."""
    _, scores = _scores_with_ss(groups)
    return scores


def sds_unit(university, sds, per_capita, staff):
    return UnitScore(university, sds, per_capita, staff, staff)


class TestSdsUnitScores:
    def test_per_capita_mean(self):
        units = sds_unit_scores(scores_with_ss({("U1", "S1"): [0, 1, 2]}))
        assert units == [sds_unit("U1", "S1", 1.0, 3)]

    def test_all_non_productive_unit(self):
        units = sds_unit_scores(scores_with_ss({("U1", "S1"): [0, 0, 0]}))
        assert units[0].score == 0.0

    def test_two_member_unit(self):
        units = sds_unit_scores(scores_with_ss({("U1", "S1"): [0.4, 1.0]}))
        assert units[0].score == pytest.approx(0.7)
        assert units[0].staff == 2


class TestNationalAverages:
    def test_mean_of_units(self):
        units = [sds_unit("U1", "S1", 1.0, 10), sds_unit("U2", "S1", 3.0, 2)]
        assert national_averages(units)["S1"] == pytest.approx(2.0)

    def test_single_university(self):
        units = [sds_unit("U1", "S1", 1.7, 4)]
        assert national_averages(units)["S1"] == pytest.approx(1.7)

    def test_three_universities(self):
        units = [
            sds_unit("U1", "S1", 0.0, 3),
            sds_unit("U2", "S1", 0.7, 3),
            sds_unit("U3", "S1", 1.4, 3),
        ]
        assert national_averages(units)["S1"] == pytest.approx(0.7)

    def test_pooled_mode_weights_by_staff(self):
        units = [sds_unit("U1", "S1", 1.0, 10), sds_unit("U2", "S1", 3.0, 2)]
        pooled = national_averages(units, PSTAR_POOLED)["S1"]
        assert pooled == pytest.approx((1.0 * 10 + 3.0 * 2) / 12)

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            national_averages([sds_unit("U1", "S1", 1.0, 1)], "median")


class TestUdaUnitScores:
    def test_identity_when_units_match_national(self, tiny_taxonomy):
        units = [
            sds_unit("U1", "S1", 0.8, 3),
            sds_unit("U1", "S2", 2.5, 7),
        ]
        p_stars = {"S1": 0.8, "S2": 2.5}
        (score,) = uda_unit_scores(units, p_stars, tiny_taxonomy)
        assert score.score == pytest.approx(1.0, abs=1e-12)
        assert score.staff == 10
        assert score.max_sds_staff == 7

    def test_single_sds_ratio(self, tiny_taxonomy):
        units = [sds_unit("U1", "S1", 2.0, 5)]
        (score,) = uda_unit_scores(units, {"S1": 1.0}, tiny_taxonomy)
        assert score.score == pytest.approx(2.0)

    def test_weighted_sum(self, tiny_taxonomy):
        # Staff (2, 3) and ratios (1.5, 0.5): 1.5 * 0.4 + 0.5 * 0.6 = 0.9.
        units = [
            sds_unit("U1", "S1", 1.5, 2),
            sds_unit("U1", "S2", 0.5, 3),
        ]
        p_stars = {"S1": 1.0, "S2": 1.0}
        (score,) = uda_unit_scores(units, p_stars, tiny_taxonomy)
        assert score.score == pytest.approx(0.9)

    def test_zero_p_star_contributes_nothing(self, tiny_taxonomy):
        units = [
            sds_unit("U1", "S1", 0.0, 5),
            sds_unit("U1", "S2", 1.0, 5),
        ]
        p_stars = {"S1": 0.0, "S2": 1.0}
        (score,) = uda_unit_scores(units, p_stars, tiny_taxonomy)
        assert score.score == pytest.approx(0.5)

    def test_missing_p_star_is_error(self, tiny_taxonomy):
        units = [sds_unit("U1", "S1", 1.0, 5)]
        with pytest.raises(ValidationError, match="S1"):
            uda_unit_scores(units, {}, tiny_taxonomy)

    def test_weights_sum_to_one_random(self, tiny_taxonomy):
        rng = np.random.default_rng(37)
        for _ in range(50):
            staff = rng.integers(1, 30, size=2)
            pc = rng.uniform(0.1, 5.0, size=2)
            units = [
                sds_unit("U1", "S1", float(pc[0]), int(staff[0])),
                sds_unit("U1", "S2", float(pc[1]), int(staff[1])),
            ]
            p_stars = {"S1": float(pc[0]), "S2": float(pc[1])}
            (score,) = uda_unit_scores(units, p_stars, tiny_taxonomy)
            assert score.score == pytest.approx(1.0, abs=1e-12)


class TestLevelUnitScores:
    def test_sds_level_keeps_the_units(self, tiny_taxonomy):
        units = [sds_unit("U1", "S1", 0.8, 3), sds_unit("U1", "S2", 2.5, 7)]
        assert level_unit_scores(units, "sds", {}, tiny_taxonomy) == units

    def test_uda_level_is_the_composite(self, tiny_taxonomy):
        units = [sds_unit("U1", "S1", 0.8, 3), sds_unit("U1", "S2", 2.5, 7)]
        p_stars = {"S1": 0.4, "S2": 2.5}
        area = level_unit_scores(units, "uda", p_stars, tiny_taxonomy)
        assert area == uda_unit_scores(units, p_stars, tiny_taxonomy)

    def test_unknown_level(self, tiny_taxonomy):
        with pytest.raises(ValidationError, match="unknown ranking level 'sector'"):
            level_unit_scores([sds_unit("U1", "S1", 1.0, 5)], "sector", {}, tiny_taxonomy)


class TestRankUnits:
    def test_descending_order(self):
        units = [sds_unit("A", "S1", 1.0, 8), sds_unit("B", "S1", 2.0, 8)]
        ranking = rank_units(units)["S1"]
        assert [(u.rank, u.university_id) for u in ranking] == [(1, "B"), (2, "A")]

    def test_tie_breaks_by_staff_then_id(self):
        units = [
            sds_unit("B", "S1", 1.0, 5),
            sds_unit("A", "S1", 1.0, 10),
            sds_unit("C", "S1", 1.0, 5),
        ]
        ranking = rank_units(units)["S1"]
        assert [u.university_id for u in ranking] == ["A", "B", "C"]

    def test_min_staff_threshold(self):
        units = [sds_unit("A", "S1", 5.0, 4), sds_unit("B", "S1", 1.0, 5)]
        ranking = rank_units(units, min_staff=5)["S1"]
        assert [u.university_id for u in ranking] == ["B"]

    def test_thirty_five_units_all_distinct_ranks(self):
        rng = np.random.default_rng(41)
        units = [
            sds_unit(f"U{i:02d}", "S1", float(rng.uniform(0, 3)), int(rng.integers(5, 40)))
            for i in range(35)
        ]
        ranking = rank_units(units)["S1"]
        assert [u.rank for u in ranking] == list(range(1, 36))

    def test_uda_eligibility_needs_one_qualifying_sds(self, tiny_taxonomy):
        units = [
            sds_unit("A", "S1", 1.0, 3),
            sds_unit("A", "S2", 1.0, 2),  # area staff 5 but no unit >= 5
            sds_unit("B", "S1", 1.0, 5),
        ]
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
        scaled = scores_with_ss(groups)
        for s in scaled.values():
            if s.sds == "S1":
                s.ss *= 7.3

        def orderings(score_map):
            units = sds_unit_scores(score_map)
            p_stars = national_averages(units)
            area = uda_unit_scores(units, p_stars, tiny_taxonomy)
            return {
                field: [u.university_id for u in ranking]
                for field, ranking in rank_units(area).items()
            }

        assert orderings(scores) == orderings(scaled)
