"""Counterfactual top-removal engine and rank-shift diagnostics.

Each unit's top scientists are removed from both the score sums and the
staff denominators, then units are re-ranked over the same roster. National
baselines and averages stay frozen at their observed values so every unit is
judged against the same yardstick in both scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .aggregation import (
    LEVEL_UDA,
    PSTAR_MEAN_OF_UNITS,
    DEFAULT_MIN_STAFF,
    Units,
    level_field,
    level_unit_scores,
    national_averages,
    rank_units,
    sds_unit_scores,
)
from .corpus import Taxonomy, name_codes
from .errors import UndefinedStatisticError, ValidationError
from .indicators import ScoreTable, group_rows
from .stats import SpearmanResult, classify_quantiles, gini, spearman, top_count

SCOPE_UNIT = "unit"
SCOPE_NATIONAL = "national"

DEFAULT_SHARE = 0.20
DEFAULT_TRANSITION_CLASSES = 5


@dataclass(frozen=True)
class TopSelection:
    """Top scientists per group, (university, SDS) units or national SDS rosters,
    as a boolean mask over the rows of the score table they were selected from."""

    scope: str
    selected: np.ndarray


def share_problem(share: float) -> str | None:
    """What keeps `share` from being a top share in [0, 1], or None; NaN is rejected too."""
    if not 0 <= share <= 1:
        return f"selection share must be in [0, 1], got {share}"
    return None


def select_top(
    scores: ScoreTable,
    scope: str = SCOPE_UNIT,
    share: float = DEFAULT_SHARE,
    min_staff: int = DEFAULT_MIN_STAFF,
) -> TopSelection:
    """Select each group's k = top_count(share, n) highest-SS members.

    Groups below the staff minimum are skipped. Ties on SS break by
    researcher id so the selection is deterministic.
    """
    problem = share_problem(share)
    if problem:
        raise ValidationError(problem)
    if scope == SCOPE_UNIT:
        groups = scores.unit_codes()
    elif scope == SCOPE_NATIONAL:
        groups = scores.sds
    else:
        raise ValidationError(f"unknown selection scope {scope!r}")
    # One stable sort of the rows, which are in id order, by group, then SS descending: each
    # group's members sit together, best first, ties in id order.
    order = np.lexsort((-scores.ss, groups))
    selected = np.zeros(len(scores), dtype=bool)
    for members in np.split(order, np.cumsum(np.bincount(groups))[:-1]):
        if len(members) >= min_staff:
            selected[members[: top_count(share, len(members))]] = True
    return TopSelection(scope, selected)


@dataclass(frozen=True)
class UnitShift:
    university_id: str
    observed_rank: int
    hypothetical_rank: int
    delta: int
    gini_observed: float

    @property
    def sign(self) -> str:
        return "+" if self.delta > 0 else "-" if self.delta < 0 else "="


@dataclass
class CounterfactualReport:
    field: str
    units: list[UnitShift]
    spearman_obs_hyp: SpearmanResult | None
    spearman_shift_gini: SpearmanResult | None
    transition: list[list[int]] | None


def _unit_gini(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    return gini(values)


def _unit_values(scores: ScoreTable, level: str, taxonomy: Taxonomy) -> dict[tuple[str, str], np.ndarray]:
    """Each (university, field at `level`) unit's SS, in row order: `gini` sums its input unsorted."""
    fields, field_of_sds = name_codes([level_field(sds, level, taxonomy) for sds in scores.sds_names])
    codes = scores.university * len(fields) + field_of_sds[scores.sds]
    rows = group_rows(codes, len(scores.universities) * len(fields))
    return {
        (university, field_code): scores.ss[rows[u * len(fields) + f]]
        for u, university in enumerate(scores.universities)
        for f, field_code in enumerate(fields)
    }


def _safe_spearman(x: Sequence[float], y: Sequence[float]) -> SpearmanResult | None:
    try:
        return spearman(x, y)
    except UndefinedStatisticError:
        return None


def counterfactual_rankings(
    taxonomy: Taxonomy,
    scores: ScoreTable,
    units: Units,
    selection: TopSelection,
    level: str,
    min_staff: int = DEFAULT_MIN_STAFF,
    k_classes: int = DEFAULT_TRANSITION_CLASSES,
    pstar_mode: str = PSTAR_MEAN_OF_UNITS,
    refit_pstar: bool = False,
) -> dict[str, CounterfactualReport]:
    """Observed vs top-scientists-removed rankings for every field at a level.

    `units` is `sds_unit_scores(scores)`. The observed and the hypothetical
    ranking are built by the same calls, on the same units: the hypothetical
    units keep their observed roster, and a unit that loses all staff scores 0.
    Baselines and national averages are frozen at observed values unless
    refit_pstar is set. Only the UDA composites read national averages, so
    they are computed at the UDA level alone, and at the SDS level
    `pstar_mode` and `refit_pstar` change nothing. The dict is built in
    field-code order, so its `.values()` need no sorting.
    """
    if selection.scope != SCOPE_UNIT:
        raise ValidationError("counterfactual rankings need a unit-scoped selection")
    hyp_units = sds_unit_scores(scores, ~selection.selected)
    p_stars = hyp_pstars = {}
    if level == LEVEL_UDA:
        p_stars = national_averages(units, pstar_mode)
        hyp_pstars = national_averages(hyp_units, pstar_mode) if refit_pstar else p_stars
    observed_rankings = rank_units(level_unit_scores(units, level, p_stars, taxonomy), min_staff)
    hyp_rankings = rank_units(level_unit_scores(hyp_units, level, hyp_pstars, taxonomy), min_staff)
    unit_values = _unit_values(scores, level, taxonomy)

    reports: dict[str, CounterfactualReport] = {}
    for field_code, observed_ranking in observed_rankings.items():
        hyp_rank = {u.university_id: u.rank for u in hyp_rankings[field_code]}
        shifts = [
            UnitShift(
                university_id=u.university_id,
                observed_rank=u.rank,
                hypothetical_rank=hyp_rank[u.university_id],
                delta=u.rank - hyp_rank[u.university_id],
                gini_observed=_unit_gini(unit_values.get((u.university_id, field_code), ())),
            )
            for u in observed_ranking
        ]
        observed = [s.observed_rank for s in shifts]
        hypothetical = [s.hypothetical_rank for s in shifts]

        transition = None
        if len(shifts) >= k_classes:
            # Both rankings order this one roster, so rank r falls in class classes[r - 1] in either.
            classes = classify_quantiles(shifts, k_classes)
            transition = transition_matrix(
                [classes[r - 1] for r in observed], [classes[r - 1] for r in hypothetical], k_classes
            )

        reports[field_code] = CounterfactualReport(
            field=field_code,
            units=shifts,
            spearman_obs_hyp=_safe_spearman(observed, hypothetical),
            spearman_shift_gini=_safe_spearman([s.delta for s in shifts], [s.gini_observed for s in shifts]),
            transition=transition,
        )
    return reports


def transition_matrix(observed: Sequence[int], hypothetical: Sequence[int], k: int) -> list[list[int]]:
    """Counts of units moving from observed class i to hypothetical class j.

    `observed` and `hypothetical` hold each unit's class, unit by unit in the same order.
    """
    matrix = [[0] * k for _ in range(k)]
    for observed_class, hypothetical_class in zip(observed, hypothetical, strict=True):
        matrix[observed_class][hypothetical_class] += 1
    return matrix


@dataclass(frozen=True)
class ScatterData:
    """Rank-shift vs Gini points with an ordinary-least-squares trend line."""

    points: tuple[tuple[float, float], ...]
    slope: float
    intercept: float


def least_squares_line(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """OLS slope and intercept of y on x; a vertical-free degenerate x gives slope 0."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    dx = x - x.mean()
    sxx = float((dx * dx).sum())
    if sxx == 0.0:
        return 0.0, float(y.mean())
    slope = float((dx * (y - y.mean())).sum() / sxx)
    return slope, float(y.mean() - slope * x.mean())


def shift_gini_scatter(report: CounterfactualReport) -> ScatterData:
    """Per-unit (rank shift, observed Gini) points plus the fitted trend line."""
    if len(report.units) < 5:
        raise UndefinedStatisticError(
            f"scatter needs at least 5 units, field {report.field!r} has {len(report.units)}"
        )
    xs = [float(u.delta) for u in report.units]
    ys = [u.gini_observed for u in report.units]
    slope, intercept = least_squares_line(xs, ys)
    return ScatterData(tuple(zip(xs, ys)), slope, intercept)
