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
    ranking_order,
    sds_unit_scores,
)
from .corpus import Taxonomy, name_codes
from .errors import UndefinedStatisticError, ValidationError
from .indicators import ScoreTable
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
    if not 0 <= share <= 1:  # NaN fails the comparison too
        raise ValidationError(f"selection share must be in [0, 1], got {share}")
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


@dataclass
class CounterfactualReport:
    """One field's rank shifts as columns, one entry per ranked unit in observed order:
    the unit's university, its rank in either scenario and the Gini of its researchers' SS."""

    field: str
    universities: tuple[str, ...]
    observed_rank: np.ndarray
    hypothetical_rank: np.ndarray
    gini: np.ndarray
    spearman_obs_hyp: SpearmanResult | None
    spearman_shift_gini: SpearmanResult | None
    transition: list[list[int]] | None

    @property
    def delta(self) -> np.ndarray:
        """Observed minus hypothetical rank: positive for a unit that the removal promotes."""
        return self.observed_rank - self.hypothetical_rank


def _unit_gini(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    return gini(values)


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

    `units` is `sds_unit_scores(scores)`. Both scenarios are ranked by
    `ranking_order` over units built by the same calls: the hypothetical
    units are the observed units' rows, on the same roster, and a unit that
    loses all staff scores 0. So each field spans the same positions of both
    orders, and a unit's rank is its place in its field's span.
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
    observed = level_unit_scores(units, level, p_stars, taxonomy)
    order = ranking_order(observed, min_staff)
    if len(order) == 0:
        return {}
    hyp_order = ranking_order(level_unit_scores(hyp_units, level, hyp_pstars, taxonomy), min_staff)
    field = observed.field[order]
    starts = np.flatnonzero(np.r_[True, field[1:] != field[:-1]])
    stops = np.r_[starts[1:], len(order)]
    observed_rank = np.arange(len(order)) - np.repeat(starts, stops - starts) + 1
    rank_of_row = np.empty(len(observed.field), dtype=np.int64)
    rank_of_row[hyp_order] = observed_rank
    hypothetical_rank = rank_of_row[order]

    # Each ranked unit's researchers, in row order: `gini` sums its input unsorted.
    fields, field_of_sds = name_codes([level_field(sds, level, taxonomy) for sds in scores.sds_names])
    codes = scores.university * len(fields) + field_of_sds[scores.sds]
    by_code = np.argsort(codes, kind="stable")
    bounds = np.r_[0, np.cumsum(np.bincount(codes, minlength=len(scores.universities) * len(fields)))]
    unit_codes = (observed.university[order] * len(fields) + field).tolist()
    ginis = np.array([_unit_gini(scores.ss[by_code[bounds[c] : bounds[c + 1]]]) for c in unit_codes])

    reports: dict[str, CounterfactualReport] = {}
    for start, stop in zip(starts.tolist(), stops.tolist()):
        span = slice(start, stop)
        transition = None
        if stop - start >= k_classes:
            # Both rankings order this one roster, so rank r falls in class classes[r - 1] in either.
            classes = np.array(classify_quantiles(observed_rank[span], k_classes))
            cells = classes[observed_rank[span] - 1] * k_classes + classes[hypothetical_rank[span] - 1]
            transition = np.bincount(cells, minlength=k_classes * k_classes).reshape(k_classes, -1).tolist()
        field_code = observed.fields[field[start]]
        reports[field_code] = CounterfactualReport(
            field=field_code,
            universities=tuple(observed.universities[u] for u in observed.university[order[span]].tolist()),
            observed_rank=observed_rank[span],
            hypothetical_rank=hypothetical_rank[span],
            gini=ginis[span],
            spearman_obs_hyp=_safe_spearman(observed_rank[span], hypothetical_rank[span]),
            spearman_shift_gini=_safe_spearman(observed_rank[span] - hypothetical_rank[span], ginis[span]),
            transition=transition,
        )
    return reports


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
    if len(report.universities) < 5:
        raise UndefinedStatisticError(
            f"scatter needs at least 5 units, field {report.field!r} has {len(report.universities)}"
        )
    xs = report.delta.astype(float).tolist()
    ys = report.gini.tolist()
    slope, intercept = least_squares_line(xs, ys)
    return ScatterData(tuple(zip(xs, ys)), slope, intercept)
