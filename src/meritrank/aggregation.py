"""University-level aggregation: per-SDS unit scores and the UDA composite.

The UDA composite normalizes each SDS unit score by the national average for
that SDS and weights it by the unit's share of the university's area staff,
so fields with different citation fertility and different sizes compare
fairly inside one area score. Both kinds of unit are rows of a `Units`
table, `level_unit_scores` picks the kind that a ranking level ranks, and
`ranking_order` is the one ranking rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .corpus import Taxonomy, name_codes
from .errors import ValidationError
from .indicators import ScoreTable

LEVEL_SDS = "sds"
LEVEL_UDA = "uda"

PSTAR_MEAN_OF_UNITS = "mean-of-units"
PSTAR_POOLED = "pooled"

DEFAULT_MIN_STAFF = 5


@dataclass(frozen=True, eq=False)
class Units:
    """SDS units or UDA composites, one row per (university, field) unit in code order; `university`
    and `field` are codes into the sorted name tuples `universities` and `fields`.

    `max_sds_staff` is the staff of the unit's largest SDS, the one that
    puts it on the minimum-staff roster; an SDS unit's is its own full staff.
    `row_unit` is, for each row of the score table the units were built
    from, the row of that researcher's unit: the one unit membership.
    """

    universities: tuple[str, ...]
    fields: tuple[str, ...]
    university: np.ndarray
    field: np.ndarray
    score: np.ndarray
    staff: np.ndarray
    max_sds_staff: np.ndarray
    row_unit: np.ndarray


@dataclass(frozen=True)
class RankedUnit:
    rank: int
    university_id: str
    score: float
    staff: int


def sds_unit_scores(scores: ScoreTable, kept: np.ndarray | None = None) -> Units:
    """Per-capita SS of every (university, SDS) unit present in the scores.

    With `kept`, a row mask, each unit counts only its kept rows; a unit
    left without staff scores 0.0 with staff 0 and keeps its full staff as
    `max_sds_staff`, so it stays on its roster. `bincount` adds each unit's
    SS in row order, as `ordered_sum` would.
    """
    n_sds = len(scores.sds_names)
    present, row_unit = np.unique(scores.unit_codes(), return_inverse=True)
    full_staff = np.bincount(row_unit)
    rows = slice(None) if kept is None else kept
    staff = np.bincount(row_unit[rows], minlength=len(present))
    totals = np.bincount(row_unit[rows], weights=scores.ss[rows], minlength=len(present))
    score = np.divide(totals, staff, out=np.zeros(len(present)), where=staff > 0)
    return Units(
        scores.universities, scores.sds_names, present // n_sds, present % n_sds, score, staff, full_staff, row_unit
    )


def national_averages(units: Units, mode: str = PSTAR_MEAN_OF_UNITS) -> dict[str, float]:
    """National yardstick per SDS, from the SDS units that have staff.

    mean-of-units averages the university per-capita values with equal
    weight; pooled divides the national SS total by the national staff count
    (equivalent to staff-weighting the units).
    """
    if mode not in (PSTAR_MEAN_OF_UNITS, PSTAR_POOLED):
        raise ValidationError(f"unknown national-average mode {mode!r}")
    staffed = units.staff > 0
    weight = units.staff[staffed] if mode == PSTAR_POOLED else np.ones(np.count_nonzero(staffed))
    totals = np.bincount(units.field[staffed], weights=units.score[staffed] * weight)
    counts = np.bincount(units.field[staffed], weights=weight)
    present = np.flatnonzero(counts)
    averages = totals[present] / counts[present]
    return {units.fields[sds]: average for sds, average in zip(present.tolist(), averages.tolist())}


def uda_unit_scores(units: Units, p_stars: Mapping[str, float], taxonomy: Taxonomy) -> Units:
    """Area score per (university, UDA): staff-weighted sum of normalized SDS ratios.

    Each term is (unit per-capita / national average) * (unit staff / area
    staff), added in SDS order. An SDS with a zero national average cannot
    differentiate units and contributes 0; an SDS unit without staff adds
    nothing and needs no national average.
    """
    udas, uda_of_sds = name_codes([taxonomy.uda_of(sds) for sds in units.fields])
    areas = units.university * len(udas) + uda_of_sds[units.field]
    staffed = units.staff > 0
    missing = staffed & ~np.array([sds in p_stars for sds in units.fields], dtype=bool)[units.field]
    if missing.any():
        first = min(np.flatnonzero(missing), key=lambda row: (areas[row], units.field[row]))
        raise ValidationError(f"no national average for SDS {units.fields[units.field[first]]!r}")
    p_star = np.array([p_stars.get(sds, 0.0) for sds in units.fields], dtype=float)[units.field]
    area_staff = np.bincount(areas, weights=units.staff).astype(np.int64)
    share = np.divide(units.staff, area_staff[areas], out=np.zeros(len(areas)), where=staffed)
    ratio = np.divide(units.score, p_star, out=np.zeros(len(areas)), where=p_star > 0)
    totals = np.bincount(areas, weights=ratio * share)
    largest = np.zeros(len(totals), dtype=np.int64)
    np.maximum.at(largest, areas, units.max_sds_staff)
    present, area_row = np.unique(areas, return_inverse=True)
    return Units(
        units.universities, udas, present // len(udas), present % len(udas),
        totals[present], area_staff[present], largest[present], area_row[units.row_unit],
    )


def level_unit_scores(units: Units, level: str, p_stars: Mapping[str, float], taxonomy: Taxonomy) -> Units:
    """The units ranked at `level`: the SDS units as they are, or their UDA composites
    against the national averages `p_stars`. The one place that rejects an unknown level."""
    if level == LEVEL_SDS:
        return units
    if level == LEVEL_UDA:
        return uda_unit_scores(units, p_stars, taxonomy)
    raise ValidationError(f"unknown ranking level {level!r}")


def ranking_order(units: Units, min_staff: int = DEFAULT_MIN_STAFF) -> np.ndarray:
    """The rows of `units` on the minimum-staff roster, in ranking order: by field code, then
    score descending, staff descending and university name.

    A unit qualifies when its largest SDS meets the staff minimum: an SDS
    unit on its own staff, a university's UDA composite when at least one
    of its SDS units in the area does. Each field's units form one span of
    the order, best first.
    """
    order = np.lexsort((units.university, -units.staff, -units.score, units.field))
    return order[units.max_sds_staff[order] >= min_staff]


def rank_units(units: Units, min_staff: int = DEFAULT_MIN_STAFF) -> dict[str, list[RankedUnit]]:
    """Rankings per field code, in field-code order, of the units in `ranking_order`."""
    order = ranking_order(units, min_staff)
    columns = (units.field, units.university, units.score, units.staff)
    rankings: dict[str, list[RankedUnit]] = {}
    for field, university, score, staff in zip(*(column[order].tolist() for column in columns)):
        ranking = rankings.setdefault(units.fields[field], [])
        ranking.append(RankedUnit(len(ranking) + 1, units.universities[university], score, staff))
    return rankings
