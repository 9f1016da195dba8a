"""University-level aggregation: per-SDS unit scores and the UDA composite.

The UDA composite normalizes each SDS unit score by the national average for
that SDS and weights it by the unit's share of the university's area staff,
so fields with different citation fertility and different sizes compare
fairly inside one area score. Both kinds of unit are a `UnitScore`, and
`level_unit_scores` picks the kind that a ranking level ranks.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Taxonomy
from .errors import ValidationError
from .indicators import ScoreTable
from .stats import ordered_sum

LEVEL_SDS = "sds"
LEVEL_UDA = "uda"

PSTAR_MEAN_OF_UNITS = "mean-of-units"
PSTAR_POOLED = "pooled"

DEFAULT_MIN_STAFF = 5


@dataclass(frozen=True)
class UnitScore:
    """One university's score in one field: an SDS, or a UDA composite.

    `max_sds_staff` is the staff of the unit's largest SDS, the one that
    puts it on the minimum-staff roster; an SDS unit's is its own staff.
    """

    university_id: str
    field: str
    score: float
    staff: int
    max_sds_staff: int


@dataclass(frozen=True)
class RankedUnit:
    rank: int
    university_id: str
    score: float
    staff: int


def sds_unit_scores(scores: ScoreTable) -> list[UnitScore]:
    """Per-capita SS of every (university, SDS) unit present in the scores, in that name order.

    `bincount` adds each unit's SS in row order, as `ordered_sum` would.
    """
    n_sds = len(scores.sds_names)
    units = scores.unit_codes()
    staff = np.bincount(units)
    totals = np.bincount(units, weights=scores.ss, minlength=len(staff))
    present = np.flatnonzero(staff)
    return [
        UnitScore(scores.universities[unit // n_sds], scores.sds_names[unit % n_sds], total / n, n, n)
        for unit, total, n in zip(present.tolist(), totals[present].tolist(), staff[present].tolist())
    ]


def national_averages(
    unit_scores: Iterable[UnitScore], mode: str = PSTAR_MEAN_OF_UNITS
) -> dict[str, float]:
    """National yardstick per SDS, from the SDS units.

    mean-of-units averages the university per-capita values with equal
    weight; pooled divides the national SS total by the national staff count
    (equivalent to staff-weighting the units).
    """
    if mode not in (PSTAR_MEAN_OF_UNITS, PSTAR_POOLED):
        raise ValidationError(f"unknown national-average mode {mode!r}")
    by_sds: dict[str, list[UnitScore]] = defaultdict(list)
    for unit in unit_scores:
        by_sds[unit.field].append(unit)
    averages: dict[str, float] = {}
    for sds, units in by_sds.items():
        if mode == PSTAR_MEAN_OF_UNITS:
            averages[sds] = ordered_sum(u.score for u in units) / len(units)
        else:
            staff = sum(u.staff for u in units)
            averages[sds] = ordered_sum(u.score * u.staff for u in units) / staff
    return averages


def uda_unit_scores(
    unit_scores: Iterable[UnitScore],
    p_stars: Mapping[str, float],
    taxonomy: Taxonomy,
) -> list[UnitScore]:
    """Area score per (university, UDA): staff-weighted sum of normalized SDS ratios.

    Each term is (unit per-capita / national average) * (unit staff / area
    staff). An SDS with a zero national average cannot differentiate units
    and contributes 0.
    """
    by_unit: dict[tuple[str, str], list[UnitScore]] = defaultdict(list)
    for unit in unit_scores:
        by_unit[(unit.university_id, taxonomy.uda_of(unit.field))].append(unit)
    out: list[UnitScore] = []
    for (university, uda), parts in sorted(by_unit.items()):
        area_staff = sum(p.staff for p in parts)
        total = 0.0
        for part in parts:
            p_star = p_stars.get(part.field)
            if p_star is None:
                raise ValidationError(f"no national average for SDS {part.field!r}")
            if p_star > 0:
                total += (part.score / p_star) * (part.staff / area_staff)
        out.append(UnitScore(university, uda, total, area_staff, max(p.staff for p in parts)))
    return out


def level_unit_scores(
    units: Sequence[UnitScore], level: str, p_stars: Mapping[str, float], taxonomy: Taxonomy
) -> list[UnitScore]:
    """The units ranked at `level`: the SDS units as they are, or their UDA composites
    against the national averages `p_stars`. The one place that rejects an unknown level."""
    if level == LEVEL_SDS:
        return list(units)
    if level == LEVEL_UDA:
        return uda_unit_scores(units, p_stars, taxonomy)
    raise ValidationError(f"unknown ranking level {level!r}")


def level_field(sds: str, level: str, taxonomy: Taxonomy) -> str:
    """The field a researcher of `sds` is ranked in at `level`, once `level_unit_scores` took it."""
    return sds if level == LEVEL_SDS else taxonomy.uda_of(sds)


def order_units(entries: Sequence[tuple[str, float, int]]) -> list[RankedUnit]:
    """Deterministic total order: score desc, staff desc, university id asc."""
    ordered = sorted(entries, key=lambda e: (-e[1], -e[2], e[0]))
    return [
        RankedUnit(rank, university, score, staff)
        for rank, (university, score, staff) in enumerate(ordered, start=1)
    ]


def rank_units(
    units: Iterable[UnitScore], min_staff: int = DEFAULT_MIN_STAFF
) -> dict[str, list[RankedUnit]]:
    """Rankings per field code, restricted to the minimum-staff roster.

    A unit qualifies when its largest SDS meets the staff minimum: an SDS
    unit on its own staff, a university's UDA composite when at least one
    of its SDS units in the area does.
    """
    by_field: dict[str, list] = defaultdict(list)
    for unit in units:
        if unit.max_sds_staff >= min_staff:
            by_field[unit.field].append((unit.university_id, unit.score, unit.staff))
    return {field_code: order_units(entries) for field_code, entries in by_field.items()}
