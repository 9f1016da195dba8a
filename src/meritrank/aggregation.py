"""University-level aggregation: per-SDS unit scores and the UDA composite.

The UDA composite normalizes each SDS unit score by the national average for
that SDS and weights it by the unit's share of the university's area staff,
so fields with different citation fertility and different sizes compare
fairly inside one area score.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import Taxonomy
from .errors import ValidationError
from .indicators import ResearcherScore
from .stats import ordered_sum

LEVEL_SDS = "sds"
LEVEL_UDA = "uda"

PSTAR_MEAN_OF_UNITS = "mean-of-units"
PSTAR_POOLED = "pooled"

DEFAULT_MIN_STAFF = 5


@dataclass(frozen=True)
class SdsUnitScore:
    university_id: str
    sds: str
    per_capita_ss: float
    staff: int


@dataclass(frozen=True)
class UdaUnitScore:
    university_id: str
    uda: str
    ss_uda: float
    staff: int
    n_sds_present: int
    max_sds_staff: int


@dataclass(frozen=True)
class RankedUnit:
    rank: int
    university_id: str
    score: float
    staff: int


def sds_unit_scores(scores: Mapping[str, ResearcherScore]) -> list[SdsUnitScore]:
    """Per-capita SS of every (university, SDS) unit present in the scores."""
    groups: dict[tuple[str, str], list[float]] = defaultdict(list)
    for score in scores.values():
        groups[(score.university_id, score.sds)].append(score.ss)
    return [
        SdsUnitScore(university, sds, ordered_sum(values) / len(values), len(values))
        for (university, sds), values in sorted(groups.items())
    ]


def national_averages(
    unit_scores: Iterable[SdsUnitScore], mode: str = PSTAR_MEAN_OF_UNITS
) -> dict[str, float]:
    """National yardstick per SDS.

    mean-of-units averages the university per-capita values with equal
    weight; pooled divides the national SS total by the national staff count
    (equivalent to staff-weighting the units).
    """
    by_sds: dict[str, list[SdsUnitScore]] = defaultdict(list)
    for unit in unit_scores:
        by_sds[unit.sds].append(unit)
    averages: dict[str, float] = {}
    for sds, units in by_sds.items():
        if mode == PSTAR_MEAN_OF_UNITS:
            averages[sds] = ordered_sum(u.per_capita_ss for u in units) / len(units)
        elif mode == PSTAR_POOLED:
            staff = sum(u.staff for u in units)
            averages[sds] = ordered_sum(u.per_capita_ss * u.staff for u in units) / staff
        else:
            raise ValidationError(f"unknown national-average mode {mode!r}")
    return averages


def uda_unit_scores(
    unit_scores: Iterable[SdsUnitScore],
    p_stars: Mapping[str, float],
    taxonomy: Taxonomy,
) -> list[UdaUnitScore]:
    """Area score per (university, UDA): staff-weighted sum of normalized SDS ratios.

    Each term is (unit per-capita / national average) * (unit staff / area
    staff). An SDS with a zero national average cannot differentiate units
    and contributes 0.
    """
    by_unit: dict[tuple[str, str], list[SdsUnitScore]] = defaultdict(list)
    for unit in unit_scores:
        by_unit[(unit.university_id, taxonomy.uda_of(unit.sds))].append(unit)
    out: list[UdaUnitScore] = []
    for (university, uda), parts in sorted(by_unit.items()):
        area_staff = sum(p.staff for p in parts)
        total = 0.0
        for part in parts:
            p_star = p_stars.get(part.sds)
            if p_star is None:
                raise ValidationError(f"no national average for SDS {part.sds!r}")
            if p_star > 0:
                total += (part.per_capita_ss / p_star) * (part.staff / area_staff)
        out.append(
            UdaUnitScore(
                university_id=university,
                uda=uda,
                ss_uda=total,
                staff=area_staff,
                n_sds_present=len(parts),
                max_sds_staff=max(p.staff for p in parts),
            )
        )
    return out


def order_units(entries: Sequence[tuple[str, float, int]]) -> list[RankedUnit]:
    """Deterministic total order: score desc, staff desc, university id asc."""
    ordered = sorted(entries, key=lambda e: (-e[1], -e[2], e[0]))
    return [
        RankedUnit(rank, university, score, staff)
        for rank, (university, score, staff) in enumerate(ordered, start=1)
    ]


def rank_units(
    units: Sequence[SdsUnitScore] | Sequence[UdaUnitScore],
    level: str,
    min_staff: int = DEFAULT_MIN_STAFF,
) -> dict[str, list[RankedUnit]]:
    """Rankings per field code, restricted to the minimum-staff roster.

    SDS units qualify on their own staff; a university enters a UDA ranking
    when at least one of its SDS units in the area meets the staff minimum.
    """
    rankings: dict[str, list[RankedUnit]] = {}
    by_field: dict[str, list] = defaultdict(list)
    if level == LEVEL_SDS:
        for unit in units:
            if unit.staff >= min_staff:
                by_field[unit.sds].append((unit.university_id, unit.per_capita_ss, unit.staff))
    elif level == LEVEL_UDA:
        for unit in units:
            if unit.max_sds_staff >= min_staff:
                by_field[unit.uda].append((unit.university_id, unit.ss_uda, unit.staff))
    else:
        raise ValidationError(f"unknown ranking level {level!r}")
    for field_code, entries in by_field.items():
        rankings[field_code] = order_units(entries)
    return rankings
