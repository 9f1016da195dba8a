"""Class-weighted funding simulation and the national top-scientist census.

Funding classes follow the four-tier scheme with a fixed per-capita ratio
between adjacent funded classes and nothing for the bottom class. Amounts
are computed in exact rational arithmetic so conservation and the adjacent
ratios hold without rounding slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .aggregation import Units
from .errors import AllocationError, ValidationError
from .scenario import SCOPE_NATIONAL, TopSelection
from .stats import classify_quantiles


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class FundingPolicy:
    n_classes: int = 4
    adjacent_ratio: Fraction = Fraction(3)
    bottom_class_funded: bool = False
    budget: Fraction = Fraction(1_000_000)

    def __post_init__(self):
        object.__setattr__(self, "adjacent_ratio", _as_fraction(self.adjacent_ratio))
        object.__setattr__(self, "budget", _as_fraction(self.budget))
        if self.n_classes < 2:
            raise ValidationError("funding needs at least 2 classes")
        if self.adjacent_ratio <= 1:
            raise ValidationError("adjacent class ratio must exceed 1")
        if self.budget <= 0:
            raise ValidationError("budget must be positive")

    def class_weights(self) -> tuple[Fraction, ...]:
        """Per-capita weight of each class, best first: (r^2, r, 1, 0) by default."""
        funded = self.n_classes - (0 if self.bottom_class_funded else 1)
        weights = [self.adjacent_ratio ** (funded - 1 - i) for i in range(funded)]
        if not self.bottom_class_funded:
            weights.append(Fraction(0))
        return tuple(weights)


@dataclass(frozen=True)
class FundingAllocation:
    """One area's funding over its ranking: the ranked `rows` of `units`, best first, and each
    rank's funding class and exact amount."""

    policy: FundingPolicy
    units: Units
    rows: np.ndarray
    class_index: tuple[int, ...]
    amount: tuple[Fraction, ...]

    @property
    def total(self) -> Fraction:
        return sum(self.amount, Fraction(0))


def allocate(units: Units, rows: np.ndarray, policy: FundingPolicy) -> FundingAllocation:
    """Split the budget across the ranked `rows` of `units`, staff-proportional within class.

    amount_u = budget * staff_u * weight(class_u) / sum_v staff_v * weight(class_v),
    which conserves the budget exactly and keeps the per-capita ratio between
    adjacent funded classes equal to the policy ratio.
    """
    classes = classify_quantiles(len(rows), policy.n_classes)
    weights = policy.class_weights()
    weighted = [staff * weights[c] for staff, c in zip(units.staff[rows].tolist(), classes)]
    denominator = sum(weighted, Fraction(0))
    if denominator == 0:
        raise AllocationError("all weighted staff are zero; nothing to allocate")
    amounts = tuple(policy.budget * w / denominator for w in weighted)
    return FundingAllocation(policy, units, rows, tuple(classes), amounts)


@dataclass(frozen=True)
class UniversityCensus:
    university_id: str
    class_index: int | None
    staff: int
    top_count: int
    incidence: float
    amount: Fraction


@dataclass
class TopCensus:
    """Where the nation's top scientists sit relative to the funding classes."""

    uda: str
    allocation: FundingAllocation
    universities: list[UniversityCensus]
    class_totals: list[int]
    total_tops: int
    stranded_count: int
    stranded_share: float


def national_top_census(allocation: FundingAllocation, selection: TopSelection) -> TopCensus:
    """Count top national scientists per university and per funding class.

    The census has a row per unit of the allocation's area, in university
    order. Top status comes from a nationally scoped selection of the units'
    score rows: per SDS, whatever the employer. Each row's class and amount
    come from its rank in the allocation; units off the ranked roster have
    class None and amount 0 and add to no class total, so the per-class
    totals partition the classified tops. Stranded means sitting in the
    bottom class.
    """
    if selection.scope != SCOPE_NATIONAL:
        raise ValidationError("the census needs a nationally scoped selection")
    units, ranked = allocation.units, allocation.rows
    area = units.field[ranked[0]]
    rows = np.flatnonzero(units.field == area)
    tops = np.bincount(units.row_unit[selection.selected], minlength=len(units.field))
    funded = dict(zip(ranked.tolist(), zip(allocation.class_index, allocation.amount)))

    universities = []
    class_totals = [0] * allocation.policy.n_classes
    columns = (units.university, units.staff, tops)
    for row, code, univ_staff, univ_tops in zip(rows.tolist(), *(column[rows].tolist() for column in columns)):
        class_index, amount = funded.get(row, (None, Fraction(0)))
        if class_index is not None:
            class_totals[class_index] += univ_tops
        univ = units.universities[code]
        universities.append(UniversityCensus(univ, class_index, univ_staff, univ_tops, univ_tops / univ_staff, amount))
    total = sum(class_totals)
    stranded = class_totals[-1]
    return TopCensus(
        uda=units.fields[area],
        allocation=allocation,
        universities=universities,
        class_totals=class_totals,
        total_tops=total,
        stranded_count=stranded,
        stranded_share=stranded / total if total else 0.0,
    )


@dataclass(frozen=True)
class Finding:
    kind: str
    message: str
    details: dict

KIND_CLASS_INVERSION = "class_funding_inversion"
KIND_STRANDED_INCIDENCE = "stranded_high_incidence"


def paradox_report(census: TopCensus) -> list[Finding]:
    """Flag cases where the class-based scheme contradicts individual merit.

    (a) a better-funded class hosting fewer top scientists than a worse one;
    (b) an unfunded university whose top-scientist incidence beats the
    staff-weighted incidence of the first class.
    """
    weights = census.allocation.policy.class_weights()
    findings: list[Finding] = []
    totals = census.class_totals
    # FundingPolicy keeps the ratio above 1, so weights fall strictly class by class: class i < j is better funded.
    for i, j in combinations(range(len(weights)), 2):
        if totals[i] < totals[j]:
            findings.append(
                Finding(
                    KIND_CLASS_INVERSION,
                    f"class {i + 1} is funded at {weights[i]}x per capita but hosts "
                    f"{totals[i]} top scientists; class {j + 1} at {weights[j]}x hosts {totals[j]}",
                    {
                        "better_class": i + 1,
                        "worse_class": j + 1,
                        "better_class_tops": totals[i],
                        "worse_class_tops": totals[j],
                    },
                )
            )
    first_staff = sum(u.staff for u in census.universities if u.class_index == 0)
    if first_staff:
        benchmark = totals[0] / first_staff
        unfunded = {c for c, w in enumerate(weights) if w == 0}
        for unit in census.universities:
            if unit.class_index in unfunded and unit.top_count and unit.incidence > benchmark:
                findings.append(
                    Finding(
                        KIND_STRANDED_INCIDENCE,
                        f"unfunded university {unit.university_id} has top-scientist "
                        f"incidence {unit.incidence:.1%}, above the first-class average "
                        f"{benchmark:.1%}",
                        {
                            "university_id": unit.university_id,
                            "incidence": unit.incidence,
                            "first_class_incidence": benchmark,
                            "top_count": unit.top_count,
                            "staff": unit.staff,
                        },
                    )
                )
    return findings
