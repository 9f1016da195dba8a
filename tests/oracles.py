"""Per-record reference implementations that tests compare the columnar package code with.

The package computes these in columns (`normalization.standardized_citations`,
`normalization.slot_credit_shares`, the `aggregation` functions over
`Units`, `scenario.counterfactual_rankings` over two rankings of rows, and
`synth._with_citations` over arrays of exponents).
These record-by-record versions are the plain reference; no run executes
them. `reference_spearman` is `stats.spearman` as it was before it centred
its ranks once: the correlation and the exact p-value each centre them.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from meritrank import aggregation, synth
from meritrank.aggregation import (
    DEFAULT_MIN_STAFF,
    LEVEL_SDS,
    LEVEL_UDA,
    PSTAR_MEAN_OF_UNITS,
    PSTAR_POOLED,
    Units,
    level_unit_scores,
)
from meritrank.corpus import Corpus, Publication, Taxonomy, name_codes
from meritrank.errors import UndefinedStatisticError, ValidationError
from meritrank.indicators import ScoreTable, group_rows
from meritrank.normalization import EQUAL_FRACTIONAL, Baselines, CreditScheme
from meritrank.scenario import DEFAULT_TRANSITION_CLASSES, SCOPE_UNIT, TopSelection
from meritrank.stats import (
    EXACT_PERMUTATION_MAX_N,
    SpearmanResult,
    _permutation_matrix,
    _t_approximation_p,
    average_ranks,
    classify_quantiles,
    gini,
    ordered_sum,
    spearman,
)


def standardize(pub: Publication, baselines: Baselines) -> float:
    """Citations scaled by the mean of the per-category baseline scales.

    Multi-category publications divide by the average of their categories'
    scales. A zero overall scale can only occur when the stratum is entirely
    uncited, which forces the publication's own count to zero as well.
    """
    scales = []
    for cat in pub.categories:
        baseline = baselines.get((cat, pub.year))
        if baseline is None:
            raise ValidationError(
                f"no baseline for category {cat!r} year {pub.year} (publication {pub.id!r})"
            )
        scales.append(baseline.scale)
    denominator = ordered_sum(scales) / len(scales)
    if pub.citations == 0 or denominator == 0:
        return 0.0
    return pub.citations / denominator


def with_citations(profile: synth.GeneratorProfile, drawn: Corpus, zero_uniform, citation_normal) -> Corpus:
    """`synth._with_citations` one publication at a time: zero where the uniform falls below the
    zero-citation mass, else `citation_count` of (location + slope x age) + sigma x normal."""
    pubs = drawn.publications
    y1 = profile.window[1]
    mass, sigma = profile.zero_citation_mass, profile.citation_sigma
    locations = [profile.citation_location + synth._category_offset(name) for name in pubs.category_names]
    citations = [
        0 if u < mass else citation_count(locations[c] + synth.AGE_LOCATION_SLOPE * (y1 - year) + sigma * z)
        for u, z, year, c in zip(
            zero_uniform.tolist(),
            citation_normal.tolist(),
            pubs.year.tolist(),
            pubs.category[pubs.category_offsets[:-1]].tolist(),
        )
    ]
    return replace(drawn, publications=replace(pubs, citations=np.array(citations, dtype=np.int64)))


def citation_count(exponent: float) -> int:
    """`min(round(exp(exponent)), MAX_CITATIONS)`; from exp(709) on (or NaN, from inf - inf) the cap."""
    if not exponent < synth._EXP_CAP:
        return synth.MAX_CITATIONS
    return min(int(round(math.exp(exponent))), synth.MAX_CITATIONS)


def credit_shares(pub: Publication, scheme: CreditScheme, is_life_science: bool) -> dict[int, float]:
    """Credit per author position; shares always sum to 1 per publication."""
    n = len(pub.authors)
    if scheme.mode == EQUAL_FRACTIONAL or not is_life_science:
        return {slot.position: 1.0 / n for slot in pub.authors}
    weights: dict[int, float] = {}
    for slot in pub.authors:
        if slot.position == 1:
            w = scheme.first_weight
        elif slot.position == n:
            w = scheme.last_weight
        else:
            w = scheme.middle_weight
        if not slot.intramural:
            w *= scheme.extramural_discount
        weights[slot.position] = w
    total = ordered_sum(weights.values())
    return {position: w / total for position, w in weights.items()}


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


@dataclass(frozen=True)
class RankedUnit:
    """One place of a per-record ranking."""

    rank: int
    university_id: str
    score: float
    staff: int


def ranked_records(units: Units, rankings: Mapping[str, np.ndarray]) -> dict[str, list[RankedUnit]]:
    """`aggregation.rank_units`' rankings of `units`, rows in rank order, as per-record rankings."""
    return {
        field_code: [
            RankedUnit(rank, units.universities[university], score, staff)
            for rank, (university, score, staff) in enumerate(
                zip(units.university[rows].tolist(), units.score[rows].tolist(), units.staff[rows].tolist()), start=1
            )
        ]
        for field_code, rows in rankings.items()
    }


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
class RecordReport:
    """A field's counterfactual as one `UnitShift` record per ranked unit, in observed order."""

    field: str
    units: list[UnitShift]
    spearman_obs_hyp: SpearmanResult | None
    spearman_shift_gini: SpearmanResult | None
    transition: list[list[int]] | None


def _unit_gini(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    return gini(values)


def level_field(sds: str, level: str, taxonomy: Taxonomy) -> str:
    """The field a researcher of `sds` is ranked in at `level`: the SDS, or its UDA."""
    return sds if level == LEVEL_SDS else taxonomy.uda_of(sds)


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
) -> dict[str, RecordReport]:
    """Observed vs top-scientists-removed rankings per field, joined unit by unit through a dict
    of each hypothetical ranking, with a transition matrix counted pair by pair."""
    if selection.scope != SCOPE_UNIT:
        raise ValidationError("counterfactual rankings need a unit-scoped selection")
    hyp_units = aggregation.sds_unit_scores(scores, ~selection.selected)
    p_stars = hyp_pstars = {}
    if level == LEVEL_UDA:
        p_stars = aggregation.national_averages(units, pstar_mode)
        hyp_pstars = aggregation.national_averages(hyp_units, pstar_mode) if refit_pstar else p_stars
    observed_units = level_unit_scores(units, level, p_stars, taxonomy)
    hypothetical_units = level_unit_scores(hyp_units, level, hyp_pstars, taxonomy)
    observed_rankings = ranked_records(observed_units, aggregation.rank_units(observed_units, min_staff))
    hyp_rankings = ranked_records(hypothetical_units, aggregation.rank_units(hypothetical_units, min_staff))
    unit_values = _unit_values(scores, level, taxonomy)

    reports: dict[str, RecordReport] = {}
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
            classes = classify_quantiles(len(shifts), k_classes)
            transition = transition_matrix(
                [classes[r - 1] for r in observed], [classes[r - 1] for r in hypothetical], k_classes
            )

        reports[field_code] = RecordReport(
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


def _rank_correlation(rx: np.ndarray, ry: np.ndarray) -> float:
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    denom = math.sqrt(float((dx * dx).sum() * (dy * dy).sum()))
    rho = float((dx * dy).sum() / denom)
    return max(-1.0, min(1.0, rho))


def _exact_permutation_p(rx: np.ndarray, ry: np.ndarray, rho_obs: float) -> float:
    """Two-sided p over all n! equally likely pairings of the rank vectors."""
    n = int(rx.size)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    denom = math.sqrt(float((dx * dx).sum() * (dy * dy).sum()))
    # sum(dx) == 0, so permuted-ry dot dx already equals the centered product. The pairings that put
    # ry[n - 1] against dx[i] pair the other ranks by one of the (n - 1)! permutations P, so their sums
    # are dx[i] * ry[n - 1] + ry[P] @ (dx without entry i). Ranks and centred ranks are multiples of
    # 0.5, so every partial sum is exact and the split leaves each rho unchanged.
    others = ry[_permutation_matrix(n - 1)]
    hits = 0
    for i in range(n):
        rhos = (dx[i] * ry[n - 1] + others @ np.delete(dx, i)) / denom
        hits += int(np.count_nonzero(np.abs(rhos) >= abs(rho_obs) - 1e-12))
    return hits / math.factorial(n)


def reference_spearman(x: Sequence[float], y: Sequence[float]) -> SpearmanResult:
    """`stats.spearman` with each of its two steps centring the ranks itself."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size != ya.size:
        raise ValidationError(f"spearman needs equal lengths, got {xa.size} vs {ya.size}")
    n = int(xa.size)
    if n < 3:
        raise UndefinedStatisticError(f"spearman needs at least 3 pairs, got {n}")
    rx = average_ranks(xa)
    ry = average_ranks(ya)
    if np.all(xa == xa[0]) or np.all(ya == ya[0]):
        raise UndefinedStatisticError("spearman is undefined for a zero-variance vector")
    rho = _rank_correlation(rx, ry)
    if n <= EXACT_PERMUTATION_MAX_N:
        p = _exact_permutation_p(rx, ry, rho)
    else:
        p = _t_approximation_p(rho, n)
    return SpearmanResult(rho, p, n)
