"""Per-researcher Scientific Strength, field percentiles, and productivity shares."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, active_sds_filter
from .normalization import (
    Baselines,
    CreditScheme,
    compute_baselines,
    slot_credit_shares,
    standardized_citations,
)
from .stats import average_ranks, ordered_sum, top20_impact_share


@dataclass
class ResearcherScore:
    researcher_id: str
    university_id: str
    sds: str
    ss: float
    non_productive: bool
    nil_impact: bool
    percentile: float | None = None


def researcher_ss(
    corpus: Corpus, baselines: Baselines, scheme: CreditScheme
) -> dict[str, ResearcherScore]:
    """Standardized, author-fractionalized, per-year impact of every researcher.

    ss = sum over the researcher's publications of standardized citations
    times their author-credit share, divided by years in post. Positional
    credit applies when the researcher's field is a life-science area.
    Each total receives its terms in publication order, then slot order, so
    it equals the per-record sum of `standardize` times `credit_shares`.
    """
    pubs = corpus.publications
    researchers = list(corpus.researchers.values())
    row_of = {r.id: i for i, r in enumerate(researchers)}
    row_of_code = np.array([row_of[rid] for rid in pubs.researcher_names], dtype=np.int64)
    life_science = np.array([corpus.taxonomy.is_life_science(r.sds) for r in researchers], dtype=bool)

    slots = np.flatnonzero(pubs.slot_researcher >= 0)
    holders = row_of_code[pubs.slot_researcher[slots]]
    rows = pubs.slot_publication[slots]
    std = standardized_citations(pubs, baselines)
    terms = std[rows] * slot_credit_shares(pubs, scheme, slots, life_science[holders])
    # bincount adds each researcher's terms in slot order, as the per-record loop does.
    totals = np.bincount(holders, weights=terms, minlength=len(researchers))
    ss = totals / np.array([r.years_in_post for r in researchers], dtype=np.int64)
    holds_no_slot = np.bincount(holders, minlength=len(researchers)) == 0

    scores: dict[str, ResearcherScore] = {}
    for researcher, value, no_slot in zip(researchers, ss.tolist(), holds_no_slot.tolist()):
        scores[researcher.id] = ResearcherScore(
            researcher_id=researcher.id,
            university_id=researcher.university_id,
            sds=researcher.sds,
            ss=value,
            non_productive=no_slot,
            nil_impact=value == 0.0,
        )
    return scores


def percentile_ranks(scores: dict[str, ResearcherScore]) -> dict[str, ResearcherScore]:
    """Percentile within each SDS: 100 for the top score, 0 for the bottom.

    percentile = 100 * (r - 1) / (n - 1) with r the ascending rank averaged
    over exact-equality ties (`stats.average_ranks`); a singleton group
    scores 100.
    """
    groups: dict[str, list[ResearcherScore]] = defaultdict(list)
    for score in scores.values():
        groups[score.sds].append(score)
    for group in groups.values():
        n = len(group)
        if n == 1:
            group[0].percentile = 100.0
            continue
        ranks = average_ranks(np.array([s.ss for s in group]))
        for score, percentile in zip(group, (100.0 * (ranks - 1) / (n - 1)).tolist()):
            score.percentile = percentile
    return scores


@dataclass(frozen=True)
class ShareStats:
    """Min/max/average of per-SDS shares within one discipline area."""

    n_sds: int
    minimum: float
    maximum: float
    average: float


@dataclass
class ProductivityStats:
    uda_non_productive: dict[str, ShareStats]
    uda_nil_impact: dict[str, ShareStats]


def _uda_stats(shares_by_uda: dict[str, list[float]]) -> dict[str, ShareStats]:
    return {
        uda: ShareStats(len(shares), min(shares), max(shares), ordered_sum(shares) / len(shares))
        for uda, shares in shares_by_uda.items()
    }


def productivity_stats(scores: dict[str, ResearcherScore], taxonomy) -> ProductivityStats:
    """Shares of non-productive and nil-impact researchers per SDS, summarized per UDA.

    UDA aggregates are unweighted over the constituent SDS shares, mirroring
    a per-SDS min/max/average presentation.
    """
    by_sds: dict[str, list[ResearcherScore]] = defaultdict(list)
    for score in scores.values():
        by_sds[score.sds].append(score)
    np_by_uda: dict[str, list[float]] = defaultdict(list)
    nil_by_uda: dict[str, list[float]] = defaultdict(list)
    for sds, group in sorted(by_sds.items()):
        n = len(group)
        np_share = sum(s.non_productive for s in group) / n
        nil_share = sum(s.nil_impact for s in group) / n
        uda = taxonomy.uda_of(sds)
        np_by_uda[uda].append(np_share)
        nil_by_uda[uda].append(nil_share)
    return ProductivityStats(
        uda_non_productive=_uda_stats(np_by_uda),
        uda_nil_impact=_uda_stats(nil_by_uda),
    )


@dataclass(frozen=True)
class MeasuredStats:
    non_productive_share: float
    nil_impact_share: float
    top20_impact_share: float
    n_researchers: int


def measured_shares(scores: dict[str, ResearcherScore]) -> MeasuredStats:
    """Shares of non-productives, nil impact, and top-20% impact concentration; all 0 when empty."""
    n = len(scores)
    if n == 0:
        return MeasuredStats(0.0, 0.0, 0.0, 0)
    non_productive = sum(s.non_productive for s in scores.values()) / n
    nil_impact = sum(s.nil_impact for s in scores.values()) / n
    return MeasuredStats(non_productive, nil_impact, top20_impact_share([s.ss for s in scores.values()]), n)


@dataclass
class ScoredCorpus:
    """Corpus plus everything the downstream analyses need from indicators."""

    corpus: Corpus
    active_sds: set[str]
    scores: dict[str, ResearcherScore] = field(repr=False)


def score_corpus(corpus: Corpus, scheme: CreditScheme | None = None) -> ScoredCorpus:
    """Full indicator pipeline: baselines, activity filter, SS, percentiles.

    Baselines use every publication in the corpus; scores are then restricted
    to researchers in active SDSs before percentiles are assigned.
    """
    active = active_sds_filter(corpus)
    all_scores = researcher_ss(corpus, compute_baselines(corpus), scheme or CreditScheme())
    scores = {rid: s for rid, s in all_scores.items() if s.sds in active}
    percentile_ranks(scores)
    return ScoredCorpus(corpus, active, scores)
