"""Per-researcher Scientific Strength, field percentiles, and productivity shares."""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, active_sds_filter
from .normalization import Baselines, CreditScheme, compute_baselines, credit_shares, standardize
from .stats import average_ranks


@dataclass
class ResearcherScore:
    researcher_id: str
    university_id: str
    sds: str
    ss: float
    raw_pub_count: int
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
    Each total receives its terms in publication order, then slot order.
    """
    life_science = {
        rid: corpus.taxonomy.is_life_science(r.sds) for rid, r in corpus.researchers.items()
    }
    totals = dict.fromkeys(corpus.researchers, 0.0)
    pub_counts: Counter[str] = Counter()
    for pub in corpus.publications:
        std = standardize(pub, baselines)
        shares: dict[bool, dict[int, float]] = {}
        for slot in pub.authors:
            rid = slot.researcher_id
            if rid is None:
                continue
            life = life_science[rid]
            if life not in shares:
                shares[life] = credit_shares(pub, scheme, life)
            totals[rid] += std * shares[life][slot.position]
        # A researcher in two slots of one publication counts it once.
        pub_counts.update({slot.researcher_id for slot in pub.authors} - {None})
    scores: dict[str, ResearcherScore] = {}
    for rid, researcher in corpus.researchers.items():
        ss = totals[rid] / researcher.years_in_post
        raw = pub_counts[rid]
        scores[rid] = ResearcherScore(
            researcher_id=rid,
            university_id=researcher.university_id,
            sds=researcher.sds,
            ss=ss,
            raw_pub_count=raw,
            non_productive=raw == 0,
            nil_impact=ss == 0.0,
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
    sds_n: dict[str, int]
    sds_non_productive: dict[str, float]
    sds_nil_impact: dict[str, float]
    uda_non_productive: dict[str, ShareStats]
    uda_nil_impact: dict[str, ShareStats]
    overall_non_productive: float
    overall_nil_impact: float
    n_researchers: int


def _uda_stats(shares_by_uda: dict[str, list[float]]) -> dict[str, ShareStats]:
    return {
        uda: ShareStats(len(shares), min(shares), max(shares), sum(shares) / len(shares))
        for uda, shares in shares_by_uda.items()
    }


def productivity_stats(scores: dict[str, ResearcherScore], taxonomy) -> ProductivityStats:
    """Shares of non-productive and nil-impact researchers per SDS and per UDA.

    UDA aggregates are unweighted over the constituent SDS shares, mirroring
    a per-SDS min/max/average presentation.
    """
    by_sds: dict[str, list[ResearcherScore]] = defaultdict(list)
    for score in scores.values():
        by_sds[score.sds].append(score)
    sds_n: dict[str, int] = {}
    sds_np: dict[str, float] = {}
    sds_nil: dict[str, float] = {}
    np_by_uda: dict[str, list[float]] = defaultdict(list)
    nil_by_uda: dict[str, list[float]] = defaultdict(list)
    for sds, group in sorted(by_sds.items()):
        n = len(group)
        np_share = sum(s.non_productive for s in group) / n
        nil_share = sum(s.nil_impact for s in group) / n
        sds_n[sds] = n
        sds_np[sds] = np_share
        sds_nil[sds] = nil_share
        uda = taxonomy.uda_of(sds)
        np_by_uda[uda].append(np_share)
        nil_by_uda[uda].append(nil_share)
    total = len(scores)
    overall_np = sum(s.non_productive for s in scores.values()) / total if total else 0.0
    overall_nil = sum(s.nil_impact for s in scores.values()) / total if total else 0.0
    return ProductivityStats(
        sds_n=sds_n,
        sds_non_productive=sds_np,
        sds_nil_impact=sds_nil,
        uda_non_productive=_uda_stats(np_by_uda),
        uda_nil_impact=_uda_stats(nil_by_uda),
        overall_non_productive=overall_np,
        overall_nil_impact=overall_nil,
        n_researchers=total,
    )


@dataclass
class ScoredCorpus:
    """Corpus plus everything the downstream analyses need from indicators."""

    corpus: Corpus
    scheme: CreditScheme
    baselines: Baselines
    active_sds: set[str]
    scores: dict[str, ResearcherScore] = field(repr=False)


def score_corpus(corpus: Corpus, scheme: CreditScheme | None = None) -> ScoredCorpus:
    """Full indicator pipeline: baselines, activity filter, SS, percentiles.

    Baselines use every publication in the corpus; scores are then restricted
    to researchers in active SDSs before percentiles are assigned.
    """
    scheme = scheme or CreditScheme()
    baselines = compute_baselines(corpus)
    active = active_sds_filter(corpus)
    all_scores = researcher_ss(corpus, baselines, scheme)
    scores = {rid: s for rid, s in all_scores.items() if s.sds in active}
    percentile_ranks(scores)
    return ScoredCorpus(corpus, scheme, baselines, active, scores)
