"""Per-researcher Scientific Strength, field percentiles, and productivity shares.

Scoring indexes `corpus.researchers` by row, an author slot's code; a `ScoreTable` is that table plus scores."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, Researchers, Taxonomy, active_sds_filter
from .normalization import (
    Baselines,
    CreditScheme,
    compute_baselines,
    slot_credit_shares,
    standardized_citations,
)
from .stats import average_ranks, ordered_sum, top20_impact_share


@dataclass(frozen=True, eq=False)
class ScoreTable(Researchers):
    """The scored researchers: a `Researchers` table, rows in id order, with read-only score columns."""

    ss: np.ndarray
    percentile: np.ndarray
    non_productive: np.ndarray
    nil_impact: np.ndarray

    def unit_codes(self) -> np.ndarray:
        """Each row's (university, SDS) unit as one code, in (university, SDS) name order."""
        return self.university * len(self.sds_names) + self.sds


def group_rows(codes: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """The rows holding each code 0..n_groups-1, each group in row order."""
    order = np.argsort(codes, kind="stable")
    return np.split(order, np.cumsum(np.bincount(codes, minlength=n_groups))[:-1])


def researcher_ss(corpus: Corpus, baselines: Baselines, scheme: CreditScheme) -> tuple[np.ndarray, np.ndarray]:
    """Standardized, author-fractionalized, per-year impact of every researcher.

    ss = sum over the researcher's author slots of the publication's
    `standardized_citations` times the slot's `slot_credit_shares`, divided
    by years in post. Positional credit applies when the researcher's field
    is a life-science area. Each total receives its terms in publication
    order, then slot order, as a loop over the records would add them.
    Returns the columns (ss, non_productive) by row of `corpus.researchers`;
    non-productive means holding no author slot.
    """
    pubs = corpus.publications
    res = corpus.researchers
    life_science = np.array([corpus.taxonomy.is_life_science(sds) for sds in res.sds_names], dtype=bool)

    std = standardized_citations(pubs, baselines)
    # Per row, then False for code -1 (outside the population).
    life_science_of_code = np.append(life_science[res.sds], False)
    shares = slot_credit_shares(pubs, scheme, life_science_of_code[pubs.slot_researcher])
    slots = np.flatnonzero(pubs.slot_researcher >= 0)
    terms = std[pubs.slot_publication[slots]]
    terms *= shares[slots]
    del shares
    holders = pubs.slot_researcher[slots]
    # bincount adds each researcher's terms in slot order, as the per-record loop does.
    totals = np.bincount(holders, weights=terms, minlength=len(res))
    ss = totals / res.years_in_post
    return ss, np.bincount(holders, minlength=len(res)) == 0


def percentile_ranks(sds: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """Percentile of each score within its SDS code: 100 for the top score, 0 for the bottom.

    percentile = 100 * (r - 1) / (n - 1) with r the ascending rank averaged
    over exact-equality ties (`stats.average_ranks`); a singleton group
    scores 100.
    """
    n = np.bincount(sds)[sds]
    return np.divide(100.0 * (average_ranks(ss, sds) - 1), n - 1, out=np.full(len(ss), 100.0), where=n > 1)


def score_table(researchers: Researchers, ss, non_productive) -> ScoreTable:
    """The table of `researchers` with their SS and non-productive flags, row for row,
    adding the SDS percentiles and the nil-impact flags (SS exactly 0)."""
    ss = np.array(ss, dtype=float)
    return ScoreTable(
        **vars(researchers), ss=ss, percentile=percentile_ranks(researchers.sds, ss),
        non_productive=np.array(non_productive, dtype=bool), nil_impact=ss == 0.0,
    )


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


def productivity_stats(scores: ScoreTable, taxonomy) -> ProductivityStats:
    """Shares of non-productive and nil-impact researchers per SDS, summarized per UDA.

    UDA aggregates are unweighted over the constituent SDS shares, mirroring
    a per-SDS min/max/average presentation.
    """
    n_sds = len(scores.sds_names)
    staff = np.bincount(scores.sds, minlength=n_sds).tolist()
    non_productive = np.bincount(scores.sds[scores.non_productive], minlength=n_sds).tolist()
    nil_impact = np.bincount(scores.sds[scores.nil_impact], minlength=n_sds).tolist()
    np_by_uda: dict[str, list[float]] = defaultdict(list)
    nil_by_uda: dict[str, list[float]] = defaultdict(list)
    for sds, n, np_count, nil_count in zip(scores.sds_names, staff, non_productive, nil_impact):
        if not n:
            continue
        uda = taxonomy.uda_of(sds)
        np_by_uda[uda].append(np_count / n)
        nil_by_uda[uda].append(nil_count / n)
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


def measured_shares(scores: ScoreTable) -> MeasuredStats:
    """Shares of non-productives, nil impact, and top-20% impact concentration; all 0 when empty."""
    n = len(scores)
    if n == 0:
        return MeasuredStats(0.0, 0.0, 0.0, 0)
    non_productive = int(np.count_nonzero(scores.non_productive)) / n
    nil_impact = int(np.count_nonzero(scores.nil_impact)) / n
    return MeasuredStats(non_productive, nil_impact, top20_impact_share(scores.ss.tolist()), n)


@dataclass
class ScoredCorpus:
    """Everything the downstream analyses need from a scored corpus.

    It holds the corpus's taxonomy, not the corpus, so a caller that drops
    the corpus after scoring frees its publications.
    """

    taxonomy: Taxonomy
    active_sds: set[str]
    scores: ScoreTable = field(repr=False)


def score_corpus(corpus: Corpus, scheme: CreditScheme | None = None) -> ScoredCorpus:
    """Full indicator pipeline: baselines, activity filter, SS, percentiles.

    Baselines use every publication in the corpus; scores are then restricted
    to researchers in active SDSs before percentiles are assigned. The
    table's rows are the kept rows of `corpus.researchers`.
    """
    active = active_sds_filter(corpus)
    ss, non_productive = researcher_ss(corpus, compute_baselines(corpus), scheme or CreditScheme())
    res = corpus.researchers
    keep = np.array([sds in active for sds in res.sds_names], dtype=bool)[res.sds]
    return ScoredCorpus(corpus.taxonomy, active, score_table(res.rows(keep), ss[keep], non_productive[keep]))
