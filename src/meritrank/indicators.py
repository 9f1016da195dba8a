"""Per-researcher Scientific Strength, field percentiles, and productivity shares."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Sequence

import numpy as np

from .corpus import Corpus, Researcher, active_sds_filter
from .normalization import (
    Baselines,
    CreditScheme,
    compute_baselines,
    slot_credit_shares,
    standardized_citations,
)
from .stats import average_ranks, ordered_sum, top20_impact_share


# The columns of a ScoreTable that hold one value per row.
_ROW_COLUMNS = ("university", "sds", "ss", "percentile", "non_productive", "nil_impact")


@dataclass(frozen=True)
class ScoreTable:
    """The scored researchers as read-only columns, one row per researcher.

    `university` and `sds` are codes into the sorted name lists `universities`
    and `sds_names`, so ordering by code is ordering by name. A table taken
    with `rows` keeps the lists, so a name may have no row there.
    """

    researcher_ids: tuple[str, ...]
    universities: tuple[str, ...]
    university: np.ndarray
    sds_names: tuple[str, ...]
    sds: np.ndarray
    ss: np.ndarray
    percentile: np.ndarray
    non_productive: np.ndarray
    nil_impact: np.ndarray

    def __post_init__(self):
        for name in _ROW_COLUMNS:
            getattr(self, name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.researcher_ids)

    def rows(self, mask: np.ndarray) -> ScoreTable:
        """The rows where `mask` is set, in row order, over the same name lists."""
        ids = tuple(compress(self.researcher_ids, mask.tolist()))
        return replace(self, researcher_ids=ids, **{name: getattr(self, name)[mask] for name in _ROW_COLUMNS})

    def id_order(self) -> np.ndarray:
        """The row order that sorts the table by researcher id."""
        ids = self.researcher_ids
        return np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)

    def unit_codes(self) -> np.ndarray:
        """Each row's (university, SDS) unit as one code, in (university, SDS) name order."""
        return self.university * len(self.sds_names) + self.sds


def group_rows(codes: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """The rows holding each code 0..n_groups-1, each group in row order."""
    order = np.argsort(codes, kind="stable")
    return np.split(order, np.cumsum(np.bincount(codes, minlength=n_groups))[:-1])


def researcher_ss(corpus: Corpus, baselines: Baselines, scheme: CreditScheme) -> tuple[np.ndarray, np.ndarray]:
    """Standardized, author-fractionalized, per-year impact of every researcher.

    ss = sum over the researcher's publications of standardized citations
    times their author-credit share, divided by years in post. Positional
    credit applies when the researcher's field is a life-science area.
    Each total receives its terms in publication order, then slot order, so
    it equals the per-record sum of `standardize` times `credit_shares`.
    Returns the columns (ss, non_productive) in `corpus.researchers` order;
    non-productive means holding no author slot.
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
    return ss, np.bincount(holders, minlength=len(researchers)) == 0


def percentile_ranks(sds: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """Percentile of each score within its SDS code: 100 for the top score, 0 for the bottom.

    percentile = 100 * (r - 1) / (n - 1) with r the ascending rank averaged
    over exact-equality ties (`stats.average_ranks`); a singleton group
    scores 100.
    """
    n = np.bincount(sds)[sds]
    return np.divide(100.0 * (average_ranks(ss, sds) - 1), n - 1, out=np.full(len(ss), 100.0), where=n > 1)


def _codes(names: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct names, and each name's index among them."""
    distinct = sorted(set(names))
    index = {name: i for i, name in enumerate(distinct)}
    return tuple(distinct), np.array([index[name] for name in names], dtype=np.int64)


def score_table(researchers: Sequence[Researcher], ss, non_productive) -> ScoreTable:
    """The table of `researchers` with their SS and non-productive flags, row for row,
    adding the SDS percentiles and the nil-impact flags (SS exactly 0)."""
    ss = np.array(ss, dtype=float)
    universities, university = _codes([r.university_id for r in researchers])
    sds_names, sds = _codes([r.sds for r in researchers])
    return ScoreTable(
        tuple(r.id for r in researchers), universities, university, sds_names, sds,
        ss, percentile_ranks(sds, ss), np.array(non_productive, dtype=bool), ss == 0.0,
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
    """Corpus plus everything the downstream analyses need from indicators."""

    corpus: Corpus
    active_sds: set[str]
    scores: ScoreTable = field(repr=False)


def score_corpus(corpus: Corpus, scheme: CreditScheme | None = None) -> ScoredCorpus:
    """Full indicator pipeline: baselines, activity filter, SS, percentiles.

    Baselines use every publication in the corpus; scores are then restricted
    to researchers in active SDSs before percentiles are assigned. The
    table's rows keep the order of `corpus.researchers`.
    """
    active = active_sds_filter(corpus)
    ss, non_productive = researcher_ss(corpus, compute_baselines(corpus), scheme or CreditScheme())
    keep = np.array([r.sds in active for r in corpus.researchers.values()], dtype=bool)
    researchers = list(compress(corpus.researchers.values(), keep.tolist()))
    return ScoredCorpus(corpus, active, score_table(researchers, ss[keep], non_productive[keep]))
