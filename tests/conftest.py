"""Shared builders for small hand-crafted corpora."""

from __future__ import annotations

import pytest

from meritrank.corpus import AuthorSlot, Corpus, Publication, Publications, Researcher, Taxonomy

DEFAULT_WINDOW = (2004, 2008)


def make_taxonomy(
    sds_to_uda: dict[str, str] | None = None,
    life_science_udas: tuple[str, ...] = ("LIFE",),
) -> Taxonomy:
    mapping = sds_to_uda or {"S1": "X", "S2": "X", "S3": "LIFE"}
    names = {uda: f"Area {uda}" for uda in set(mapping.values())}
    return Taxonomy(mapping, names, frozenset(life_science_udas))


def make_slot(position: int, rid: str | None = None, intramural: bool = True) -> AuthorSlot:
    return AuthorSlot(position, intramural, rid)


def make_pub(
    pid: str,
    authors,
    year: int = 2005,
    citations: int = 0,
    categories=("C1",),
    doc_type: str = "article",
) -> Publication:
    slots = tuple(
        a if isinstance(a, AuthorSlot) else make_slot(i + 1, a)
        for i, a in enumerate(authors)
    )
    return Publication(pid, year, doc_type, citations, tuple(categories), slots)


def make_corpus(
    researchers,
    publications=(),
    taxonomy: Taxonomy | None = None,
    window=DEFAULT_WINDOW,
) -> Corpus:
    """researchers: iterable of (id, university_id, sds, years_in_post)."""
    taxonomy = taxonomy or make_taxonomy()
    res = {rid: Researcher(rid, univ, sds, years) for rid, univ, sds, years in researchers}
    universities = {r.university_id: f"University {r.university_id}" for r in res.values()}
    corpus = Corpus(Publications.from_records(publications), res, universities, taxonomy, tuple(window))
    corpus.validate()
    return corpus


def solo_corpus(entries, taxonomy: Taxonomy | None = None, category: str = "C1", year: int = 2005):
    """One researcher per entry with at most one solo publication.

    entries: iterable of (rid, university_id, sds, citations-or-None); None
    means non-productive. Within one stratum SS order follows citations, so
    tests can steer every ranking through integer citation counts.
    """
    researchers = []
    pubs = []
    for rid, univ, sds, citations in entries:
        researchers.append((rid, univ, sds, 5))
        if citations is not None:
            pubs.append(
                make_pub(f"P-{rid}", [rid], year=year, citations=citations, categories=(category,))
            )
    return make_corpus(researchers, pubs, taxonomy=taxonomy)


def scores_with_ss(groups, taxonomy: Taxonomy | None = None):
    """Researcher scores with hand-picked SS values.

    groups: mapping (university, sds) -> list of ss values. Researchers are
    created non-productive and their ss overridden, so tests control the
    exact score distribution of every unit.
    """
    from meritrank.indicators import researcher_ss
    from meritrank.normalization import CreditScheme

    entries = []
    values = {}
    for (univ, sds), ss_list in groups.items():
        for i, ss in enumerate(ss_list):
            rid = f"{univ}-{sds}-{i:02d}"
            entries.append((rid, univ, sds, None))
            values[rid] = float(ss)
    taxonomy = taxonomy or make_taxonomy({sds: "X" for _, sds in groups})
    corpus = solo_corpus(entries, taxonomy=taxonomy)
    scores = researcher_ss(corpus, {}, CreditScheme())
    for rid, ss in values.items():
        scores[rid].ss = ss
        scores[rid].nil_impact = ss == 0.0
    return corpus, scores


@pytest.fixture
def tiny_taxonomy() -> Taxonomy:
    return make_taxonomy()
