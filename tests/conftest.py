"""Shared builders for small hand-crafted corpora."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from meritrank.corpus import AuthorSlot, Corpus, Publication, Publications, Researchers, Taxonomy
from meritrank.normalization import CreditScheme, slot_credit_shares

DEFAULT_WINDOW = (2004, 2008)

# Names that JSON must escape: quotes, backslashes, control and non-ASCII characters.
NAMES = st.text(
    st.characters(exclude_categories=("Cs",)) | st.sampled_from('"\\/\x00\x1f\x7f\n\r\u2028é😀'),
    min_size=1,
    max_size=6,
)


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


def credit_by_position(pub: Publication, scheme: CreditScheme, is_life_science: bool) -> dict[int, float]:
    """`slot_credit_shares` of the one publication `pub`, every slot flagged `is_life_science`, by position."""
    pubs = Publications.from_records([pub])
    shares = slot_credit_shares(pubs, scheme, np.full(len(pub.authors), is_life_science))
    return dict(zip(pubs.slot_position.tolist(), shares.tolist()))


def make_researchers(rows) -> Researchers:
    """The table of researchers given as (id, university_id, sds, years_in_post) rows."""
    columns = [list(column) for column in zip(*rows)] or [[], [], [], []]
    return Researchers.from_columns(*columns)


def make_corpus(
    researchers,
    publications=(),
    taxonomy: Taxonomy | None = None,
    window=DEFAULT_WINDOW,
) -> Corpus:
    """researchers: iterable of (id, university_id, sds, years_in_post)."""
    taxonomy = taxonomy or make_taxonomy()
    res = make_researchers(researchers)
    universities = {uid: f"University {uid}" for uid in res.universities}
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
    """A corpus and its score table with hand-picked SS values.

    groups: mapping (university, sds) -> list of ss values. Researchers are
    created non-productive and the table is built with the given SS, so
    tests control the exact score distribution of every unit. Rows are in id
    order, which is each group's values in order.
    """
    from meritrank.indicators import score_table

    entries = []
    values = {}
    for (univ, sds), ss_list in groups.items():
        for i, ss in enumerate(ss_list):
            entries.append((f"{univ}-{sds}-{i:02d}", univ, sds, None))
            values[entries[-1][0]] = float(ss)
    taxonomy = taxonomy or make_taxonomy({sds: "X" for _, sds in groups})
    corpus = solo_corpus(entries, taxonomy=taxonomy)
    ids = corpus.researchers.ids
    return corpus, score_table(corpus.researchers, [values[rid] for rid in ids], [True] * len(ids))


def table_rows(scores) -> dict[str, dict]:
    """Each row of a score table as a dict of its values, keyed by researcher id."""
    return {
        rid: {
            "university_id": scores.universities[scores.university[i]],
            "sds": scores.sds_names[scores.sds[i]],
            "ss": float(scores.ss[i]),
            "percentile": float(scores.percentile[i]),
            "non_productive": bool(scores.non_productive[i]),
            "nil_impact": bool(scores.nil_impact[i]),
        }
        for i, rid in enumerate(scores.ids)
    }


def table_columns(table) -> dict:
    """A researchers or score table's fields, numpy columns as lists, to compare two tables."""
    return {name: value.tolist() if hasattr(value, "tolist") else value for name, value in vars(table).items()}


def selected_ids(scores, selection) -> list[str]:
    """The researcher ids a top selection's mask picks, in row order."""
    return [rid for rid, picked in zip(scores.ids, selection.selected.tolist()) if picked]


@pytest.fixture
def tiny_taxonomy() -> Taxonomy:
    return make_taxonomy()
