"""Loading, validation, and the activity filter."""

import json
import logging

import numpy as np
import pytest

from meritrank.corpus import (
    AuthorSlot,
    Corpus,
    Publication,
    Researcher,
    active_sds_filter,
    load_corpus,
)
from meritrank.errors import ValidationError

from conftest import DEFAULT_WINDOW, make_corpus, make_pub, make_taxonomy, solo_corpus

VALID_TAXONOMY = "sds,uda,uda_name,life_science\nS1,X,Area X,0\nS2,X,Area X,0\nS3,LIFE,Life area,1\n"

VALID_RESEARCHERS = (
    "id,university_id,university_name,sds,years_in_post\n"
    "R1,U1,Uni One,S1,5\n"
    "R2,U1,Uni One,S1,3\n"
)

VALID_PUBLICATION = {
    "id": "P1",
    "year": 2005,
    "type": "article",
    "citations": 4,
    "categories": ["C1"],
    "authors": [
        {"researcher_id": "R1", "position": 1, "intramural": True},
        {"researcher_id": None, "position": 2, "intramural": False},
    ],
}


def write_files(tmp_path, pubs=None, researchers=VALID_RESEARCHERS, taxonomy=VALID_TAXONOMY):
    pub_path = tmp_path / "publications.jsonl"
    lines = [json.dumps(p) for p in (pubs if pubs is not None else [VALID_PUBLICATION])]
    pub_path.write_text("\n".join(lines) + "\n" if lines else "")
    res_path = tmp_path / "researchers.csv"
    res_path.write_text(researchers)
    tax_path = tmp_path / "taxonomy.csv"
    tax_path.write_text(taxonomy)
    return pub_path, res_path, tax_path


class TestLoadCorpus:
    def test_valid_fixture(self, tmp_path):
        corpus = load_corpus(*write_files(tmp_path))
        assert len(corpus.researchers) == 2
        assert len(corpus.publications) == 1
        assert corpus.universities == {"U1": "Uni One"}
        assert corpus.taxonomy.uda_of("S3") == "LIFE"
        assert corpus.taxonomy.is_life_science("S3")
        assert not corpus.taxonomy.is_life_science("S1")

    def test_missing_file_is_io_error(self, tmp_path):
        pub, res, tax = write_files(tmp_path)
        tax.unlink()
        with pytest.raises(FileNotFoundError) as err:
            load_corpus(pub, res, tax)
        assert "taxonomy.csv" in str(err.value)

    def test_dangling_researcher_reference(self, tmp_path):
        pub = dict(VALID_PUBLICATION)
        pub["authors"] = [{"researcher_id": "GHOST", "position": 1, "intramural": True}]
        with pytest.raises(ValidationError, match="publications.jsonl line 1: .*GHOST"):
            load_corpus(*write_files(tmp_path, pubs=[pub]))

    def test_duplicate_author_position(self, tmp_path):
        pub = dict(VALID_PUBLICATION)
        pub["authors"] = [
            {"researcher_id": "R1", "position": 1, "intramural": True},
            {"researcher_id": "R2", "position": 1, "intramural": True},
            {"researcher_id": None, "position": 2, "intramural": False},
        ]
        with pytest.raises(ValidationError, match="positions"):
            load_corpus(*write_files(tmp_path, pubs=[pub]))

    def test_duplicate_publication_id(self, tmp_path):
        with pytest.raises(ValidationError, match="duplicate publication id"):
            load_corpus(*write_files(tmp_path, pubs=[VALID_PUBLICATION, VALID_PUBLICATION]))

    def test_year_outside_window_rejected(self, tmp_path):
        pub = dict(VALID_PUBLICATION, year=2003)
        with pytest.raises(ValidationError, match="2003"):
            load_corpus(*write_files(tmp_path, pubs=[pub]))

    def test_unknown_doc_type(self, tmp_path):
        pub = dict(VALID_PUBLICATION, type="preprint")
        with pytest.raises(ValidationError, match="preprint"):
            load_corpus(*write_files(tmp_path, pubs=[pub]))

    def test_negative_citations(self, tmp_path):
        pub = dict(VALID_PUBLICATION, citations=-1)
        with pytest.raises(ValidationError, match="citations"):
            load_corpus(*write_files(tmp_path, pubs=[pub]))

    def test_empty_categories(self, tmp_path):
        pub = dict(VALID_PUBLICATION, categories=[])
        with pytest.raises(ValidationError, match="categories"):
            load_corpus(*write_files(tmp_path, pubs=[pub]))

    def test_invalid_json_names_line(self, tmp_path):
        paths = write_files(tmp_path)
        paths[0].write_text(json.dumps(VALID_PUBLICATION) + "\n{broken\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_corpus(*paths)

    def test_non_object_line_rejected(self, tmp_path):
        paths = write_files(tmp_path)
        paths[0].write_text(json.dumps(VALID_PUBLICATION) + "\n[1, 2]\n")
        with pytest.raises(ValidationError, match="publications.jsonl line 2: expected a JSON object"):
            load_corpus(*paths)

    def test_sds_missing_from_taxonomy(self, tmp_path):
        researchers = VALID_RESEARCHERS + "R3,U1,Uni One,S9,5\n"
        with pytest.raises(ValidationError, match="S9"):
            load_corpus(*write_files(tmp_path, researchers=researchers))

    def test_duplicate_researcher_id(self, tmp_path):
        researchers = VALID_RESEARCHERS + "R1,U1,Uni One,S1,5\n"
        with pytest.raises(ValidationError, match="duplicate researcher id"):
            load_corpus(*write_files(tmp_path, researchers=researchers))

    def test_wrong_researcher_header(self, tmp_path):
        researchers = "id,university,name,sds,years\nR1,U1,Uni One,S1,5\n"
        with pytest.raises(ValidationError, match="expected header"):
            load_corpus(*write_files(tmp_path, researchers=researchers))

    def test_years_in_post_below_one(self, tmp_path):
        researchers = VALID_RESEARCHERS.replace("R2,U1,Uni One,S1,3", "R2,U1,Uni One,S1,0")
        with pytest.raises(ValidationError, match="years_in_post"):
            load_corpus(*write_files(tmp_path, researchers=researchers))

    def test_years_in_post_capped_with_warning(self, tmp_path, caplog):
        researchers = VALID_RESEARCHERS.replace("R2,U1,Uni One,S1,3", "R2,U1,Uni One,S1,9")
        with caplog.at_level(logging.WARNING):
            corpus = load_corpus(*write_files(tmp_path, researchers=researchers))
        assert corpus.researchers["R2"].years_in_post == 5
        assert any("capped" in record.message for record in caplog.records)

    def test_conflicting_university_names(self, tmp_path):
        researchers = (
            "id,university_id,university_name,sds,years_in_post\n"
            "R1,U1,Uni One,S1,5\n"
            "R2,U1,Other Name,S1,3\n"
        )
        with pytest.raises(ValidationError, match="conflicting names"):
            load_corpus(*write_files(tmp_path, researchers=researchers))

    def test_duplicate_sds_in_taxonomy(self, tmp_path):
        taxonomy = VALID_TAXONOMY + "S1,LIFE,Life area,1\n"
        with pytest.raises(ValidationError, match="more than one UDA"):
            load_corpus(*write_files(tmp_path, taxonomy=taxonomy))

    def test_bad_life_science_flag(self, tmp_path):
        taxonomy = VALID_TAXONOMY.replace("S3,LIFE,Life area,1", "S3,LIFE,Life area,yes")
        with pytest.raises(ValidationError, match="life_science"):
            load_corpus(*write_files(tmp_path, taxonomy=taxonomy))


def _broken(**fields):
    return dict(VALID_PUBLICATION, **fields)


def _slot(researcher_id, position):
    return {"researcher_id": researcher_id, "position": position, "intramural": True}


# One row per rule that the file loaders and `Corpus.validate` share:
# publications, an extra researchers.csv row, the file and line the loader
# names, the record `validate` names, and the start of the shared message.
SHARED_RULES = [
    pytest.param(
        [VALID_PUBLICATION, VALID_PUBLICATION], None,
        "publications.jsonl line 2", "publication 'P1'", "duplicate publication id 'P1'",
        id="duplicate-publication-id",
    ),
    pytest.param(
        [_broken(year=2009)], None,
        "publications.jsonl line 1", "publication 'P1'", "year 2009 outside the observation window",
        id="year-outside-window",
    ),
    pytest.param(
        [_broken(type="preprint")], None,
        "publications.jsonl line 1", "publication 'P1'", "document type 'preprint'",
        id="document-type",
    ),
    pytest.param(
        [_broken(citations=-3)], None,
        "publications.jsonl line 1", "publication 'P1'", "citations must be >= 0, got -3",
        id="negative-citations",
    ),
    pytest.param(
        [_broken(categories=[])], None,
        "publications.jsonl line 1", "publication 'P1'", "categories must not be empty",
        id="empty-categories",
    ),
    pytest.param(
        [_broken(authors=[])], None,
        "publications.jsonl line 1", "publication 'P1'", "authors must not be empty",
        id="empty-authors",
    ),
    pytest.param(
        [_broken(authors=[_slot("R1", 1), _slot(None, 3)])], None,
        "publications.jsonl line 1", "publication 'P1'", r"author positions \[1, 3\] must be exactly 1\.\.2",
        id="author-positions",
    ),
    pytest.param(
        [_broken(authors=[_slot("GHOST", 1)])], None,
        "publications.jsonl line 1", "publication 'P1'", "author position 1 references unknown researcher 'GHOST'",
        id="unknown-author",
    ),
    pytest.param(
        [VALID_PUBLICATION], "R3,U1,Uni One,S9,5",
        "researchers.csv line 4", "researcher 'R3'", "SDS 'S9' is absent from the taxonomy",
        id="sds-outside-taxonomy",
    ),
    pytest.param(
        [VALID_PUBLICATION], "R3,U1,Uni One,S1,0",
        "researchers.csv line 4", "researcher 'R3'", r"years_in_post 0 outside \[1, 5\]",
        id="years-in-post-below-one",
    ),
]


def _in_memory(pubs, extra_researcher):
    """The corpus that `load_corpus` would build from the same records, without its checks."""
    rows = VALID_RESEARCHERS.splitlines()[1:] + ([extra_researcher] if extra_researcher else [])
    researchers = {}
    for row in rows:
        rid, uid, _, sds, years = row.split(",")
        researchers[rid] = Researcher(rid, uid, sds, int(years))
    publications = tuple(
        Publication(
            p["id"], p["year"], p["type"], p["citations"], tuple(p["categories"]),
            tuple(AuthorSlot(a["position"], a["intramural"], a["researcher_id"]) for a in p["authors"]),
        )
        for p in pubs
    )
    taxonomy = make_taxonomy({"S1": "X", "S2": "X", "S3": "LIFE"})
    return Corpus(publications, researchers, {"U1": "Uni One"}, taxonomy, DEFAULT_WINDOW)


class TestSharedRules:
    """Loaded and in-memory corpora are rejected by the same rule, with their own context."""

    @pytest.mark.parametrize("pubs, extra_researcher, line, record, message", SHARED_RULES)
    def test_loader_names_file_and_line(self, tmp_path, pubs, extra_researcher, line, record, message):
        researchers = VALID_RESEARCHERS + (extra_researcher + "\n" if extra_researcher else "")
        with pytest.raises(ValidationError, match=f"{line}: {message}"):
            load_corpus(*write_files(tmp_path, pubs=pubs, researchers=researchers))

    @pytest.mark.parametrize("pubs, extra_researcher, line, record, message", SHARED_RULES)
    def test_validate_names_record(self, pubs, extra_researcher, line, record, message):
        with pytest.raises(ValidationError, match=f"^{record}: {message}"):
            _in_memory(pubs, extra_researcher).validate()

    def test_valid_records_pass_both_paths(self, tmp_path):
        load_corpus(*write_files(tmp_path))
        _in_memory([VALID_PUBLICATION], None).validate()

    def test_validate_rejects_unknown_university(self):
        corpus = _in_memory([VALID_PUBLICATION], "R3,U9,Uni Nine,S1,5")
        with pytest.raises(ValidationError, match="researcher 'R3': unknown university 'U9'"):
            corpus.validate()

    def test_validate_rejects_years_beyond_window_that_the_loader_caps(self):
        with pytest.raises(ValidationError, match=r"years_in_post 9 outside \[1, 5\]"):
            _in_memory([VALID_PUBLICATION], "R3,U1,Uni One,S1,9").validate()


class TestActiveSdsFilter:
    def _corpus_with_shares(self, publishing, total, sds="S1"):
        entries = []
        for i in range(total):
            citations = 1 if i < publishing else None
            entries.append((f"R{i}", "U1", sds, citations))
        return solo_corpus(entries)

    def test_boundary_half_is_included(self):
        corpus = self._corpus_with_shares(4, 8)
        assert active_sds_filter(corpus) == {"S1"}

    def test_below_half_is_excluded(self):
        corpus = self._corpus_with_shares(3, 8)
        assert active_sds_filter(corpus) == set()

    def test_monotone_in_added_publications(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            entries = []
            for i in range(12):
                sds = f"S{int(rng.integers(1, 4))}"
                citations = int(rng.integers(0, 3)) if rng.random() < 0.5 else None
                entries.append((f"R{i}", "U1", sds, citations))
            corpus = solo_corpus(entries)
            before = active_sds_filter(corpus)
            # Hand one previously non-productive researcher a publication.
            authors = {slot.researcher_id for pub in corpus.publications for slot in pub.authors}
            idle = [rid for rid in corpus.researchers if rid not in authors]
            if not idle:
                continue
            rid = idle[0]
            extra = make_pub("P-extra", [rid], citations=1)
            grown = make_corpus(
                [(r.id, r.university_id, r.sds, r.years_in_post) for r in corpus.researchers.values()],
                corpus.publications + (extra,),
                taxonomy=corpus.taxonomy,
            )
            after = active_sds_filter(grown)
            assert before <= after
