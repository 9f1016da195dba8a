"""Loading, validation, and the activity filter."""

import json
import logging

import numpy as np
import pytest

from meritrank.corpus import active_sds_filter, load_corpus
from meritrank.errors import ValidationError

from conftest import make_corpus, make_pub, make_slot, solo_corpus

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
            idle = [rid for rid in corpus.researchers if rid not in corpus.slots_by_researcher]
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
