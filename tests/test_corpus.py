"""Loading, validation, canonical order, and the activity filter."""

import json
import logging
import random
import re
import tempfile
from dataclasses import replace
from itertools import pairwise
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meritrank.corpus import (
    CITATION_LIMIT,
    DOC_TYPES,
    PUBLICATIONS_PER_BLOCK,
    AuthorSlot,
    Corpus,
    Publication,
    Publications,
    _increasing,
    active_sds_filter,
    load_corpus,
    load_publications,
    publications_problem,
)
from meritrank.cli import dispatch
from meritrank.errors import ValidationError
from meritrank.synth import GeneratorProfile, generate, write_corpus, write_publications

from conftest import (
    DEFAULT_WINDOW, NAMES, ODD_IDS, make_corpus, make_pub, make_researchers, make_taxonomy, solo_corpus, table_columns,
)

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
        assert (corpus.researchers.universities, corpus.researchers.university_names) == (("U1",), ("Uni One",))
        assert corpus.taxonomy.uda_of("S3") == "LIFE"
        assert corpus.taxonomy.is_life_science("S3")
        assert not corpus.taxonomy.is_life_science("S1")

    def test_researcher_columns_are_read_only_int64(self, tmp_path):
        researchers = VALID_RESEARCHERS + "R3,U2,Uni Two,S2,5\nR4,U1,Uni One,S2,4\nR5,U2,Uni Two,S1,2\n"
        res = load_corpus(*write_files(tmp_path, researchers=researchers)).researchers
        assert (res.universities, res.sds_names) == (("U1", "U2"), ("S1", "S2"))
        for column in (res.university, res.sds, res.years_in_post):
            assert column.dtype == np.int64 and not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

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
        with pytest.raises(ValidationError, match="researchers.csv line 4: duplicate researcher id 'R1'"):
            load_corpus(*write_files(tmp_path, researchers=researchers))

    @pytest.mark.parametrize(
        "researchers, taxonomy, message",
        [
            (VALID_RESEARCHERS + "\n\nR1,U1,Uni One,S1,5\n", VALID_TAXONOMY, "researchers.csv line 6: duplicate"),
            (VALID_RESEARCHERS, "\n" + VALID_TAXONOMY + "\nS4,Y,Area Y\n", "taxonomy.csv line 7: expected 4 fields"),
        ],
        ids=["researchers", "taxonomy"],
    )
    def test_csv_blank_lines_keep_the_line_numbers(self, tmp_path, researchers, taxonomy, message):
        with pytest.raises(ValidationError, match=message):
            load_corpus(*write_files(tmp_path, researchers=researchers, taxonomy=taxonomy))

    @pytest.mark.parametrize(
        "researchers, taxonomy, file, message",
        [
            (VALID_RESEARCHERS, VALID_TAXONOMY + "S4,X,Area X,1\n", "taxonomy.csv",
             " line 5: conflicting life_science flags within UDA 'X'"),
            (VALID_RESEARCHERS, "sds,uda,uda_name,life_science\n", "taxonomy.csv", ": no taxonomy rows"),
            (VALID_RESEARCHERS + "R3,,Uni One,S1,5\n", VALID_TAXONOMY, "researchers.csv",
             " line 4: empty university_id"),
            ("id,university_id,university_name,sds,years_in_post\n", VALID_TAXONOMY, "researchers.csv",
             ": no researcher rows"),
        ],
        ids=["life-science-flags", "no-taxonomy-rows", "empty-university-id", "no-researcher-rows"],
    )
    def test_rejected_csv_is_named_with_its_rule(self, tmp_path, researchers, taxonomy, file, message):
        with pytest.raises(ValidationError) as err:
            load_corpus(*write_files(tmp_path, researchers=researchers, taxonomy=taxonomy))
        assert str(err.value) == f"{tmp_path / file}{message}"

    def test_wrong_researcher_header(self, tmp_path):
        researchers = "id,university,name,sds,years\nR1,U1,Uni One,S1,5\n"
        with pytest.raises(ValidationError, match="expected header"):
            load_corpus(*write_files(tmp_path, researchers=researchers))

    def test_years_in_post_below_one(self, tmp_path):
        researchers = VALID_RESEARCHERS.replace("R2,U1,Uni One,S1,3", "R2,U1,Uni One,S1,0")
        with pytest.raises(ValidationError, match="years_in_post"):
            load_corpus(*write_files(tmp_path, researchers=researchers))

    @pytest.mark.parametrize("years", [" 3", "+3", "1_0", "\u0663", "3.0", ""])
    def test_years_in_post_must_be_decimal_digits(self, tmp_path, years):
        researchers = VALID_RESEARCHERS.replace("R2,U1,Uni One,S1,3", f"R2,U1,Uni One,S1,{years}")
        message = f"researchers.csv line 3: field 'years_in_post': not an integer: {years!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_corpus(*write_files(tmp_path, researchers=researchers))

    def test_years_in_post_capped_with_warning(self, tmp_path, caplog):
        researchers = VALID_RESEARCHERS.replace("R2,U1,Uni One,S1,3", "R2,U1,Uni One,S1,9")
        with caplog.at_level(logging.WARNING):
            corpus = load_corpus(*write_files(tmp_path, researchers=researchers))
        assert corpus.researchers.years_in_post[corpus.researchers.ids.index("R2")] == 5
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

    @pytest.mark.parametrize("uda", ["B/x", "x/../../..", "..", ".", "B\\x", "B\0x"])
    def test_uda_code_that_cannot_name_a_file_rejected(self, tmp_path, uda):
        taxonomy = VALID_TAXONOMY.replace("S3,LIFE,Life area,1", f"S3,{uda},Life area,1")
        with pytest.raises(ValidationError, match=f"taxonomy.csv line 4: UDA code {re.escape(repr(uda))} cannot name"):
            load_corpus(*write_files(tmp_path, taxonomy=taxonomy))

    def test_sds_code_with_a_slash_loads(self, tmp_path):
        taxonomy = VALID_TAXONOMY + "FIS/01,PHYS,Physics,0\n"
        researchers = VALID_RESEARCHERS + "R3,U1,Uni One,FIS/01,5\n"
        corpus = load_corpus(*write_files(tmp_path, researchers=researchers, taxonomy=taxonomy))
        res = corpus.researchers
        assert res.sds_names[res.sds[res.ids.index("R3")]] == "FIS/01"
        assert corpus.taxonomy.uda_of("FIS/01") == "PHYS"


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
        [_broken(citations=CITATION_LIMIT + 1)], None,
        "publications.jsonl line 1", "publication 'P1'", f"citations must be <= {CITATION_LIMIT}, got {CITATION_LIMIT + 1}",
        id="citations-above-limit",
    ),
    pytest.param(
        [_broken(categories=[])], None,
        "publications.jsonl line 1", "publication 'P1'", "categories must not be empty",
        id="empty-categories",
    ),
    pytest.param(
        [_broken(categories=["C1", "C2", "C1"])], None,
        "publications.jsonl line 1", "publication 'P1'", "categories must be distinct, 'C1' is repeated",
        id="repeated-category",
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
    researchers = make_researchers(
        (rid, uid, sds, int(years)) for rid, uid, _, sds, years in (row.split(",") for row in rows)
    )
    publications = Publications.from_records(
        Publication(
            p["id"], p["year"], p["type"], p["citations"], tuple(p["categories"]),
            tuple(AuthorSlot(a["position"], a["intramural"], a["researcher_id"]) for a in p["authors"]),
        )
        for p in pubs
    )
    taxonomy = make_taxonomy({"S1": "X", "S2": "X", "S3": "LIFE"})
    return Corpus(publications, researchers, taxonomy, DEFAULT_WINDOW)


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

    def test_loader_rejects_citations_beyond_int64(self, tmp_path):
        with pytest.raises(ValidationError, match=f"publications.jsonl line 1: citations must be <= {CITATION_LIMIT}"):
            load_corpus(*write_files(tmp_path, pubs=[_broken(citations=2**64)]))

    def test_researchers_table_rejects_an_id_given_twice(self):
        # Two rows of one id hold a single code, so the unknown author GHOST would get R2's row as its code.
        with pytest.raises(ValidationError, match="^duplicate researcher id 'R1'$"):
            make_corpus(
                [("R1", "U1", "S1", 5), ("R1", "U1", "S2", 3), ("R2", "U1", "S1", 4)],
                [make_pub("P1", ["R1", "GHOST"], citations=3)],
            )

    def test_validate_rejects_years_beyond_window_that_the_loader_caps(self):
        with pytest.raises(ValidationError, match=r"years_in_post 9 outside \[1, 5\]"):
            _in_memory([VALID_PUBLICATION], "R3,U1,Uni One,S1,9").validate()

    def test_validate_rejects_an_empty_window_before_any_record(self):
        profile = GeneratorProfile(n_universities=2, sds_per_uda={"A": 1}, life_science_udas=(), seed=1)
        corpus = replace(generate(profile), window=(2008, 2004))
        with pytest.raises(ValidationError, match=r"^empty window \(2008, 2004\)"):
            corpus.validate()

    def test_validate_rejects_a_uda_code_that_cannot_name_a_file(self):
        corpus = _in_memory([VALID_PUBLICATION], None)
        taxonomy = make_taxonomy({"S1": "X", "S2": "X", "S3": "x/../.."})
        with pytest.raises(ValidationError, match=r"^taxonomy: UDA code 'x/\.\./\.\.' cannot name"):
            replace(corpus, taxonomy=taxonomy).validate()


class TestFirstBadLine:
    """The loader type-checks each line as it reads it and checks the rules over the whole table once,
    yet it reports the first bad line, and the same record as `Corpus.validate`."""

    VALID = json.dumps(VALID_PUBLICATION)
    RULE_BROKEN = json.dumps(_broken(id="P2", year=2009))
    UNREADABLE = [
        pytest.param("{not json", "invalid JSON", id="bad-json"),
        pytest.param(json.dumps(_broken(id="P3", year="2005")), "field 'year': expected int", id="wrong-type"),
    ]

    def _load(self, tmp_path, lines):
        pub_path, res_path, tax_path = write_files(tmp_path)
        pub_path.write_text("\n".join(lines) + "\n")
        return load_corpus(pub_path, res_path, tax_path)

    @pytest.mark.parametrize("unreadable, message", UNREADABLE)
    def test_rule_broken_on_an_earlier_line_wins(self, tmp_path, unreadable, message):
        with pytest.raises(ValidationError, match="publications.jsonl line 2: year 2009 outside"):
            self._load(tmp_path, [self.VALID, self.RULE_BROKEN, unreadable])

    @pytest.mark.parametrize("unreadable, message", UNREADABLE)
    def test_unreadable_earlier_line_wins(self, tmp_path, unreadable, message):
        with pytest.raises(ValidationError, match=f"publications.jsonl line 2: {message}"):
            self._load(tmp_path, [self.VALID, unreadable, self.RULE_BROKEN])

    def test_mistyped_line_wins_over_a_later_undecodable_line_in_its_block(self, tmp_path):
        mistyped = json.dumps(_broken(id="P2", year="2005"))
        with pytest.raises(ValidationError, match="publications.jsonl line 2: field 'year': expected int, got str$"):
            self._load(tmp_path, [self.VALID, mistyped, "{not json"])

    def test_blank_lines_keep_the_line_numbers(self, tmp_path):
        with pytest.raises(ValidationError, match="publications.jsonl line 4: year 2009 outside"):
            self._load(tmp_path, [self.VALID, "", "  ", self.RULE_BROKEN])

    def test_validate_and_loader_name_the_same_first_record(self, tmp_path):
        # P3 breaks a rule checked before P2's, but P2 comes first.
        pubs = [VALID_PUBLICATION, _broken(id="P2", authors=[_slot("GHOST", 1)]), _broken(id="P3", year=2009)]
        message = "author position 1 references unknown researcher 'GHOST'"
        with pytest.raises(ValidationError, match=f"publications.jsonl line 2: {message}"):
            load_corpus(*write_files(tmp_path, pubs=pubs))
        with pytest.raises(ValidationError, match=f"^publication 'P2': {message}"):
            _in_memory(pubs, None).validate()

    @pytest.mark.parametrize(
        "record, message",
        [
            (_broken(year=2**64), f"year {2**64} outside the observation window"),
            (_broken(citations=-(2**70)), f"citations must be >= 0, got {-(2**70)}"),
            (_broken(authors=[_slot("R1", 2**64)]), rf"author positions \[{2**64}\] must be exactly 1\.\.1"),
        ],
    )
    def test_values_beyond_int64_break_their_rule(self, tmp_path, record, message):
        with pytest.raises(ValidationError, match=f"publications.jsonl line 1: {message}"):
            load_corpus(*write_files(tmp_path, pubs=[record]))
        with pytest.raises(ValidationError, match=f"^publication 'P1': {message}"):
            _in_memory([record], None).validate()


def _author(**values):
    return dict(_slot("R1", 1), **values)


# One bad line per fault the loader reports, with the start of its message: parse and type faults, found as
# the lines are read ...
UNREADABLE_LINES = [
    pytest.param("{not json", "invalid JSON: Expecting property name", id="bad-json"),
    pytest.param(json.dumps(_broken(id="PX")) + " 7", "invalid JSON: Extra data", id="extra-data"),
    pytest.param("[1, 2]", "expected a JSON object", id="not-an-object"),
    pytest.param(
        json.dumps({k: v for k, v in _broken(id="PX").items() if k != "citations"}),
        "missing field 'citations'", id="missing-field",
    ),
    pytest.param(
        json.dumps(_broken(id="PX", year=True)), "field 'year': expected integer, got boolean", id="bool-as-int"
    ),
    pytest.param(
        json.dumps(_broken(id="PX", citations="4")), "field 'citations': expected int, got str", id="string-as-int"
    ),
    pytest.param(
        json.dumps(_broken(id="PX", categories="C1")), "field 'categories': expected list, got str",
        id="categories-not-a-list",
    ),
    pytest.param(
        json.dumps(_broken(id="PX", authors=_author())), "field 'authors': expected list, got dict",
        id="authors-not-a-list",
    ),
    pytest.param(
        json.dumps(_broken(id="PX", categories=["C1", ""])), "field 'categories': entries must be non-empty strings",
        id="empty-category",
    ),
    pytest.param(
        json.dumps(_broken(id="PX", authors=[_author(), "R2"])), "field 'authors': entries must be objects",
        id="author-not-an-object",
    ),
    pytest.param(
        json.dumps(_broken(id="PX", authors=[_author(researcher_id=7)])),
        "field 'researcher_id': expected string or null", id="researcher-id-not-a-string",
    ),
    pytest.param(
        json.dumps(_broken(id="PX", authors=[_author(position=1.0)])), "field 'position': expected int, got float",
        id="float-position",
    ),
    pytest.param(
        json.dumps(_broken(id="PX", authors=[{"researcher_id": "R1", "intramural": True}])),
        "missing field 'position'", id="missing-position",
    ),
    pytest.param(
        json.dumps(_broken(id="PX", authors=[_author(intramural=1)])), "field 'intramural': expected bool, got int",
        id="int-intramural",
    ),
]
# ... and broken rules, checked over the whole table.
RULE_BROKEN_LINES = [
    pytest.param(json.dumps(_broken(id="PX", year=2009)), "year 2009 outside", id="year-outside-window"),
    pytest.param(
        json.dumps(_broken(id="PX", citations=10**30)), f"citations must be <= {CITATION_LIMIT}, got {10**30}",
        id="citations-beyond-int64",
    ),
    pytest.param(json.dumps(_broken(id="PX", year=2**64)), f"year {2**64} outside", id="year-beyond-int64"),
    pytest.param(
        json.dumps(_broken(id="PX", authors=[_author(position=2**64)])), f"author positions [{2**64}] must be",
        id="position-beyond-int64",
    ),
    pytest.param(
        json.dumps(_broken(id="PX", authors=[_author(researcher_id="GHOST")])),
        "author position 1 references unknown researcher 'GHOST'", id="unknown-author",
    ),
]


class TestBlockBoundary:
    """The loader decodes and type-checks its lines a block at a time, yet names every bad line with the
    message it gives for that line alone, wherever the line sits in a block."""

    # A line inside a block: a value beyond int64 there follows values of its block that fit.
    MID_FIRST = PUBLICATIONS_PER_BLOCK // 2
    LAST_OF_FIRST = PUBLICATIONS_PER_BLOCK
    FIRST_OF_SECOND = PUBLICATIONS_PER_BLOCK + 1

    def _error(self, tmp_path, lines) -> str:
        tmp_path.mkdir(exist_ok=True)
        pub_path, res_path, tax_path = write_files(tmp_path)
        pub_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as caught:
            load_corpus(pub_path, res_path, tax_path)
        return str(caught.value)

    def _lines(self, bad: dict[int, str]) -> list[str]:
        """Two full blocks and one more line of valid publications, with line k replaced by `bad[k]`."""
        return [
            bad.get(k, json.dumps(_broken(id=f"P{k}"))) for k in range(1, 2 * PUBLICATIONS_PER_BLOCK + 2)
        ]

    @pytest.mark.parametrize("line_no", [1, MID_FIRST, LAST_OF_FIRST, FIRST_OF_SECOND])
    @pytest.mark.parametrize("bad, message_start", UNREADABLE_LINES + RULE_BROKEN_LINES)
    def test_message_of_a_line_alone(self, tmp_path, bad, message_start, line_no):
        alone = self._error(tmp_path / "alone", [bad])
        prefix = f"{tmp_path / 'alone' / 'publications.jsonl'} line 1: "
        assert alone.startswith(prefix + message_start)
        message = alone[len(prefix):]
        got = self._error(tmp_path / "placed", self._lines({line_no: bad}))
        assert got == f"{tmp_path / 'placed' / 'publications.jsonl'} line {line_no}: {message}"

    @pytest.mark.parametrize("bad, message_start", UNREADABLE_LINES)
    def test_rule_broken_in_the_first_block_beats_a_fault_in_the_second(self, tmp_path, bad, message_start):
        lines = self._lines({2: json.dumps(_broken(id="P2", year=2009)), self.FIRST_OF_SECOND: bad})
        error = self._error(tmp_path, lines)
        assert error.endswith("publications.jsonl line 2: year 2009 outside the observation window 2004-2008")
        assert message_start not in error


# The type layer of a publication line, as the fuzz below expects the loader to read it: each field's JSON type,
# then each author slot key's; a slot's researcher_id is a string or null, or absent.
LINE_KINDS = {"id": str, "year": int, "type": str, "citations": int, "categories": list, "authors": list}
SLOT_KINDS = {"position": int, "intramural": bool}
JSON_VALUES = st.one_of(
    st.text(max_size=3), st.integers(-(2**70), 2**70), st.floats(allow_nan=False), st.booleans(), st.none(),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
NOT_AN_OBJECT = JSON_VALUES.filter(lambda value: not isinstance(value, dict))
SLOTS = st.integers(0, len(VALID_PUBLICATION["authors"]) - 1)
NEW_KEYS = st.text(max_size=3).filter(lambda key: key not in {*LINE_KINDS, *SLOT_KINDS, "researcher_id"})


def _swapped(kind):
    """A JSON value of another type than `kind`: bool for int, int for bool, float for int, or any other."""
    swaps = {int: st.booleans() | st.floats(allow_nan=False), bool: st.integers(-2, 2)}.get(kind, st.nothing())
    return swaps | JSON_VALUES.filter(lambda value: type(value) is not kind)


# One change to a valid line, as (what, where..., value): a field or slot key mistyped, dropped or added, the
# line or a slot not an object, or a category that is empty or no string.
LINE_CHANGES = st.one_of(
    *(st.tuples(st.just("set"), st.just(key), _swapped(kind)) for key, kind in LINE_KINDS.items()),
    *(st.tuples(st.just("set_slot"), SLOTS, st.just(key), _swapped(kind)) for key, kind in SLOT_KINDS.items()),
    st.tuples(
        st.just("set_slot"), SLOTS, st.just("researcher_id"),
        JSON_VALUES.filter(lambda value: value is not None and type(value) is not str),
    ),
    st.tuples(st.just("drop"), st.sampled_from(sorted(LINE_KINDS))),
    st.tuples(st.just("drop_slot"), SLOTS, st.sampled_from([*SLOT_KINDS, "researcher_id"])),
    st.tuples(st.just("add"), NEW_KEYS, JSON_VALUES),
    st.tuples(st.just("add_slot"), SLOTS, NEW_KEYS, JSON_VALUES),
    st.tuples(st.just("line"), NOT_AN_OBJECT),
    st.tuples(st.just("slot"), SLOTS, NOT_AN_OBJECT),
    st.tuples(st.just("category"), st.just("") | JSON_VALUES.filter(lambda value: type(value) is not str)),
)


def _type_message(key: str, kind, value) -> str:
    if kind is int and type(value) is bool:
        return f"field {key!r}: expected integer, got boolean"
    return f"field {key!r}: expected {kind.__name__}, got {type(value).__name__}"


def _changed_line(change: tuple, line_no: int) -> tuple[str, str | None]:
    """Valid line `line_no` with `change` made, and the message the loader gives for it alone, or None when the
    line stays valid."""
    record = _broken(id=f"P{line_no}", authors=[dict(slot) for slot in VALID_PUBLICATION["authors"]])
    message = None
    match change:
        case ("set", key, value):
            record[key] = value
            message = _type_message(key, LINE_KINDS[key], value)
        case ("set_slot", slot, "researcher_id", value):
            record["authors"][slot]["researcher_id"] = value
            message = "field 'researcher_id': expected string or null"
        case ("set_slot", slot, key, value):
            record["authors"][slot][key] = value
            message = _type_message(key, SLOT_KINDS[key], value)
        case ("drop", key):
            del record[key]
            message = f"missing field {key!r}"
        case ("drop_slot", slot, key):
            del record["authors"][slot][key]
            message = None if key == "researcher_id" else f"missing field {key!r}"
        case ("add", key, value):
            record[key] = value
        case ("add_slot", slot, key, value):
            record["authors"][slot][key] = value
        case ("line", value):
            record = value
            message = "expected a JSON object"
        case ("slot", slot, value):
            record["authors"][slot] = value
            message = "field 'authors': entries must be objects"
        case ("category", value):
            record["categories"] = ["C1", value]
            message = "field 'categories': entries must be non-empty strings"
    return json.dumps(record), message


@settings(max_examples=100, deadline=None)
@given(
    n_lines=st.integers(1, 3 * PUBLICATIONS_PER_BLOCK),
    changes=st.dictionaries(st.integers(1, 3 * PUBLICATIONS_PER_BLOCK), LINE_CHANGES, max_size=3),
)
@example(n_lines=1, changes={1: ("set", "year", True)})
@example(n_lines=PUBLICATIONS_PER_BLOCK, changes={PUBLICATIONS_PER_BLOCK: ("set_slot", 1, "intramural", 0)})
@example(n_lines=PUBLICATIONS_PER_BLOCK + 1, changes={PUBLICATIONS_PER_BLOCK + 1: ("set", "citations", 4.0)})
@example(n_lines=3, changes={1: ("add", "extra", 1), 3: ("line", [1, 2])})
@example(n_lines=3 * PUBLICATIONS_PER_BLOCK, changes={130: ("slot", 0, "R2"), 192: ("set", "id", 7)})
@example(n_lines=70, changes={70: ("category", "")})
@example(n_lines=5, changes={3: ("drop_slot", 0, "researcher_id"), 4: ("set_slot", 0, "researcher_id", 7)})
@example(n_lines=66, changes={66: ("drop", "authors")})
@example(n_lines=PUBLICATIONS_PER_BLOCK, changes={9: ("add_slot", 1, "extra", None)})
def test_first_mistyped_line_is_named_with_its_own_message(tmp_path_factory, n_lines, changes):
    """Valid lines with up to three changed anywhere in up to three blocks: the loader names the first line
    that a change made bad, with the message that line gives alone, and loads every line when none is bad."""
    lines = [json.dumps(_broken(id=f"P{k}")) for k in range(1, max([n_lines, *changes]) + 1)]
    messages = {}
    for line_no, change in changes.items():
        lines[line_no - 1], messages[line_no] = _changed_line(change, line_no)
    bad = sorted(line_no for line_no, message in messages.items() if message)
    paths = write_files(tmp_path_factory.mktemp("mistyped"))
    paths[0].write_text("\n".join(lines) + "\n")
    if not bad:
        assert len(load_corpus(*paths).publications) == len(lines)
        return
    with pytest.raises(ValidationError) as caught:
        load_corpus(*paths)
    assert str(caught.value) == f"{paths[0]} line {bad[0]}: {messages[bad[0]]}"


@st.composite
def loadable_tables(draw):
    """Publications that pass every rule, up to three blocks of them, and the researcher ids they may name.

    Each row repeats one of a few drawn publications under an id of its own, so a block may bring names
    that no earlier block has.
    """
    n_rows = draw(st.integers(0, 3 * PUBLICATIONS_PER_BLOCK))
    rids = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    categories = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    drawn = [
        Publication(
            "",
            draw(st.integers(*DEFAULT_WINDOW)),
            draw(st.sampled_from(DOC_TYPES)),
            draw(st.integers(0, CITATION_LIMIT)),
            tuple(draw(st.lists(st.sampled_from(categories), min_size=1, max_size=3, unique=True))),
            tuple(
                AuthorSlot(position, draw(st.booleans()), draw(st.none() | st.sampled_from(rids)))
                for position in draw(st.permutations(range(1, draw(st.integers(1, 3)) + 1)))
            ),
        )
        for _ in range(draw(st.integers(1, 8)))
    ]
    picks = draw(st.lists(st.integers(0, len(drawn) - 1), min_size=n_rows, max_size=n_rows))
    return [replace(drawn[i], id=f"P{row}") for row, i in enumerate(picks)], set(rids)


BLANK_LINES = st.tuples(st.integers(0, 3 * PUBLICATIONS_PER_BLOCK), st.sampled_from(["", " ", "\t\r"]))


@settings(max_examples=40, deadline=None)
@given(loadable_tables(), st.lists(BLANK_LINES))
def test_written_tables_load_back_column_for_column(tmp_path_factory, table, blanks):
    """Loading what `write_publications` wrote, with blank lines put in, gives the table `from_records` builds
    as a corpus of the same researchers codes it, name codes included."""
    records, rids = table
    corpus = Corpus(
        Publications.from_records(records), make_researchers((rid, "U1", "S1", 5) for rid in rids),
        make_taxonomy(), DEFAULT_WINDOW,
    )
    corpus.validate()
    assert_slots_coded_by_row(corpus, [slot.researcher_id for pub in records for slot in pub.authors])
    expected = corpus.publications
    path = tmp_path_factory.mktemp("roundtrip") / "publications.jsonl"
    write_publications(expected, path)
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    for at, blank in sorted(blanks, reverse=True):
        lines.insert(min(at, len(lines)), blank)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(line + "\n" for line in lines))
    loaded = load_publications(path, DEFAULT_WINDOW, corpus.researchers.ids)
    for name, want in vars(expected).items():
        got = getattr(loaded, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        else:
            assert got == want, name


def assert_slots_coded_by_row(corpus, slot_ids):
    """The researchers of `corpus` are in id order; each author slot's code is its researcher's row, or -1
    outside the population, and names its id (`slot_ids`, slot by slot); and without the researcher of the
    first named slot, `validate` rejects the corpus and names that id."""
    res, pubs = corpus.researchers, corpus.publications
    assert list(res.ids) == sorted(res.ids)
    row = {rid: i for i, rid in enumerate(res.ids)}
    assert pubs.slot_researcher.tolist() == [-1 if rid is None else row[rid] for rid in slot_ids]
    assert [None if code < 0 else pubs.researcher_names[code] for code in pubs.slot_researcher.tolist()] == slot_ids
    named = [rid for rid in slot_ids if rid is not None]
    if named:
        without = replace(corpus, researchers=res.rows(np.array([rid != named[0] for rid in res.ids])))
        with pytest.raises(ValidationError, match=f"references unknown researcher {re.escape(repr(named[0]))}$"):
            without.validate()


def _first_problem_record_by_record(records, window, researchers):
    """The per-record loop that `publications_problem` replaced, kept as its reference."""
    lo, hi = window
    seen = set()
    for row, pub in enumerate(records):
        positions = [slot.position for slot in pub.authors]
        unknown = [slot for slot in pub.authors if slot.researcher_id not in (None, *researchers)]
        if pub.id in seen:
            return row, f"duplicate publication id {pub.id!r}"
        if not lo <= pub.year <= hi:
            return row, f"year {pub.year} outside the observation window {lo}-{hi}"
        if pub.doc_type not in DOC_TYPES:
            return row, f"document type {pub.doc_type!r} is not one of {DOC_TYPES}"
        if pub.citations < 0:
            return row, f"citations must be >= 0, got {pub.citations}"
        if pub.citations > CITATION_LIMIT:
            return row, f"citations must be <= {CITATION_LIMIT}, got {pub.citations}"
        if not pub.categories:
            return row, "categories must not be empty"
        repeats = [c for i, c in enumerate(pub.categories) if c in pub.categories[:i]]
        if repeats:
            return row, f"categories must be distinct, {repeats[0]!r} is repeated"
        if not positions:
            return row, "authors must not be empty"
        if sorted(positions) != list(range(1, len(positions) + 1)):
            return row, f"author positions {sorted(positions)} must be exactly 1..{len(positions)}"
        if unknown:
            slot = unknown[0]
            return row, f"author position {slot.position} references unknown researcher {slot.researcher_id!r}"
        seen.add(pub.id)
    return None


@st.composite
def nearly_valid_records(draw):
    """Publications that break up to two rules each; a broken id is "P0", which the next one repeats. A valid id
    may also be an odd one, which may repeat too."""
    rules = ["id", "year", "type", "citations", "categories", "positions", "author"]
    broken = draw(st.sets(st.sampled_from(rules), max_size=2))

    def field(name, good, *bad):
        return draw(st.sampled_from(bad)) if name in broken else good

    n_slots = draw(st.integers(1, 3))
    positions = draw(st.permutations(range(1, n_slots + 1)))
    bad_position = field("positions", None, 0, -1, n_slots + 1, 2**64, positions[-1], "none")
    if bad_position == "none":
        positions = []
    elif bad_position is not None:
        positions[0] = bad_position
    rids = [field("author", draw(st.sampled_from(["R1", "R2", None])), "GHOST") for _ in positions]
    return Publication(
        field("id", draw(st.builds("P{}".format, st.integers(1, 10**9)) | ODD_IDS), "P0"),
        field("year", 2005, 2003, 2009, 2**64),
        field("type", "article", "preprint"),
        field("citations", draw(st.sampled_from([0, 7, CITATION_LIMIT])), -1, CITATION_LIMIT + 1, -(2**70)),
        field("categories", draw(st.sampled_from([("C1",), ("C2", "C1")])), (), ("C1", "C1"), ("C2", "C1", "C2")),
        tuple(AuthorSlot(position, True, rid) for position, rid in zip(positions, rids)),
    )


def _valid_with_ids(*ids):
    return [Publication(pid, 2005, "article", 0, ("C1",), (AuthorSlot(1, True, "R1"),)) for pid in ids]


@settings(max_examples=300, deadline=None)
@given(st.lists(nearly_valid_records(), max_size=6))
@example(_valid_with_ids("\U0001f600", "\uffff", "a\x00", "a", "\uffff"))  # UTF-16 order would differ
@example(_valid_with_ids("\ud800", "\U0001f600", "P", "\ud800"))  # no UTF-8: a column of dtype object
def test_columnar_rules_match_the_record_by_record_loop(records):
    """The rules find the first bad row as the loop does, the duplicate-id rule by Python's `set`; the id order
    and `_increasing` agree with Python's `sorted` and `<`."""
    researchers = ("R1", "R2")
    expected = _first_problem_record_by_record(records, DEFAULT_WINDOW, researchers)
    pubs = Publications.from_records(records).coded_by(researchers)
    assert publications_problem(pubs, DEFAULT_WINDOW, len(researchers)) == expected
    ids = [pub.id for pub in records]
    assert pubs.ids.tolist() == ids
    assert pubs.id_order().tolist() == sorted(range(len(ids)), key=ids.__getitem__)
    assert _increasing(pubs.ids) == all(a < b for a, b in pairwise(ids))


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
            idle = [rid for rid in corpus.researchers.ids if rid not in authors]
            if not idle:
                continue
            rid = idle[0]
            extra = make_pub("P-extra", [rid], citations=1)
            grown = make_corpus(
                [(researcher, univ, sds, 5) for researcher, univ, sds, _ in entries],
                [*corpus.publications, extra],
                taxonomy=corpus.taxonomy,
            )
            after = active_sds_filter(grown)
            assert before <= after


SHUFFLE_PROFILE = GeneratorProfile(
    n_universities=12,
    sds_per_uda={"A": 3, "B": 2},
    life_science_udas=("B",),
    staff_per_unit=(3, 9),
    seed=41,
)


def _report_all(corpus_dir: Path, out: Path) -> dict[str, bytes]:
    """Every report-all output except the manifest, which echoes the input digests."""
    argv = ["report-all", "--corpus", str(corpus_dir), "--credit", "positional",
            "--extramural-discount", "0.5", "--out", str(out)]
    assert dispatch(argv) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def _shuffled_copy(source: Path, target: Path, seed: int) -> None:
    """`source` with researchers.csv rows, publications.jsonl lines and each line's slots shuffled."""
    rng = random.Random(seed)
    target.mkdir()
    header, *rows = (source / "researchers.csv").read_text().splitlines(keepends=True)
    rng.shuffle(rows)
    (target / "researchers.csv").write_text(header + "".join(rows))
    lines = []
    for line in (source / "publications.jsonl").read_text().splitlines():
        record = json.loads(line)
        rng.shuffle(record["authors"])
        lines.append(json.dumps(record) + "\n")
    rng.shuffle(lines)
    (target / "publications.jsonl").write_text("".join(lines))
    (target / "taxonomy.csv").write_bytes((source / "taxonomy.csv").read_bytes())


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """A generated corpus written in canonical order, and its report-all outputs."""
    root = tmp_path_factory.mktemp("canonical")
    write_corpus(generate(SHUFFLE_PROFILE), root / "corpus", SHUFFLE_PROFILE)
    return root / "corpus", _report_all(root / "corpus", root / "out")


class TestCanonicalOrder:
    def test_written_corpus_is_already_canonical(self, generated):
        corpus_dir, _ = generated
        files = [corpus_dir / name for name in ("publications.jsonl", "researchers.csv", "taxonomy.csv")]
        pubs = load_corpus(*files).publications
        assert list(pubs.in_canonical_order()) == list(pubs)

    def test_canonical_table_comes_back_as_itself(self, generated):
        corpus_dir, _ = generated
        files = [corpus_dir / name for name in ("publications.jsonl", "researchers.csv", "taxonomy.csv")]
        pubs = load_corpus(*files).publications
        assert pubs.in_canonical_order() is pubs
        assert pubs.in_canonical_order(pubs.id_order()) is pubs

    @pytest.mark.parametrize("shuffle_rows, shuffle_slots", [(True, False), (False, True), (True, True)])
    def test_shuffled_table_comes_back_in_canonical_order(self, generated, shuffle_rows, shuffle_slots):
        corpus_dir, _ = generated
        files = [corpus_dir / name for name in ("publications.jsonl", "researchers.csv", "taxonomy.csv")]
        canonical = list(load_corpus(*files).publications)
        rng = random.Random(5)
        records = [
            replace(pub, authors=tuple(rng.sample(pub.authors, len(pub.authors)))) if shuffle_slots else pub
            for pub in canonical
        ]
        if shuffle_rows:
            rng.shuffle(records)
        shuffled = Publications.from_records(records)
        assert list(shuffled) != canonical
        assert list(shuffled.in_canonical_order()) == canonical

    def test_shuffled_input_loads_as_the_written_one(self, generated, tmp_path):
        corpus_dir, _ = generated
        _shuffled_copy(corpus_dir, tmp_path / "shuffled", seed=1)
        names = ("publications.jsonl", "researchers.csv", "taxonomy.csv")
        original = load_corpus(*(corpus_dir / name for name in names))
        shuffled = load_corpus(*(tmp_path / "shuffled" / name for name in names))
        assert table_columns(shuffled.researchers) == table_columns(original.researchers)
        assert list(shuffled.publications) == list(original.publications)
        records = [json.loads(line) for line in (corpus_dir / "publications.jsonl").read_text().splitlines()]
        slot_ids = [slot["researcher_id"] for record in records for slot in record["authors"]]
        assert_slots_coded_by_row(shuffled, slot_ids)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_report_all_ignores_input_order(self, generated, seed):
        corpus_dir, expected = generated
        with tempfile.TemporaryDirectory() as scratch:
            shuffled = Path(scratch) / "corpus"
            _shuffled_copy(corpus_dir, shuffled, seed)
            assert _report_all(shuffled, Path(scratch) / "out") == expected
