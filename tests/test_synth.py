"""Generator determinism, validity and pinned output, the corpus writer, calibration, and profiles."""

import csv
import hashlib
import json
import math
import re
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meritrank import synth
from meritrank.cli import dispatch
from meritrank.corpus import (
    DOC_TYPES,
    AuthorSlot,
    Publication,
    Publications,
    load_corpus,
    load_publications,
)
from meritrank.errors import ValidationError
from meritrank.synth import (
    CalibrationTargets,
    GeneratorProfile,
    build_taxonomy,
    calibrate,
    generate,
    measure_corpus,
    write_corpus,
    write_publications,
)

import oracles
from conftest import NAMES, ODD_IDS, table_columns

SMALL = GeneratorProfile(
    n_universities=8,
    sds_per_uda={"A": 2, "B": 2},
    life_science_udas=("B",),
    staff_per_unit=(2, 8),
    seed=5,
)


def _no_draw(*args):
    pytest.fail("a corpus was drawn")


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a = generate(SMALL)
        b = generate(SMALL)
        assert table_columns(a.researchers) == table_columns(b.researchers)
        assert list(a.publications) == list(b.publications)

    def test_same_seed_byte_identical_files(self, tmp_path):
        paths_a = write_corpus(generate(SMALL), tmp_path / "a", SMALL)
        paths_b = write_corpus(generate(SMALL), tmp_path / "b", SMALL)
        for key in paths_a:
            assert paths_a[key].read_bytes() == paths_b[key].read_bytes()

    def test_different_seed_differs(self):
        other = replace(SMALL, seed=6)
        assert list(generate(SMALL).publications) != list(generate(other).publications)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        staff_hi=st.integers(1, 12),
        p_nonproductive=st.floats(0, 1),
        mass=st.floats(0, 1),
        sigma=st.floats(0, 3),
    )
    def test_only_citations_read_the_citation_knobs(self, seed, staff_hi, p_nonproductive, mass, sigma):
        # `calibrate` searches these two knobs on one drawn corpus, which holds only because no draw reads them.
        base = replace(SMALL, n_universities=3, staff_per_unit=(0, staff_hi), p_nonproductive=p_nonproductive, seed=seed)
        a = generate(base)
        b = generate(replace(base, zero_citation_mass=mass, citation_sigma=sigma))
        for column in fields(Publications):
            if column.name != "citations":
                assert np.array_equal(getattr(a.publications, column.name), getattr(b.publications, column.name))
        assert table_columns(a.researchers) == table_columns(b.researchers)


def _twin_rngs(seed, warmup):
    """Two generators in the same state, after `warmup` bounded draws (an odd count leaves PCG64 holding
    half of a 64-bit output for the next 32-bit draw)."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in pair:
        for _ in range(warmup):
            rng.integers(0, 7)
    return pair


# Bounds of `below`: no draw at 1, rejections likely at 3 * 2**30, the widest 32-bit draws, and 64-bit ones.
BELOW_BOUNDS = (1, 2, 3, 7, 3 * 2**30, 2**32 - 1, 2**32, 2**40)


class TestChoiceFreeDraws:
    """The generator makes `Generator`'s draws with cheaper calls; these pin them to numpy's own."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        warmup=st.integers(0, 3),
        calls=st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from(["below", "below_array"]),
                    st.one_of(st.sampled_from(BELOW_BOUNDS), st.integers(1, 100), st.integers(1, 2**63 - 1)),
                ),
                st.tuples(st.sampled_from(["random", "standard_normal"]), st.none()),
                st.tuples(st.just("random_array"), st.integers(0, 5)),
            ),
            max_size=30,
        ),
    )
    @example(seed=11, warmup=1, calls=[(call, n) for n in BELOW_BOUNDS for call in ("below", "below_array")])
    def test_scalar_draws_are_numpy_integers_and_random(self, seed, warmup, calls):
        # Interleaved with `Generator` calls, which must see the same state, buffered half-words included.
        # `below_array`: the generator replaces `integers(lo, hi, size=m)` with m calls of `below`.
        ours, theirs = _twin_rngs(seed, warmup)
        random, below = synth._scalar_draws(ours)
        for call, arg in calls:
            if call == "below":
                assert below(arg) == int(theirs.integers(0, arg))
            elif call == "below_array":
                assert [below(arg) for _ in range(3)] == theirs.integers(0, arg, size=3).tolist()
            elif call == "random":
                assert random() == theirs.random()
            elif call == "standard_normal":
                assert ours.standard_normal() == theirs.standard_normal()
            else:
                assert ours.random(arg).tolist() == theirs.random(arg).tolist()
        assert ours.bit_generator.state == theirs.bit_generator.state

    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        n=st.one_of(st.integers(1, 40), st.integers(10_001, 10_400)),
        k_share=st.floats(0, 1),
        warmup=st.integers(0, 3),
    )
    def test_sample_indices_is_numpy_choice_without_replacement(self, seed, n, k_share, warmup):
        # Above 10,000, k crosses n // 50, where numpy switches from Floyd's sampler to a partial shuffle.
        k = max(1, round(k_share * min(n, 400)))
        ours, theirs = _twin_rngs(seed, warmup)
        _, below = synth._scalar_draws(ours)
        assert synth._sample_indices(ours, below, n, k) == sorted(theirs.choice(n, k, replace=False).tolist())
        assert ours.bit_generator.state == theirs.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), m=st.integers(0, 60), warmup=st.integers(0, 3))
    def test_doc_types_are_numpy_choice_with_probabilities(self, seed, m, warmup):
        ours, theirs = _twin_rngs(seed, warmup)
        assert synth._draw_doc_types(ours, m) == theirs.choice(3, size=m, p=synth.DOC_TYPE_PROBS).tolist()
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestExtremeProfiles:
    """Profile values at the edge of a float: rejected when not finite, capped when finite."""

    TINY = {
        "n_universities": 1,
        "sds_per_uda": {"A": 1},
        "life_science_udas": [],
        "staff_per_unit": [3, 3],
        "p_nonproductive": 0.0,
    }

    def _gen(self, tmp_path, capsys, change):
        path = tmp_path / "profile.json"
        # json.dumps writes NaN and Infinity, which json.load reads back.
        path.write_text(json.dumps({**self.TINY, **change}))
        out = tmp_path / "out"
        code = dispatch(["gen", "--profile", str(path), "--out", str(out)])
        return code, capsys.readouterr().err, out

    @pytest.mark.parametrize(
        "change",
        [
            {"pubs_location": float("nan")},
            {"pubs_location": float("inf")},
            {"citation_sigma": float("inf")},
            {"citation_location": float("-inf")},
            {"pubs_dispersion": float("nan")},
            {"citation_location": 10**400},
        ],
    )
    def test_non_finite_values_exit_1(self, tmp_path, capsys, change):
        code, err, out = self._gen(tmp_path, capsys, change)
        assert code == 1
        assert err.startswith(f"error: profile: {next(iter(change))} must be a finite number")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "change",
        [
            {"pubs_location": 800},
            {"citation_location": 800},
            {"citation_sigma": 1e308},
            {"citation_location": 1.7e308, "citation_sigma": 1e308},
        ],
    )
    def test_extreme_finite_values_are_capped(self, tmp_path, capsys, change):
        code, err, out = self._gen(tmp_path, capsys, change)
        assert code == 0, err
        lines = (out / "publications.jsonl").read_text().splitlines()
        citations = [json.loads(line)["citations"] for line in lines]
        assert all(0 <= c <= synth.MAX_CITATIONS for c in citations)
        if "pubs_location" in change:  # each of the three researchers at the cap
            assert len(citations) == 3 * synth.MAX_PUBS_PER_RESEARCHER
        if "citation_location" in change:
            assert set(citations) == {0, synth.MAX_CITATIONS}

    def test_caps_apply_before_the_conversion(self):
        assert synth._publication_count(float("inf")) == synth.MAX_PUBS_PER_RESEARCHER
        assert synth._publication_count(199.4) == 199
        assert synth._publication_count(0.2) == 1
        finite = [-800.0, 2.0, 14.0, math.log(0.5), math.log(1.5), math.log(2.5)]
        counts = synth._citation_counts(np.array([709.5, float("nan"), float("inf"), *finite]))
        assert counts.dtype == np.int64
        expected = [min(round(math.exp(x)), synth.MAX_CITATIONS) for x in finite]
        assert counts.tolist() == [synth.MAX_CITATIONS] * 3 + expected


class TestGeneratedCorpus:
    def test_round_trips_through_the_loader(self, tmp_path):
        corpus = generate(SMALL)
        paths = write_corpus(corpus, tmp_path, SMALL)
        loaded = load_corpus(
            paths["publications"], paths["researchers"], paths["taxonomy"], SMALL.window
        )
        assert len(loaded.researchers) == len(corpus.researchers)
        assert len(loaded.publications) == len(corpus.publications)
        assert loaded.taxonomy.life_science_udas == frozenset({"B"})

    def test_loads_into_the_generated_table(self, tmp_path):
        """The loader's typed columns hold the generator's values with the generator's dtypes: StringDType ids,
        int64, and one bool per intramural flag. A coded column is compared by name, since each side numbers its
        own names."""
        made = generate(SMALL)
        paths = write_corpus(made, tmp_path, SMALL)
        loaded = load_corpus(paths["publications"], paths["researchers"], paths["taxonomy"], SMALL.window)
        names = {"doc_type": "doc_type_names", "category": "category_names", "slot_researcher": "researcher_names"}

        def column(pubs, name):
            values = getattr(pubs, name).tolist()
            if name in names:
                return [None if code < 0 else getattr(pubs, names[name])[code] for code in values]
            return values

        assert loaded.publications.ids.dtype == made.publications.ids.dtype == np.dtypes.StringDType()
        assert loaded.publications.ids.tolist() == made.publications.ids.tolist()
        arrays = [
            f.name for f in fields(Publications)
            if f.name != "ids" and isinstance(getattr(made.publications, f.name), np.ndarray)
        ]
        assert len(arrays) == 9
        for name in arrays:
            dtype = np.dtype(bool if name == "slot_intramural" else np.int64)
            assert getattr(loaded.publications, name).dtype == getattr(made.publications, name).dtype == dtype
            assert column(loaded.publications, name) == column(made.publications, name), name

    def test_nil_impact_contains_non_productive(self):
        measured = measure_corpus(generate(SMALL))
        assert measured.nil_impact_share >= measured.non_productive_share

    def test_non_productive_share_near_probability(self):
        profile = GeneratorProfile(n_universities=6, seed=11)  # ~2.7k researchers
        measured = measure_corpus(generate(profile))
        assert measured.non_productive_share == pytest.approx(0.17, abs=0.03)

    def test_taxonomy_layout(self):
        taxonomy = build_taxonomy(SMALL)
        assert len(taxonomy.sds_to_uda) == 4
        assert taxonomy.is_life_science("B-01")
        assert not taxonomy.is_life_science("A-01")

    def test_author_lists_are_valid_mixes(self):
        corpus = generate(SMALL)
        saw_external = saw_internal_coauthor = False
        for pub in corpus.publications:
            positions = sorted(s.position for s in pub.authors)
            assert positions == list(range(1, len(pub.authors) + 1))
            internal = [s for s in pub.authors if s.researcher_id is not None]
            assert internal, "every publication keeps its originating author"
            saw_external |= any(s.researcher_id is None for s in pub.authors)
            saw_internal_coauthor |= len(internal) > 1
        assert saw_external and saw_internal_coauthor


# `gen --profile` outputs recorded before the generator filled the columns straight from its
# draws; each variant of PIN_BASE takes a branch of the generator that the default profile hides.
PIN_BASE = {
    "n_universities": 5,
    "sds_per_uda": {"A": 2, "B": 1},
    "life_science_udas": ["B"],
    "staff_per_unit": [2, 6],
    "seed": 3,
}
GENERATOR_PINS = {
    # Units of zero or one member: no colleagues to co-author with.
    "no-colleagues": (
        {"staff_per_unit": [0, 1]},
        "c9f362057d6ac6f7a41a4a19b94262c230c599598db5c8f71f83bbf6ac59766e",
        "4eb46ff4f7da51ac7af51184728117ade079b0e784446288fe6016c9f05211de",
    ),
    "single-author": (
        {"coauthor_range": [1, 1]},
        "eef33920eae6cee9add08a195c1199c8fc266a4586cb06e106440e4ed426dd4d",
        "77e77dc9edc1cbb4733cb8d118a82585385ea0df963d10558b2d333bded531d5",
    ),
    # UDA B has one SDS, so its second categories have no sibling to draw.
    "second-category-always": (
        {"p_second_category": 1.0},
        "623abd9cb7470a2c3572cabdde08da3815debc7fd67add14e11345788d9c66e1",
        "283f0083854e7e2e7da06447535979d33ecfec4ae2770ea852f90037414807a1",
    ),
    "all-internal": (
        {"p_external_coauthor": 0.0},
        "28d62a5c7f705f24fc048cf31b77254b82a62d095ee69ccc3a2c22811429a27b",
        "76a1feaa943bf699b234540faadf704f643ce1dc4bd5d16020120e704c286749",
    ),
    "all-external": (
        {"p_external_coauthor": 1.0},
        "689a5eab39598576e07c1598f74fd63034344e620979d7af852aaf0967f7ed4c",
        "367194fc011abb83a73bdd7dcb9e63faaf3e1601babd6b862c2cf97ad6fa2d03",
    ),
    "one-year-window": (
        {"window": [2006, 2006]},
        "bea9ec7d6ee88ed30e4aabd697b7a3cbf21ae8d461b3ab2aa36a84424015b3c6",
        "c21b0fc2146223d1b0dda8ede1ca9d681441b8ffc8a21d906aab0f7521c53214",
    ),
    # Years, partial years, author counts and author positions each come from one value, with no draw.
    "one-year-single-author": (
        {"window": [2006, 2006], "coauthor_range": [1, 1]},
        "34e0490f6a97c728a3b5c4552349467fd851b3f950790d7c7cb907a8dbd0d2a2",
        "02a04a11a8a793cc8ad4933b50d5cb8c831fd936961ca73f45838d61c6c0be1d",
    ),
    "partial-window": (
        {"p_full_window": 0.0},
        "28e344560a65bde367535935c53119ff2874bb9b69d2ec3e767de01c1c792ad1",
        "aa99c724cc527c0c336eb4f09f6e44ff25cf5ac21ee188df36dc06fe8da12d52",
    ),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_PINS))
def test_gen_output_is_pinned(tmp_path, name):
    change, publications_digest, researchers_digest = GENERATOR_PINS[name]
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({**PIN_BASE, **change}))
    assert dispatch(["gen", "--profile", str(profile), "--out", str(tmp_path / "gen")]) == 0
    digests = {
        file: hashlib.sha256((tmp_path / "gen" / file).read_bytes()).hexdigest()
        for file in ("publications.jsonl", "researchers.csv")
    }
    assert digests == {"publications.jsonl": publications_digest, "researchers.csv": researchers_digest}


@pytest.mark.parametrize(
    "profile",
    [
        {"n_universities": 2, "sds_per_uda": {"A": 1, "B": 1}, "life_science_udas": ["A"],
         "staff_per_unit": [1000, 1010], "seed": 5},
        {"n_universities": 8, "sds_per_uda": {"A": 1}, "life_science_udas": [], "staff_per_unit": [0, 2], "seed": 1},
    ],
    ids=["large-units", "staffless-universities"],
)
def test_large_units_report_as_their_written_corpus(tmp_path, profile):
    """With 1,000 staff or more, id order is not generation order (`...-1000` sorts before
    `...-101`); the generated corpus is canonicalised as a loaded one is, so both score alike.
    A university that draws no staff is in neither corpus, so neither run counts it."""
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps(profile))
    outputs = {}
    for source, argv in (
        ("profile", ["--profile", str(profile_path)]),
        ("corpus", ["--corpus", str(tmp_path / "profile" / "corpus")]),
    ):
        out = tmp_path / source
        assert dispatch(["report-all", *argv, "--min-staff", "1", "--out", str(out)]) == 0
        outputs[source] = {
            p.name: p.read_bytes() for p in out.iterdir() if p.is_file() and p.name != "manifest.json"
        }
    assert "ranks_sds.csv" in outputs["profile"]
    assert outputs["profile"] == outputs["corpus"]
    corpus_dir = tmp_path / "profile" / "corpus"
    with open(corpus_dir / "researchers.csv", newline="", encoding="utf-8") as fh:
        universities = {row["university_id"] for row in csv.DictReader(fh)}
    metadata = json.loads((corpus_dir / "metadata.json").read_text())
    assert metadata["counts"]["universities"] == len(universities)


def test_generated_corpus_is_in_canonical_order():
    large = replace(SMALL, n_universities=1, sds_per_uda={"A": 1}, life_science_udas=(), staff_per_unit=(1000, 1001))
    corpus = generate(large)
    assert list(corpus.researchers.ids) == sorted(corpus.researchers.ids)
    assert list(corpus.publications.in_canonical_order()) == list(corpus.publications)


@pytest.fixture(scope="module")
def citation_draw():
    """A small drawn corpus and its draws, whose citation counts the property below computes under many knobs."""
    return synth._draw(replace(SMALL, n_universities=2))


EXPONENT_PARTS = st.one_of(
    st.floats(-5, 5), st.floats(695, 720), st.floats(allow_nan=False), st.sampled_from([float("inf"), float("-inf")])
)


@settings(max_examples=200, deadline=None)
@given(
    sigma=st.one_of(st.just(0.0), st.floats(0, 3), st.floats(0, 1e308), st.integers(0, 10**20)),
    location=EXPONENT_PARTS,
    last_year=st.one_of(st.integers(2004, 2100), st.integers(-(2**62), 2**62)),
    normals=st.lists(st.one_of(st.floats(-8, 8), EXPONENT_PARTS), max_size=12),
    data=st.data(),
)
def test_array_citation_pass_matches_the_per_publication_loop(citation_draw, sigma, location, last_year, normals, data):
    """`_with_citations` gives the loop's counts bit for bit, over exponents near exp's cap of 709, above it,
    infinite and NaN (inf - inf), for any zero-citation mass, including one equal to a drawn uniform."""
    drawn, zero_uniform, citation_normal = citation_draw
    mass = data.draw(st.one_of(st.floats(0, 1), st.sampled_from(zero_uniform.tolist())), label="mass")
    citation_normal = citation_normal.copy()
    citation_normal[: len(normals)] = normals
    profile = replace(
        SMALL, citation_sigma=sigma, citation_location=location, zero_citation_mass=mass, window=(2004, last_year)
    )
    got = synth._with_citations(profile, drawn, zero_uniform, citation_normal).publications.citations
    want = oracles.with_citations(profile, drawn, zero_uniform, citation_normal).publications.citations
    assert got.dtype == want.dtype == np.int64
    assert got.tolist() == want.tolist()


@st.composite
def publication_records(draw):
    names = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    records = []
    # Not a high surrogate before a low one: JSON decodes the two escapes as one astral character.
    ids = NAMES | ODD_IDS.filter(lambda pid: json.loads(json.dumps(pid)) == pid)
    for pid in draw(st.lists(ids, min_size=1, max_size=6, unique=True)):
        n = draw(st.integers(1, 5))
        positions = draw(st.permutations(range(1, n + 1)))
        slots = tuple(
            # The intramural flag is drawn apart from the id, as a loaded corpus may have it.
            AuthorSlot(position, draw(st.booleans()), draw(st.none() | st.sampled_from(names)))
            for position in positions
        )
        records.append(Publication(
            pid,
            draw(st.integers(2004, 2008)),
            draw(st.sampled_from(DOC_TYPES)),
            draw(st.integers(0, 10**9)),
            tuple(draw(st.lists(st.sampled_from(names) | NAMES, min_size=1, max_size=3, unique=True))),
            slots,
        ))
    return names, records


@settings(max_examples=60, deadline=None)
@given(publication_records(), st.integers(1, 4))
def test_write_publications_encodes_each_record_as_json_dumps(tmp_path_factory, drawn, per_write):
    """Each line is `json.dumps` of its record, however many lines each write takes, and loads back as it."""
    names, records = drawn
    path = tmp_path_factory.mktemp("jsonl") / "publications.jsonl"
    with mock.patch.object(synth, "_PUBLICATIONS_PER_WRITE", per_write):
        write_publications(Publications.from_records(records), path)
    expected = [
        json.dumps(
            {
                "id": pub.id,
                "year": pub.year,
                "type": pub.doc_type,
                "citations": pub.citations,
                "categories": list(pub.categories),
                "authors": [
                    {"researcher_id": s.researcher_id, "position": s.position, "intramural": s.intramural}
                    for s in pub.authors
                ],
            },
            separators=(",", ":"),
        )
        + "\n"
        for pub in records
    ]
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.readlines() == expected
    assert list(load_publications(path, (2004, 2008), sorted(names))) == records


class TestProfile:
    def test_dict_round_trip(self):
        data = SMALL.to_dict()
        assert data["n_sds"] == 4
        assert GeneratorProfile.from_dict(data) == SMALL

    def test_unknown_fields_rejected(self):
        data = SMALL.to_dict()
        data["typo_field"] = 1
        with pytest.raises(ValidationError, match="typo_field"):
            GeneratorProfile.from_dict(data)

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("n_universities", "3", "an integer"),
            ("staff_per_unit", 5, "a list of two integers"),
            ("staff_per_unit", [1, 2, 3], "a list of two integers"),
            ("seed", True, "an integer"),
            ("p_nonproductive", "0.2", "a number"),
            ("life_science_udas", ["B", 1], "a list of strings"),
            ("sds_per_uda", {"A": 2.5}, "an object of integers"),
        ],
    )
    def test_wrong_field_type_rejected(self, field, value, expected):
        with pytest.raises(ValidationError, match=f"field '{field}' must be {expected}"):
            GeneratorProfile.from_dict({field: value})

    @pytest.mark.parametrize("profile", [{"n_universities": "3"}, {"staff_per_unit": 5}])
    def test_gen_with_wrong_field_type_exits_1(self, tmp_path, capsys, profile):
        import json

        from meritrank.cli import dispatch

        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile))
        assert dispatch(["gen", "--profile", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"field '{next(iter(profile))}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "data", [[["seed", 5], ["n_universities", 2]], "seed", None], ids=["pairs", "string", "none"]
    )
    def test_data_that_is_not_a_mapping_rejected(self, data):
        with pytest.raises(ValidationError, match=r"^profile: expected a mapping of fields, got "):
            GeneratorProfile.from_dict(data)

    def test_invalid_json_names_the_profile(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match=f"^profile {re.escape(str(path))}: invalid JSON: Expecting"):
            GeneratorProfile.from_json(path)

    def test_n_sds_mismatch_rejected(self):
        data = SMALL.to_dict()
        data["n_sds"] = 99
        with pytest.raises(ValidationError, match="n_sds"):
            GeneratorProfile.from_dict(data)

    def test_infeasible_staff_range(self):
        with pytest.raises(ValidationError, match="staff range"):
            generate(replace(SMALL, staff_per_unit=(4, 2)))
        with pytest.raises(ValidationError, match="staff range"):
            generate(replace(SMALL, staff_per_unit=(0, 0)))

    def test_empty_window_rejected_by_the_loader_rule(self):
        with pytest.raises(ValidationError, match=r"^profile: empty window \(2008, 2004\): the first"):
            generate(replace(SMALL, window=(2008, 2004)))

    def test_uda_code_that_cannot_name_a_file_rejected(self):
        with pytest.raises(ValidationError, match=r"^profile: sds_per_uda: UDA code 'B/x' cannot name"):
            generate(replace(SMALL, sds_per_uda={"A": 2, "B/x": 2}, life_science_udas=()))

    def test_share_out_of_bounds(self):
        with pytest.raises(ValidationError, match="p_nonproductive"):
            generate(replace(SMALL, p_nonproductive=1.2))

    def test_negative_seed_rejected(self):
        # numpy's SeedSequence raises a bare ValueError, which the CLI reports as a bug.
        with pytest.raises(ValidationError, match="seed must be non-negative"):
            generate(replace(SMALL, seed=-1))

    def test_json_round_trip(self, tmp_path):
        import json

        path = tmp_path / "profile.json"
        path.write_text(json.dumps(SMALL.to_dict()))
        assert GeneratorProfile.from_json(path) == SMALL


class TestCalibrate:
    def test_contradictory_targets_rejected(self):
        targets = CalibrationTargets(non_productive_share=0.3, nil_impact_share=0.2)
        with pytest.raises(ValidationError, match="infeasible"):
            calibrate(SMALL, targets)

    def test_already_met_targets_converge_quickly(self):
        profile = replace(SMALL, n_universities=12)
        baseline = measure_corpus(generate(replace(profile, p_nonproductive=0.17)))
        targets = CalibrationTargets(
            non_productive_share=0.17,
            nil_impact_share=baseline.nil_impact_share,
            top20_impact_share=baseline.top20_impact_share,
        )
        result = calibrate(profile, targets, tolerance=0.05)
        assert result.converged
        assert result.profile.citation_sigma == profile.citation_sigma
        assert result.profile.zero_citation_mass == profile.zero_citation_mass

    @pytest.mark.parametrize(
        "targets, tolerance, message",
        [
            (CalibrationTargets(top20_impact_share=1.5), 0.03, r"top20_impact_share must be in \[0, 1\]"),
            (CalibrationTargets(non_productive_share=-0.1), 0.03, r"non_productive_share must be in \[0, 1\]"),
            (CalibrationTargets(), -0.1, "tolerance must be non-negative"),
            (CalibrationTargets(), float("nan"), "tolerance must be non-negative"),
        ],
    )
    def test_impossible_inputs_rejected_before_drawing(self, monkeypatch, targets, tolerance, message):
        monkeypatch.setattr(synth, "_draw", _no_draw)
        with pytest.raises(ValidationError, match=message):
            calibrate(SMALL, targets, tolerance)

    @pytest.mark.parametrize("flag, value", [("--target-top20-share", "1.5"), ("--tolerance", "-0.1")])
    def test_cli_rejects_impossible_inputs_before_drawing(self, tmp_path, monkeypatch, capsys, flag, value):
        monkeypatch.setattr(synth, "_draw", _no_draw)
        out = tmp_path / "calibrated.json"
        assert dispatch(["calibrate", "--out", str(out), flag, value]) == 1
        assert "must be" in capsys.readouterr().err
        assert not out.exists()

    def test_default_targets_draw_once(self, monkeypatch):
        drawn = []
        draw = synth._draw
        monkeypatch.setattr(synth, "_draw", lambda profile: drawn.append(profile) or draw(profile))
        result = calibrate(replace(SMALL, n_universities=12))
        assert result.evaluations > 1
        assert len(drawn) == 1

    def test_measured_is_the_calibrated_profiles_corpus(self):
        # A non-productive share off target makes `calibrate` draw a second corpus.
        result = calibrate(replace(SMALL, n_universities=12, p_nonproductive=0.3))
        assert result.profile.p_nonproductive == 0.17
        assert result.evaluations > 2
        assert result.measured == measure_corpus(generate(result.profile))

    def test_twenty_two_universities_converge_at_seed_209(self):
        # The seed at which a search on a corpus smaller than the profile's missed (top-20% residual +0.031).
        profile = GeneratorProfile(n_universities=22, seed=209)
        result = calibrate(profile)
        assert result.converged
        assert all(abs(r) <= 0.03 for r in result.residuals.values())
        assert result.measured == measure_corpus(generate(result.profile))
