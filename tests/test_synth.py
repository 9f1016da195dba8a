"""Generator determinism, validity, calibration, and profile round-trips."""

from dataclasses import replace

import pytest

from meritrank.corpus import load_corpus
from meritrank.errors import ValidationError
from meritrank.synth import (
    CalibrationTargets,
    GeneratorProfile,
    build_taxonomy,
    calibrate,
    generate,
    measure_corpus,
    write_corpus,
)

SMALL = GeneratorProfile(
    n_universities=8,
    sds_per_uda={"A": 2, "B": 2},
    life_science_udas=("B",),
    staff_per_unit=(2, 8),
    seed=5,
)


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a = generate(SMALL)
        b = generate(SMALL)
        assert a.researchers == b.researchers
        assert a.publications == b.publications
        assert a.universities == b.universities

    def test_same_seed_byte_identical_files(self, tmp_path):
        paths_a = write_corpus(generate(SMALL), tmp_path / "a", SMALL)
        paths_b = write_corpus(generate(SMALL), tmp_path / "b", SMALL)
        for key in paths_a:
            assert paths_a[key].read_bytes() == paths_b[key].read_bytes()

    def test_different_seed_differs(self):
        other = replace(SMALL, seed=6)
        assert generate(SMALL).publications != generate(other).publications


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
