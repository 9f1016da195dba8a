"""Baselines, standardization, and fractional author credit."""

import json
import statistics

import numpy as np
import pytest

from meritrank.corpus import Publications, load_corpus
from meritrank.errors import ValidationError
from meritrank.normalization import (
    EQUAL_FRACTIONAL,
    POSITIONAL,
    CreditScheme,
    compute_baselines,
    standardized_citations,
)
from meritrank.indicators import score_corpus
from meritrank.synth import GeneratorProfile, generate

from conftest import credit_by_position, make_corpus, make_pub, make_slot


def _stratum_corpus(citations_list, category="C1", year=2005):
    researchers = [("R1", "U1", "S1", 5)]
    pubs = [
        make_pub(f"P{i}", ["R1"], year=year, citations=c, categories=(category,))
        for i, c in enumerate(citations_list)
    ]
    return make_corpus(researchers, pubs)


class TestBaselines:
    def test_median_and_mean(self):
        baselines = compute_baselines(_stratum_corpus([0, 1, 2, 10]))
        b = baselines[("C1", 2005)]
        assert b.median_citations == 1.5
        assert b.mean_citations == 3.25
        assert b.scale == 1.5

    def test_all_zero_stratum_no_fallback(self):
        b = compute_baselines(_stratum_corpus([0, 0, 0]))[("C1", 2005)]
        assert b.median_citations == 0.0
        assert b.mean_citations == 0.0
        assert b.scale == 0.0

    def test_zero_median_falls_back_to_mean(self):
        b = compute_baselines(_stratum_corpus([0, 0, 5]))[("C1", 2005)]
        assert b.median_citations == 0.0
        assert b.mean_citations == pytest.approx(5 / 3)
        assert b.scale == pytest.approx(5 / 3)

    def test_multicategory_pub_feeds_both_strata(self):
        pub = make_pub("P1", ["R1"], citations=4, categories=("C1", "C2"))
        corpus = make_corpus([("R1", "U1", "S1", 5)], [pub])
        baselines = compute_baselines(corpus)
        assert baselines[("C1", 2005)].median_citations == 4
        assert baselines[("C2", 2005)].median_citations == 4

    def test_order_invariance(self):
        researchers = [("R1", "U1", "S1", 5)]
        pubs = [
            make_pub(f"P{i}", ["R1"], citations=c, categories=("C1",))
            for i, c in enumerate([3, 0, 7, 2, 9])
        ]
        forward = make_corpus(researchers, pubs)
        backward = make_corpus(researchers, tuple(reversed(pubs)))
        assert compute_baselines(forward) == compute_baselines(backward)


    def test_a_negative_year_keeps_its_own_stratum(self, tmp_path):
        """Strata of a window holding year -1: (C1, -1) neither drops out nor reads as (C0, 3)."""
        (tmp_path / "taxonomy.csv").write_text("sds,uda,uda_name,life_science\nS1,X,Area X,0\n")
        (tmp_path / "researchers.csv").write_text(
            "id,university_id,university_name,sds,years_in_post\nR1,U1,Uni,S1,1\nR2,U1,Uni,S1,1\nR3,U1,Uni,S1,1\n"
        )
        records = [("P1", -1, 10, "C1", "R1"), ("P2", 3, 1, "C0", "R2"), ("P3", 3, 100, "C0", "R3")]
        (tmp_path / "publications.jsonl").write_text("".join(
            json.dumps({
                "id": pid, "year": year, "type": "article", "citations": citations, "categories": [category],
                "authors": [{"researcher_id": rid, "position": 1, "intramural": True}],
            }) + "\n"
            for pid, year, citations, category, rid in records
        ))
        corpus = load_corpus(*(tmp_path / name for name in ("publications.jsonl", "researchers.csv", "taxonomy.csv")),
                             window=(-1, 3))
        baselines = compute_baselines(corpus)
        assert {key: b.median_citations for key, b in baselines.items()} == {("C1", -1): 10.0, ("C0", 3): 50.5}
        scores = score_corpus(corpus, CreditScheme()).scores
        assert scores.ss[scores.ids.index("R1")] == 1.0

    def test_a_generated_window_below_zero_matches_a_per_record_oracle(self):
        profile = GeneratorProfile(
            n_universities=4, sds_per_uda={"A": 2}, life_science_udas=(), staff_per_unit=(2, 5), window=(-3, 1), seed=11
        )
        corpus = generate(profile)
        strata: dict = {}
        for pub in corpus.publications:
            for category in pub.categories:
                strata.setdefault((category, pub.year), []).append(pub.citations)
        assert min(year for _, year in strata) < 0
        baselines = compute_baselines(corpus)
        assert sorted(baselines) == sorted(strata)
        for key, cites in strata.items():
            assert baselines[key].median_citations == float(statistics.median(cites))
            assert baselines[key].mean_citations == sum(cites) / len(cites)
        standardized = standardized_citations(corpus.publications, baselines)
        for row, pub in enumerate(corpus.publications):
            scales = [baselines[(category, pub.year)].scale for category in pub.categories]
            mean_scale = sum(scales) / len(scales)
            assert standardized[row] == (pub.citations / mean_scale if pub.citations and mean_scale else 0.0)


def _standardized(corpus, pubs=None):
    """`standardized_citations` of `pubs`, by default the corpus's, against the corpus's baselines."""
    return standardized_citations(corpus.publications if pubs is None else pubs, compute_baselines(corpus))


class TestStandardize:
    def test_single_category_division(self):
        corpus = _stratum_corpus([3, 3, 6])  # median 3
        assert _standardized(corpus)[2] == 2.0

    def test_two_categories_use_average_of_medians(self):
        researchers = [("R1", "U1", "S1", 5)]
        pubs = [
            make_pub("A1", ["R1"], citations=2, categories=("C1",)),
            make_pub("A2", ["R1"], citations=2, categories=("C1",)),
            make_pub("B1", ["R1"], citations=4, categories=("C2",)),
            make_pub("B2", ["R1"], citations=4, categories=("C2",)),
            make_pub("X", ["R1"], citations=6, categories=("C1", "C2")),
        ]
        corpus = make_corpus(researchers, pubs)
        # C1 stratum {2, 2, 6} -> median 2; C2 stratum {4, 4, 6} -> median 4.
        assert _standardized(corpus)[4] == pytest.approx(6 / 3)

    def test_zero_citation_pub_is_zero(self):
        corpus = _stratum_corpus([0, 5, 9])
        assert _standardized(corpus)[0] == 0.0

    def test_missing_baseline_is_hard_error(self):
        corpus = _stratum_corpus([1, 2, 3])
        orphan = Publications.from_records([make_pub("Q", ["R1"], citations=1, categories=("UNSEEN",))])
        message = r"^no baseline for category 'UNSEEN' year 2005 \(publication 'Q'\)$"
        with pytest.raises(ValidationError, match=message):
            _standardized(corpus, orphan)

    def test_homogeneous_in_citations(self):
        corpus = _stratum_corpus([1, 2, 8])
        single = _standardized(corpus)[1]
        doubled = Publications.from_records([make_pub("D", ["R1"], citations=4, categories=("C1",))])
        assert _standardized(corpus, doubled)[0] == pytest.approx(2 * single)

    def test_zero_iff_zero_citations_when_scale_positive(self):
        corpus = _stratum_corpus([0, 1, 2, 10])
        values = _standardized(corpus)
        assert ((values == 0.0) == (corpus.publications.citations == 0)).all()


def _pub_with_authors(n, intramural_flags=None):
    flags = intramural_flags or [True] * n
    slots = [make_slot(i + 1, f"R{i + 1}", flags[i]) for i in range(n)]
    return make_pub("P1", slots, citations=1)


class TestAuthorCredit:
    def test_equal_split_for_non_life_science(self):
        pub = _pub_with_authors(4)
        scheme = CreditScheme(mode=POSITIONAL)
        shares = credit_by_position(pub, scheme, is_life_science=False)
        assert all(v == 0.25 for v in shares.values())

    def test_single_author_gets_everything(self):
        pub = _pub_with_authors(1)
        for mode in (EQUAL_FRACTIONAL, POSITIONAL):
            assert credit_by_position(pub, CreditScheme(mode=mode), True)[1] == 1.0

    def test_default_positional_weights(self):
        pub = _pub_with_authors(3)
        shares = credit_by_position(pub, CreditScheme(mode=POSITIONAL), True)
        assert shares[1] == pytest.approx(0.4)
        assert shares[2] == pytest.approx(0.2)
        assert shares[3] == pytest.approx(0.4)

    def test_two_authors_first_and_last(self):
        pub = _pub_with_authors(2)
        shares = credit_by_position(pub, CreditScheme(mode=POSITIONAL), True)
        assert shares[1] == pytest.approx(0.5)
        assert shares[2] == pytest.approx(0.5)

    def test_extramural_discount_renormalizes(self):
        pub = _pub_with_authors(3, [True, True, False])
        scheme = CreditScheme(mode=POSITIONAL, extramural_discount=0.5)
        shares = credit_by_position(pub, scheme, True)
        # Weights 2, 1, 2*0.5 -> normalized over 4.
        assert shares[1] == pytest.approx(0.5)
        assert shares[2] == pytest.approx(0.25)
        assert shares[3] == pytest.approx(0.25)
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)

    def test_conservation_over_random_publications(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            flags = [bool(rng.random() < 0.7) for _ in range(n)]
            pub = _pub_with_authors(n, flags)
            scheme = CreditScheme(
                mode=POSITIONAL if rng.random() < 0.5 else EQUAL_FRACTIONAL,
                first_weight=float(rng.uniform(0.5, 4)),
                last_weight=float(rng.uniform(0.5, 4)),
                middle_weight=float(rng.uniform(0.5, 4)),
                extramural_discount=float(rng.uniform(0.1, 1.0)),
            )
            life = bool(rng.random() < 0.5)
            total = sum(credit_by_position(pub, scheme, life).values())
            assert abs(total - 1.0) < 1e-12

    def test_scheme_validation(self):
        with pytest.raises(ValidationError):
            CreditScheme(mode="weighted")
        with pytest.raises(ValidationError):
            CreditScheme(first_weight=0.0)
        with pytest.raises(ValidationError):
            CreditScheme(extramural_discount=0.0)
        with pytest.raises(ValidationError):
            CreditScheme(extramural_discount=1.5)
