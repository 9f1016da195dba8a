"""Researcher SS values, percentile ranks, and productivity shares."""

import numpy as np
import pytest

from meritrank.corpus import active_sds_filter
from meritrank.indicators import (
    measured_shares,
    percentile_ranks,
    productivity_stats,
    researcher_ss,
    score_corpus,
    score_table,
)
from meritrank.normalization import CategoryBaseline, CreditScheme, compute_baselines

from conftest import make_corpus, make_pub, make_slot, make_taxonomy, solo_corpus, table_rows


def fixed_baselines(median, category="C1", year=2005):
    return {(category, year): CategoryBaseline(float(median), float(median))}


def scored_table(corpus, baselines=None):
    """The score table of every researcher of `corpus`; the baselines default to the corpus's own."""
    baselines = compute_baselines(corpus) if baselines is None else baselines
    ss, non_productive = researcher_ss(corpus, baselines, CreditScheme())
    return score_table(list(corpus.researchers.values()), ss, non_productive)


def scored_rows(corpus, baselines=None):
    """The rows of `scored_table`, keyed by researcher id."""
    return table_rows(scored_table(corpus, baselines))


class TestResearcherSS:
    def test_solo_publication_divided_by_years(self):
        # One solo publication standardized to 2.0, five years in post.
        corpus = make_corpus(
            [("R1", "U1", "S1", 5)],
            [make_pub("P1", ["R1"], citations=6)],
        )
        row = scored_rows(corpus, fixed_baselines(3))["R1"]
        assert row["ss"] == pytest.approx(0.4)
        assert not row["non_productive"]
        assert not row["nil_impact"]

    def test_non_productive_researcher(self):
        corpus = make_corpus([("R1", "U1", "S1", 5)])
        row = scored_rows(corpus, {})["R1"]
        assert row["non_productive"] and row["nil_impact"]
        assert row["ss"] == 0.0

    def test_two_publications_summed(self):
        # (std 3.0 split three ways) + (std 1.0 solo), two years in post -> 1.0.
        pub1 = make_pub("P1", ["R1", "R2", "R3"], citations=9)
        pub2 = make_pub("P2", ["R1"], citations=3)
        corpus = make_corpus(
            [("R1", "U1", "S1", 2), ("R2", "U1", "S1", 5), ("R3", "U1", "S1", 5)],
            [pub1, pub2],
        )
        ss, _ = researcher_ss(corpus, fixed_baselines(3), CreditScheme())
        assert ss[0] == pytest.approx(1.0)

    def test_positional_credit_applies_to_life_science_researchers(self):
        taxonomy = make_taxonomy({"S1": "X", "S3": "LIFE"})
        pub = make_pub("P1", ["L1", "L2", "L3"], citations=6)
        corpus = make_corpus(
            [("L1", "U1", "S3", 5), ("L2", "U1", "S3", 5), ("L3", "U1", "S3", 5)],
            [pub],
            taxonomy=taxonomy,
        )
        ss, _ = researcher_ss(corpus, fixed_baselines(3), CreditScheme(mode="positional"))
        # std 2.0, credits (0.4, 0.2, 0.4), five years in post; rows L1, L2, L3.
        assert ss.tolist() == pytest.approx([2.0 * 0.4 / 5, 2.0 * 0.2 / 5, 2.0 * 0.4 / 5])

    def test_nil_impact_iff_zero_ss(self):
        corpus = solo_corpus(
            [("R1", "U1", "S1", 0), ("R2", "U1", "S1", 5), ("R3", "U1", "S1", None)]
        )
        rows = scored_rows(corpus, compute_baselines(corpus))
        assert rows["R1"]["nil_impact"] and not rows["R1"]["non_productive"]
        assert not rows["R2"]["nil_impact"]
        assert rows["R3"]["nil_impact"] and rows["R3"]["non_productive"]


class TestPercentileRanks:
    def _percentiles(self, ss_values, sds=None):
        sds = np.zeros(len(ss_values), dtype=np.int64) if sds is None else np.asarray(sds)
        return percentile_ranks(sds, np.asarray(ss_values, dtype=float)).tolist()

    def test_five_distinct_values(self):
        assert self._percentiles([5.0, 4.0, 3.0, 2.0, 1.0]) == [100.0, 75.0, 50.0, 25.0, 0.0]

    def test_tie_at_top_averages_ranks(self):
        assert self._percentiles([7.0, 7.0, 1.0]) == [75.0, 75.0, 0.0]

    def test_singleton_group(self):
        assert self._percentiles([3.0]) == [100.0]

    def test_empty(self):
        assert self._percentiles([]) == []

    def test_monotone_in_ss(self):
        rng = np.random.default_rng(13)
        values = rng.uniform(0, 5, size=30).tolist()
        items = sorted(zip(values, self._percentiles(values)))
        for (ss_a, pct_a), (ss_b, pct_b) in zip(items, items[1:]):
            if ss_b > ss_a:
                assert pct_b > pct_a

    def test_mean_percentile_is_fifty_for_distinct(self):
        rng = np.random.default_rng(19)
        for n in (2, 5, 17):
            values = rng.permutation(n).astype(float).tolist()
            assert sum(self._percentiles(values)) / n == pytest.approx(50.0)

    def test_groups_are_independent(self):
        assert self._percentiles([2.0, 0.5, 1.0], sds=[0, 1, 0]) == [100.0, 100.0, 0.0]

    def test_table_percentiles_are_per_sds(self):
        entries = [("A1", "U1", "S1", None), ("A2", "U1", "S1", None), ("B1", "U1", "S2", None)]
        corpus = solo_corpus(entries)
        table = score_table(list(corpus.researchers.values()), [2.0, 1.0, 0.5], [True] * 3)
        assert table.sds_names == ("S1", "S2")
        assert table.percentile.tolist() == [100.0, 0.0, 100.0]


class TestProductivityStats:
    def test_share_example(self):
        entries = [(f"R{i}", "U1", "S1", 1 if i >= 2 else None) for i in range(10)]
        corpus = solo_corpus(entries)
        scores = scored_table(corpus)
        stats = productivity_stats(scores, corpus.taxonomy)
        share = stats.uda_non_productive["X"]
        assert share.n_sds == 1
        assert share.minimum == share.maximum == share.average == pytest.approx(0.2)
        assert measured_shares(scores).non_productive_share == pytest.approx(0.2)

    def test_uda_average_is_unweighted_over_sds(self):
        entries = (
            [(f"A{i}", "U1", "S1", 1 if i else None) for i in range(2)]  # 50% non-productive
            + [(f"B{i}", "U1", "S2", 1 if i else None) for i in range(10)]  # 10%
        )
        corpus = solo_corpus(entries)
        scores = scored_table(corpus)
        stats = productivity_stats(scores, corpus.taxonomy)
        uda = stats.uda_non_productive["X"]
        assert uda.n_sds == 2
        assert uda.minimum == pytest.approx(0.1)
        assert uda.maximum == pytest.approx(0.5)
        assert uda.average == pytest.approx(0.3)

    def test_nil_share_never_below_non_productive(self):
        rng = np.random.default_rng(29)
        entries = []
        for i in range(60):
            roll = rng.random()
            citations = None if roll < 0.3 else (0 if roll < 0.6 else int(rng.integers(1, 9)))
            entries.append((f"R{i}", "U1", f"S{int(rng.integers(1, 3))}", citations))
        corpus = solo_corpus(entries)
        scores = scored_table(corpus)
        stats = productivity_stats(scores, corpus.taxonomy)
        for uda, nil in stats.uda_nil_impact.items():
            non_productive = stats.uda_non_productive[uda]
            assert nil.minimum >= non_productive.minimum
            assert nil.maximum >= non_productive.maximum
            assert nil.average >= non_productive.average
        shares = measured_shares(scores)
        assert shares.nil_impact_share >= shares.non_productive_share


class TestScoreCorpus:
    def test_restricts_to_active_sds(self):
        entries = (
            [(f"A{i}", "U1", "S1", 1) for i in range(4)]
            + [(f"B{i}", "U1", "S2", 1 if i == 0 else None) for i in range(4)]
        )
        corpus = solo_corpus(entries)
        scored = score_corpus(corpus)
        assert scored.active_sds == active_sds_filter(corpus) == {"S1"}
        assert scored.scores.sds_names == ("S1",)
        assert scored.scores.researcher_ids == ("A0", "A1", "A2", "A3")

    def test_table_is_read_only(self):
        scored = score_corpus(solo_corpus([("R1", "U1", "S1", 1)]))
        with pytest.raises(ValueError):
            scored.scores.ss[0] = 2.0
