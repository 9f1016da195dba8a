"""Property tests: scoring, credit, funding, statistics, selection and re-ranking on random inputs."""

import statistics
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from meritrank.aggregation import (
    LEVEL_SDS,
    LEVEL_UDA,
    PSTAR_MEAN_OF_UNITS,
    PSTAR_POOLED,
    RankedUnit,
    level_unit_scores,
    national_averages,
    rank_units,
    sds_unit_scores,
    uda_unit_scores,
)
from meritrank.cli import dispatch
from meritrank.corpus import AuthorSlot, Publication
from meritrank.errors import AllocationError, UndefinedStatisticError
from meritrank.funding import FundingPolicy, allocate, national_top_census
from meritrank.indicators import percentile_ranks, researcher_ss
from meritrank.normalization import (
    EQUAL_FRACTIONAL,
    POSITIONAL,
    CreditScheme,
    compute_baselines,
    slot_credit_shares,
)
from meritrank.scenario import SCOPE_NATIONAL, SCOPE_UNIT, counterfactual_rankings, select_top
from meritrank.stats import average_ranks, classify_quantiles, gini, ordered_sum, quantile_class_sizes, top_count

import oracles
from conftest import make_corpus, make_pub, make_taxonomy, scores_with_ss, selected_ids, table_rows, unit_rows
from oracles import credit_shares, standardize

TAXONOMY = make_taxonomy({"S1": "X", "S2": "X", "S3": "Y", "S4": "Y"})

# Integer-valued SS makes ties common, so the tie-breaks are exercised too.
ss_values = st.one_of(
    st.integers(0, 6).map(float), st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
)
units = st.tuples(
    st.sampled_from(["U1", "U2", "U3", "U4", "U5", "U6", "U7"]), st.sampled_from(TAXONOMY.sds_codes)
)
rosters = st.dictionaries(
    units,
    st.lists(ss_values, min_size=1, max_size=12),
    min_size=1,
    max_size=20,
)
shares = st.one_of(st.just(0.0), st.just(0.2), st.floats(0.0, 1.0))
levels = st.sampled_from([LEVEL_SDS, LEVEL_UDA])

SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(roster=rosters, level=levels, min_staff=st.integers(1, 6))
def test_share_zero_is_identity(roster, level, min_staff):
    corpus, scores = scores_with_ss(roster, taxonomy=TAXONOMY)
    selection = select_top(scores, SCOPE_UNIT, 0.0, min_staff)
    assert not selection.selected.any()
    units = sds_unit_scores(scores)
    reports = counterfactual_rankings(
        corpus.taxonomy, scores, units, selection, level, min_staff=min_staff
    )
    for report in reports.values():
        assert report.hypothetical_rank.tolist() == report.observed_rank.tolist()
        assert not report.delta.any()


@SETTINGS
@given(roster=rosters, level=levels, share=shares, min_staff=st.integers(1, 6))
def test_hypothetical_ranks_permute_the_observed_ones(roster, level, share, min_staff):
    corpus, scores = scores_with_ss(roster, taxonomy=TAXONOMY)
    selection = select_top(scores, SCOPE_UNIT, share, min_staff)
    units = sds_unit_scores(scores)
    reports = counterfactual_rankings(
        corpus.taxonomy, scores, units, selection, level, min_staff=min_staff
    )
    for report in reports.values():
        ranks = list(range(1, len(report.universities) + 1))
        assert sorted(report.observed_rank.tolist()) == ranks
        assert sorted(report.hypothetical_rank.tolist()) == ranks
        assert report.delta.sum() == 0


def _transition_from_class_maps(report, k):
    """The matrix built from two {university: class} maps, each over its own ranking."""
    classes = classify_quantiles(report.universities, k)
    by_observed = [u for _, u in sorted(zip(report.observed_rank.tolist(), report.universities))]
    by_hypothetical = [u for _, u in sorted(zip(report.hypothetical_rank.tolist(), report.universities))]
    observed = dict(zip(by_observed, classes))
    hypothetical = dict(zip(by_hypothetical, classes))
    matrix = [[0] * k for _ in range(k)]
    for university, observed_class in observed.items():
        matrix[observed_class][hypothetical[university]] += 1
    return matrix


# Up to 12 universities per field, so that units can move around a cycle of classes and give a
# matrix that is not symmetric; `rosters` above has too few for that.
wide_rosters = st.lists(
    st.tuples(st.sampled_from(TAXONOMY.sds_codes), st.lists(ss_values, min_size=1, max_size=9)),
    min_size=6,
    max_size=30,
).map(lambda units: {(f"U{i % 12:02d}", sds): values for i, (sds, values) in enumerate(units)})


@SETTINGS
@given(roster=wide_rosters, level=levels, share=shares, min_staff=st.integers(1, 6), k=st.integers(1, 5))
# Ranks 1, 2, 3 become 3, 1, 2: a class cycle, so a transposed matrix would fail.
@example(
    roster={("U3", "S1"): [0.0, 1.0], ("U2", "S1"): [0.0, 0.0, 0.0], ("U1", "S1"): [0.0, 0.0]},
    level=LEVEL_SDS,
    share=0.2,
    min_staff=1,
    k=3,
)
def test_transition_matrix_counts_each_units_rank_classes(roster, level, share, min_staff, k):
    corpus, scores = scores_with_ss(roster, taxonomy=TAXONOMY)
    selection = select_top(scores, SCOPE_UNIT, share, min_staff)
    reports = counterfactual_rankings(
        corpus.taxonomy, scores, sds_unit_scores(scores), selection, level, min_staff=min_staff, k_classes=k
    )
    for report in reports.values():
        matrix = report.transition
        if len(report.universities) < k:
            assert matrix is None
            continue
        sizes = quantile_class_sizes(len(report.universities), k)
        assert [sum(row) for row in matrix] == sizes
        assert [sum(column) for column in zip(*matrix)] == sizes
        if share == 0:
            assert all(matrix[i][j] == 0 for i in range(k) for j in range(k) if i != j)
        assert matrix == _transition_from_class_maps(report, k)


@SETTINGS
@given(
    roster=rosters,
    level=levels,
    share=shares,
    min_staff=st.integers(1, 6),
    pstar_mode=st.sampled_from([PSTAR_MEAN_OF_UNITS, PSTAR_POOLED]),
    refit_pstar=st.booleans(),
)
def test_counterfactual_observed_side_is_the_observed_ranking(
    roster, level, share, min_staff, pstar_mode, refit_pstar
):
    # The ranking `rank` writes: national averages, the level's units, then rank_units.
    _, scores = scores_with_ss(roster, taxonomy=TAXONOMY)
    units = sds_unit_scores(scores)
    p_stars = national_averages(units, pstar_mode)
    rankings = rank_units(level_unit_scores(units, level, p_stars, TAXONOMY), min_staff)
    selection = select_top(scores, SCOPE_UNIT, share, min_staff)
    reports = counterfactual_rankings(
        TAXONOMY, scores, units, selection, level, min_staff,
        pstar_mode=pstar_mode, refit_pstar=refit_pstar,
    )
    assert set(reports) == set(rankings)
    for field, report in reports.items():
        observed = list(zip(report.universities, report.observed_rank.tolist()))
        assert observed == [(u.university_id, u.rank) for u in rankings[field]]


@SETTINGS
@given(roster=rosters, level=levels, share=shares, min_staff=st.integers(1, 6))
@example(roster={("U1", "S1"): [3.0], ("U2", "S1"): [1.0, 2.0]}, level=LEVEL_SDS, share=0.2, min_staff=1)
def test_each_units_gini_is_that_of_its_researchers(roster, level, share, min_staff):
    _, scores = scores_with_ss(roster, taxonomy=TAXONOMY)
    selection = select_top(scores, SCOPE_UNIT, share, min_staff)
    reports = counterfactual_rankings(TAXONOMY, scores, sds_unit_scores(scores), selection, level, min_staff)
    rows = table_rows(scores).values()
    for field, report in reports.items():
        for university, unit_gini in zip(report.universities, report.gini.tolist()):
            values = [
                row["ss"] for row in rows
                if row["university_id"] == university
                and (row["sds"] if level == LEVEL_SDS else TAXONOMY.uda_of(row["sds"])) == field
            ]
            assert unit_gini == (gini(values) if len(values) >= 2 else 0.0)


def _spearman_bits(result):
    return None if result is None else (result.rho.hex(), result.p_value.hex(), result.n)


@SETTINGS
@given(
    roster=st.one_of(rosters, wide_rosters),
    level=levels,
    share=shares,
    # 13 is above every unit's staff: no unit is ranked.
    min_staff=st.one_of(st.integers(1, 6), st.just(13)),
    pstar_mode=st.sampled_from([PSTAR_MEAN_OF_UNITS, PSTAR_POOLED]),
    refit_pstar=st.booleans(),
    k=st.integers(1, 5),
)
@example(
    roster={("U3", "S1"): [0.0, 1.0], ("U2", "S1"): [0.0, 0.0, 0.0], ("U1", "S1"): [0.0, 0.0]},
    level=LEVEL_SDS,
    share=0.2,
    min_staff=1,
    pstar_mode=PSTAR_MEAN_OF_UNITS,
    refit_pstar=False,
    k=3,
)
@example(
    roster={("U1", "S1"): [1.0, 2.0], ("U2", "S3"): [4.0]},
    level=LEVEL_UDA,
    share=0.2,
    min_staff=13,
    pstar_mode=PSTAR_POOLED,
    refit_pstar=True,
    k=1,
)
def test_counterfactual_matches_the_per_record_oracle(roster, level, share, min_staff, pstar_mode, refit_pstar, k):
    """Ranks, deltas, Gini values, Spearman results and transition matrices equal the per-record
    join's bit for bit; with no unit on the roster both give no report."""
    _, scores = scores_with_ss(roster, taxonomy=TAXONOMY)
    selection = select_top(scores, SCOPE_UNIT, share, min_staff)
    options = dict(min_staff=min_staff, k_classes=k, pstar_mode=pstar_mode, refit_pstar=refit_pstar)
    units = sds_unit_scores(scores)
    reports = counterfactual_rankings(TAXONOMY, scores, units, selection, level, **options)
    expected = oracles.counterfactual_rankings(TAXONOMY, scores, units, selection, level, **options)
    if min_staff == 13:
        assert reports == expected == {}
    assert list(reports) == list(expected)
    for field, report in reports.items():
        record = expected[field]
        assert report.field == record.field == field
        ranks = (report.observed_rank, report.hypothetical_rank, report.delta)
        ginis = map(float.hex, report.gini.tolist())
        assert list(zip(report.universities, *(column.tolist() for column in ranks), ginis)) == [
            (u.university_id, u.observed_rank, u.hypothetical_rank, u.delta, u.gini_observed.hex())
            for u in record.units
        ]
        assert _spearman_bits(report.spearman_obs_hyp) == _spearman_bits(record.spearman_obs_hyp)
        assert _spearman_bits(report.spearman_shift_gini) == _spearman_bits(record.spearman_shift_gini)
        assert report.transition == record.transition


@SETTINGS
@given(
    roster=rosters,
    scope=st.sampled_from([SCOPE_UNIT, SCOPE_NATIONAL]),
    share=shares,
    min_staff=st.integers(1, 6),
)
def test_select_top_picks_the_top_count_of_every_qualifying_group(roster, scope, share, min_staff):
    # Oracle: sort each qualifying group by (-ss, id) and take its top count.
    _, scores = scores_with_ss(roster, taxonomy=TAXONOMY)
    groups: dict = {}
    for rid, row in table_rows(scores).items():
        key = (row["university_id"], row["sds"]) if scope == SCOPE_UNIT else row["sds"]
        groups.setdefault(key, []).append((-row["ss"], rid))
    expected = set()
    for members in groups.values():
        if len(members) >= min_staff:
            expected.update(rid for _, rid in sorted(members)[: top_count(share, len(members))])
    selection = select_top(scores, scope, share, min_staff)
    assert selection.selected.dtype == bool
    assert selection.selected.tolist() == [rid in expected for rid in scores.ids]


def _orderings(roster, pstar_mode):
    _, scores = scores_with_ss(roster, taxonomy=TAXONOMY)
    fields = sds_unit_scores(scores)
    areas = uda_unit_scores(fields, national_averages(fields, pstar_mode), TAXONOMY)
    return [
        {code: [u.university_id for u in ranking] for code, ranking in rank_units(x, 1).items()}
        for x in (fields, areas)
    ]


@SETTINGS
@given(
    roster=st.dictionaries(
        units,
        st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 100.0)), min_size=1, max_size=8),
        min_size=1,
        max_size=20,
    ),
    exponent=st.integers(-8, 8),
    pstar_mode=st.sampled_from([PSTAR_MEAN_OF_UNITS, PSTAR_POOLED]),
)
def test_rankings_ignore_a_common_scale(roster, exponent, pstar_mode):
    # A power of two scales every sum and ratio exactly, so even near-ties keep their order.
    scaled = {unit: [ss * 2.0**exponent for ss in values] for unit, values in roster.items()}
    assert _orderings(scaled, pstar_mode) == _orderings(roster, pstar_mode)


# --- scoring -----------------------------------------------------------------

SCORING_TAXONOMY = make_taxonomy({"S1": "X", "S3": "LIFE"})
RESEARCHER_IDS = ("R0", "R1", "R2", "R3", "R4")


@st.composite
def small_corpora(draw):
    """Corpora where life-science and other researchers share publications and one
    researcher may hold two slots of a publication, which generated corpora never have.

    Publications have one to three categories and up to ten authors, whose
    slots are listed in a random order of positions; from eight slots on,
    numpy's pairwise `np.sum` would add a publication's weights in another
    order than `sum`.
    """
    researchers = [
        (rid, "U1", draw(st.sampled_from(["S1", "S3"])), draw(st.integers(1, 5)))
        for rid in RESEARCHER_IDS
    ]
    publications = []
    for p in range(draw(st.integers(0, 8))):
        n_authors = draw(st.integers(1, 10))
        positions = draw(st.permutations(range(1, n_authors + 1)))
        slots = tuple(
            AuthorSlot(
                position,
                draw(st.booleans()),
                draw(st.one_of(st.none(), st.sampled_from(RESEARCHER_IDS))),
            )
            for position in positions
        )
        categories = draw(st.lists(st.sampled_from(["C1", "C2", "C3"]), min_size=1, max_size=3, unique=True))
        publications.append(
            Publication(
                f"P{p}",
                draw(st.integers(2004, 2008)),
                "article",
                draw(st.integers(0, 40)),
                tuple(categories),
                slots,
            )
        )
    return make_corpus(researchers, publications, taxonomy=SCORING_TAXONOMY)


# Weights that are not sums of powers of two make the order of additions show in the last bit.
credit_schemes = st.builds(
    CreditScheme,
    mode=st.sampled_from([EQUAL_FRACTIONAL, POSITIONAL]),
    first_weight=st.sampled_from([1.0, 2.0, 3.5, 1.3]),
    last_weight=st.sampled_from([1.0, 2.0, 0.7]),
    middle_weight=st.sampled_from([0.5, 1.0, 0.1]),
    extramural_discount=st.sampled_from([0.3, 0.5, 1.0]),
)


# Eight slots weighing 1.3, six times 0.1 and 0.7 add up to 2.6000000000000005 in
# slot order and to 2.6 in np.sum's pairwise order and in the compensated built-in
# `sum` of Python 3.12 on.
EIGHT_AUTHORS = make_corpus(
    [("R0", "U1", "S3", 5)],
    [make_pub("P0", ["R0"] + [None] * 7, citations=5)],
    taxonomy=SCORING_TAXONOMY,
)


@SETTINGS
@given(corpus=small_corpora(), scheme=credit_schemes)
@example(corpus=EIGHT_AUTHORS, scheme=CreditScheme(POSITIONAL, 1.3, 0.7, 0.1, 1.0))
def test_researcher_ss_matches_a_per_researcher_sum(corpus, scheme):
    baselines = compute_baselines(corpus)
    ss, non_productive = researcher_ss(corpus, baselines, scheme)
    assert len(ss) == len(non_productive) == len(corpus.researchers)
    res = corpus.researchers
    for row, rid in enumerate(res.ids):
        life = corpus.taxonomy.is_life_science(res.sds_names[res.sds[row]])
        total = 0.0
        pub_ids = set()
        for pub in corpus.publications:
            for slot in pub.authors:
                if slot.researcher_id == rid:
                    total += standardize(pub, baselines) * credit_shares(pub, scheme, life)[slot.position]
                    pub_ids.add(pub.id)
        assert ss[row] == total / res.years_in_post[row]
        assert non_productive[row] == (not pub_ids)


@SETTINGS
@given(
    records=st.lists(
        st.tuples(
            st.lists(st.sampled_from(["C1", "C2", "C3"]), min_size=1, max_size=3, unique=True),
            st.integers(2004, 2008),
            st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 10**6)),
        ),
        max_size=40,
    )
)
# An even stratum whose median is 0 and whose mean is positive: the fallback case.
@example(records=[(["C1"], 2005, 0), (["C1"], 2005, 0), (["C1"], 2005, 0), (["C1"], 2005, 7)])
def test_compute_baselines_matches_a_median_and_mean_oracle(records):
    pubs = [
        make_pub(f"P{i}", ["R0"], year=year, citations=citations, categories=categories)
        for i, (categories, year, citations) in enumerate(records)
    ]
    corpus = make_corpus([("R0", "U1", "S1", 5)], pubs, taxonomy=SCORING_TAXONOMY)
    strata: dict = {}
    for categories, year, citations in records:
        for category in categories:
            strata.setdefault((category, year), []).append(citations)
    baselines = compute_baselines(corpus)
    assert list(baselines) == list(strata)
    for (category, year), cites in strata.items():
        baseline = baselines[(category, year)]
        median = float(statistics.median(cites))
        mean = sum(cites) / len(cites)
        assert baseline.median_citations == median
        assert baseline.mean_citations == mean
        assert baseline.scale == (median if median > 0 else mean)


@SETTINGS
@given(corpus=small_corpora(), scheme=credit_schemes, life=st.booleans())
def test_credit_shares_sum_to_one(corpus, scheme, life):
    pubs = corpus.publications
    shares = slot_credit_shares(pubs, scheme, np.full(len(pubs.slot_position), life))
    assert len(shares) == len(pubs.slot_position)
    offsets = pubs.slot_offsets.tolist()
    for start, stop in zip(offsets, offsets[1:]):
        assert all(share > 0 for share in shares[start:stop].tolist())
        assert sum(shares[start:stop].tolist()) == pytest.approx(1.0, abs=1e-12)


@SETTINGS
@given(
    roster=st.dictionaries(
        st.tuples(st.sampled_from(["U1", "U2", "U3", "U4"]), st.sampled_from(["S1", "S2", "S3"])),
        st.lists(st.integers(0, 5).map(float), min_size=1, max_size=10),
        min_size=1,
        max_size=12,
    )
)
def test_percentiles_are_bounded_and_follow_ss(roster):
    _, scores = scores_with_ss(roster)
    rows = list(table_rows(scores).values())
    for a in rows:
        assert 0.0 <= a["percentile"] <= 100.0
        assert a["nil_impact"] == (a["ss"] == 0.0)
        for b in rows:
            if a["sds"] == b["sds"] and a["ss"] == b["ss"]:
                assert a["percentile"] == b["percentile"]
            if a["sds"] == b["sds"] and a["ss"] > b["ss"]:
                assert a["percentile"] > b["percentile"]


# --- the score table's grouping against per-group oracles -----------------------


def average_ranks_loop(x):
    """Ranks 1..n, ties sharing the mean of the ranks they span: one run of equal values at a time."""
    order = np.argsort(x, kind="mergesort")
    sx = x[order]
    ranks = np.empty(x.size, dtype=float)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def percentiles_per_group(groups, values):
    """Percentiles group by group, from the loop's ranks: 100 * (r - 1) / (n - 1), 100 alone."""
    out = np.empty(len(values))
    for group in set(groups.tolist()):
        rows = np.flatnonzero(groups == group)
        n = len(rows)
        out[rows] = 100.0 if n == 1 else 100.0 * (average_ranks_loop(values[rows]) - 1) / (n - 1)
    return out


tied_values = st.lists(ss_values, min_size=0, max_size=40)


@SETTINGS
@given(values=tied_values)
@example(values=[1.0, 0.0, 1.0, 1.0, 0.5, 0.0])
def test_average_ranks_matches_the_loop(values):
    x = np.array(values, dtype=float)
    assert average_ranks(x).tolist() == average_ranks_loop(x).tolist()


@SETTINGS
@given(rows=st.lists(st.tuples(st.integers(0, 4), ss_values), min_size=0, max_size=40))
@example(rows=[(1, 2.0), (0, 2.0), (1, 2.0), (1, 0.0), (2, 5.0), (0, 1.0)])
def test_percentiles_match_per_sds_oracle_ranks(rows):
    groups = np.array([g for g, _ in rows], dtype=np.int64)
    values = np.array([v for _, v in rows], dtype=float)
    assert percentile_ranks(groups, values).tolist() == percentiles_per_group(groups, values).tolist()


@SETTINGS
@given(roster=rosters, data=st.data())
def test_sds_unit_scores_match_ordered_sums_per_unit(roster, data):
    _, scores = scores_with_ss(roster, taxonomy=TAXONOMY)
    keep = data.draw(st.lists(st.booleans(), min_size=len(scores), max_size=len(scores)))
    members: dict = {}
    for row, kept in zip(table_rows(scores).values(), keep):
        members.setdefault((row["university_id"], row["sds"]), []).append((row["ss"], kept))
    expected = []
    for (university, sds), unit in sorted(members.items()):
        values = [ss for ss, kept in unit if kept]
        score = ordered_sum(values) / len(values) if values else 0.0
        expected.append((university, sds, score, len(values), len(unit)))
    assert unit_rows(sds_unit_scores(scores, np.array(keep, dtype=bool))) == expected


def _record_level(units, level, p_stars):
    return units if level == LEVEL_SDS else oracles.uda_unit_scores(units, p_stars, TAXONOMY)


def _record_hypothetical_rankings(observed, hypothetical):
    """Each observed ranking's roster re-ordered on the hypothetical per-record units; a unit
    absent from them, having lost all its staff, scores (0.0, 0)."""
    values = {(u.university_id, u.field): (u.score, u.staff) for u in hypothetical}
    return {
        field: oracles.order_units(
            [(u.university_id, *values.get((u.university_id, field), (0.0, 0))) for u in ranking]
        )
        for field, ranking in observed.items()
    }


def _staffed(units):
    return [row[:4] for row in unit_rows(units) if row[3] > 0]


@SETTINGS
@given(
    roster=rosters,
    keep=st.lists(st.booleans(), max_size=240),
    emptied=st.sets(units),
    pstar_mode=st.sampled_from([PSTAR_MEAN_OF_UNITS, PSTAR_POOLED]),
    min_staff=st.integers(1, 6),
)
# U1 and U2 tie on S1's score with different staff; emptying U1-S1 leaves a staff-0 unit that a refit
# mean must skip; dropping U2-S1's first row leaves it 1 of 2 staff in its composite.
@example(
    roster={("U1", "S1"): [2.0], ("U2", "S1"): [1.0, 3.0], ("U2", "S2"): [4.0]},
    keep=[True, False],
    emptied={("U1", "S1")},
    pstar_mode=PSTAR_MEAN_OF_UNITS,
    min_staff=1,
)
def test_unit_tables_match_the_per_record_oracles(roster, keep, emptied, pstar_mode, min_staff):
    """Units, national averages, composites and both rankings equal the per-record versions bit for bit,
    with averages frozen and refit; rows past `keep` are kept, rows of `emptied` units are not."""
    _, scores = scores_with_ss(roster, taxonomy=TAXONOMY)
    kept = np.array(
        [
            (keep[i] if i < len(keep) else True) and (row["university_id"], row["sds"]) not in emptied
            for i, row in enumerate(table_rows(scores).values())
        ],
        dtype=bool,
    )
    sds_units, hyp_units = sds_unit_scores(scores), sds_unit_scores(scores, kept)
    record_units, record_hyp = oracles.sds_unit_scores(scores), oracles.sds_unit_scores(scores.rows(kept))
    assert unit_rows(sds_units) == [astuple(u) for u in record_units]
    assert _staffed(hyp_units) == [astuple(u)[:4] for u in record_hyp]
    p_stars, refit = national_averages(sds_units, pstar_mode), national_averages(hyp_units, pstar_mode)
    assert p_stars == oracles.national_averages(record_units, pstar_mode)
    assert refit == oracles.national_averages(record_hyp, pstar_mode)
    for level in (LEVEL_SDS, LEVEL_UDA):
        observed = oracles.rank_units(_record_level(record_units, level, p_stars), min_staff)
        assert rank_units(level_unit_scores(sds_units, level, p_stars, TAXONOMY), min_staff) == observed
        for hyp_pstars in (p_stars, refit):
            hypothetical = level_unit_scores(hyp_units, level, hyp_pstars, TAXONOMY)
            record = _record_level(record_hyp, level, hyp_pstars)
            assert _staffed(hypothetical) == [astuple(u)[:4] for u in record]
            assert rank_units(hypothetical, min_staff) == _record_hypothetical_rankings(observed, record)


def test_loading_and_scoring_build_no_records(tmp_path, monkeypatch):
    """Generating, writing, loading and scoring a corpus reads columns only: no record is built."""
    profile = tmp_path / "profile.json"
    profile.write_text('{"n_universities": 6, "sds_per_uda": {"A": 2, "B": 2}, "life_science_udas": ["B"]}')

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    monkeypatch.setattr(AuthorSlot, "__init__", refuse)
    monkeypatch.setattr(Publication, "__init__", refuse)
    assert dispatch(["report-all", "--profile", str(profile), "--out", str(tmp_path / "gen")]) == 0
    corpus = str(tmp_path / "gen" / "corpus")
    argv = ["report-all", "--corpus", corpus, "--credit", "positional", "--out", str(tmp_path / "load")]
    assert dispatch(argv) == 0


# --- funding and statistics --------------------------------------------------


@SETTINGS
@given(
    staffs=st.lists(st.integers(0, 40), min_size=2, max_size=25),
    n_classes=st.integers(2, 5),
    ratio=st.fractions(min_value=Fraction(11, 10), max_value=5, max_denominator=20),
    bottom_funded=st.booleans(),
    budget=st.fractions(min_value=Fraction(1, 7), max_value=10**7, max_denominator=1000),
)
def test_allocate_conserves_budget_and_adjacent_ratio(staffs, n_classes, ratio, bottom_funded, budget):
    assume(len(staffs) >= n_classes)
    policy = FundingPolicy(n_classes, ratio, bottom_funded, budget)
    units = [RankedUnit(i + 1, f"U{i:02d}", float(-i), staff) for i, staff in enumerate(staffs)]
    weights = policy.class_weights()
    classes = classify_quantiles(units, n_classes)
    if all(staff * weights[c] == 0 for staff, c in zip(staffs, classes)):
        with pytest.raises(AllocationError):
            allocate(units, policy)
        return
    allocation = allocate(units, policy)
    assert allocation.total == budget
    per_capita: dict[int, set] = {}
    for unit in allocation.units:
        if unit.staff:
            per_capita.setdefault(unit.class_index, set()).add(unit.per_capita)
    assert all(len(values) == 1 for values in per_capita.values())
    funded = n_classes if bottom_funded else n_classes - 1
    for c in range(funded - 1):
        if c in per_capita and c + 1 in per_capita:
            (upper,), (lower,) = per_capita[c], per_capita[c + 1]
            assert upper == lower * ratio
    if not bottom_funded and n_classes - 1 in per_capita:
        assert per_capita[n_classes - 1] == {Fraction(0)}


# Up to ten universities, so an area can hold six ranked ones and still leave some unranked.
census_rosters = st.dictionaries(
    st.tuples(st.sampled_from([f"U{i:02d}" for i in range(10)]), st.sampled_from(TAXONOMY.sds_codes)),
    st.lists(ss_values, min_size=1, max_size=8),
    min_size=1,
    max_size=30,
)


@SETTINGS
@given(
    roster=census_rosters,
    min_staff=st.integers(1, 4),
    share=shares,
    ratio=st.fractions(min_value=Fraction(11, 10), max_value=5, max_denominator=20),
    bottom_funded=st.booleans(),
    data=st.data(),
)
def test_census_partitions_the_area_tops_over_its_allocation(
    roster, min_staff, share, ratio, bottom_funded, data
):
    corpus, scores = scores_with_ss(roster, taxonomy=TAXONOMY)
    units = sds_unit_scores(scores)
    p_stars = national_averages(units)
    rankings = rank_units(level_unit_scores(units, LEVEL_UDA, p_stars, TAXONOMY), min_staff)
    assume(any(len(ranking) >= 2 for ranking in rankings.values()))
    uda = data.draw(st.sampled_from(sorted(u for u, r in rankings.items() if len(r) >= 2)))
    n_classes = data.draw(st.integers(2, min(6, len(rankings[uda]))))
    policy = FundingPolicy(n_classes, ratio, bottom_funded, 1000)
    allocation = allocate(rankings[uda], policy)
    selection = select_top(scores, SCOPE_NATIONAL, share, min_staff)
    census = national_top_census(scores, TAXONOMY, uda, allocation, selection)

    assert len(census.class_totals) == policy.n_classes
    classes = allocation.class_of()
    for row in census.universities:
        assert row.class_index == classes.get(row.university_id)
    rows = table_rows(scores)
    area_tops = [rid for rid in selected_ids(scores, selection) if TAXONOMY.uda_of(rows[rid]["sds"]) == uda]
    unclassified_tops = sum(row.top_count for row in census.universities if row.class_index is None)
    assert sum(census.class_totals) + unclassified_tops == len(area_tops)


nonnegative = st.one_of(
    st.integers(0, 5).map(float),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False, allow_subnormal=False),
)


@SETTINGS
@given(values=st.lists(nonnegative, min_size=2, max_size=30))
def test_gini_bounds_and_pairwise_oracle(values):
    n = len(values)
    result = gini(values)
    assert -1e-12 <= result <= (n - 1) / n + 1e-12
    total = sum(values)
    if total == 0:
        assert result == 0.0
        return
    pairwise = sum(abs(a - b) for a in values for b in values) / (2 * n * total)
    assert result == pytest.approx(pairwise, rel=1e-9, abs=1e-12)


@SETTINGS
@given(n=st.integers(0, 300), k=st.integers(1, 25))
def test_quantile_class_sizes_differ_by_at_most_one(n, k):
    if n < k:
        with pytest.raises(UndefinedStatisticError):
            quantile_class_sizes(n, k)
        return
    sizes = quantile_class_sizes(n, k)
    assert len(sizes) == k
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
