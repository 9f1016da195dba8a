"""Property tests: scoring, credit, funding, statistics, selection and re-ranking on random inputs."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meritrank.aggregation import (
    LEVEL_SDS,
    LEVEL_UDA,
    PSTAR_MEAN_OF_UNITS,
    PSTAR_POOLED,
    RankedUnit,
    national_averages,
    rank_units,
    sds_unit_scores,
    uda_unit_scores,
)
from meritrank.corpus import AuthorSlot, Publication
from meritrank.errors import AllocationError, UndefinedStatisticError
from meritrank.funding import FundingPolicy, allocate
from meritrank.indicators import percentile_ranks, researcher_ss
from meritrank.normalization import (
    EQUAL_FRACTIONAL,
    POSITIONAL,
    CreditScheme,
    compute_baselines,
    credit_shares,
    standardize,
)
from meritrank.scenario import SCOPE_NATIONAL, SCOPE_UNIT, counterfactual_rankings, select_top
from meritrank.stats import classify_quantiles, gini, quantile_class_sizes, top_count

from conftest import make_corpus, make_taxonomy, scores_with_ss

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
    assert selection.all_selected() == frozenset()
    reports = counterfactual_rankings(corpus, scores, selection, level, min_staff=min_staff)
    for report in reports.values():
        assert all(u.hypothetical_rank == u.observed_rank and u.delta == 0 for u in report.units)


@SETTINGS
@given(roster=rosters, level=levels, share=shares, min_staff=st.integers(1, 6))
def test_hypothetical_ranks_permute_the_observed_ones(roster, level, share, min_staff):
    corpus, scores = scores_with_ss(roster, taxonomy=TAXONOMY)
    selection = select_top(scores, SCOPE_UNIT, share, min_staff)
    reports = counterfactual_rankings(corpus, scores, selection, level, min_staff=min_staff)
    for report in reports.values():
        ranks = list(range(1, len(report.units) + 1))
        assert sorted(u.observed_rank for u in report.units) == ranks
        assert sorted(u.hypothetical_rank for u in report.units) == ranks
        assert sum(u.delta for u in report.units) == 0


@SETTINGS
@given(
    roster=rosters,
    scope=st.sampled_from([SCOPE_UNIT, SCOPE_NATIONAL]),
    share=shares,
    min_staff=st.integers(1, 6),
)
def test_select_top_picks_the_top_count_of_every_qualifying_group(roster, scope, share, min_staff):
    _, scores = scores_with_ss(roster, taxonomy=TAXONOMY)
    groups: dict = {}
    for score in scores.values():
        key = (score.university_id, score.sds) if scope == SCOPE_UNIT else score.sds
        groups.setdefault(key, []).append(score)
    selection = select_top(scores, scope, share, min_staff)
    qualifying = {key for key, members in groups.items() if len(members) >= min_staff}
    assert set(selection.selected) == qualifying
    for key, picked in selection.selected.items():
        members = groups[key]
        assert len(picked) == top_count(share, len(members))
        picked_ss = [scores[rid].ss for rid in picked]
        rest_ss = [s.ss for s in members if s.researcher_id not in picked]
        assert not rest_ss or not picked_ss or min(picked_ss) >= max(rest_ss)


def _orderings(roster, pstar_mode):
    _, scores = scores_with_ss(roster, taxonomy=TAXONOMY)
    fields = sds_unit_scores(scores)
    areas = uda_unit_scores(fields, national_averages(fields, pstar_mode), TAXONOMY)
    return [
        {code: [u.university_id for u in ranking] for code, ranking in rank_units(x, level, 1).items()}
        for x, level in ((fields, LEVEL_SDS), (areas, LEVEL_UDA))
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
    researcher may hold two slots of a publication, which generated corpora never have."""
    researchers = [
        (rid, "U1", draw(st.sampled_from(["S1", "S3"])), draw(st.integers(1, 5)))
        for rid in RESEARCHER_IDS
    ]
    publications = []
    for p in range(draw(st.integers(0, 8))):
        n_authors = draw(st.integers(1, 5))
        positions = draw(st.permutations(range(1, n_authors + 1)))
        slots = tuple(
            AuthorSlot(
                position,
                draw(st.booleans()),
                draw(st.one_of(st.none(), st.sampled_from(RESEARCHER_IDS))),
            )
            for position in positions
        )
        categories = draw(st.lists(st.sampled_from(["C1", "C2", "C3"]), min_size=1, max_size=2, unique=True))
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


credit_schemes = st.builds(
    CreditScheme,
    mode=st.sampled_from([EQUAL_FRACTIONAL, POSITIONAL]),
    first_weight=st.sampled_from([1.0, 2.0, 3.5]),
    last_weight=st.sampled_from([1.0, 2.0]),
    middle_weight=st.sampled_from([0.5, 1.0]),
    extramural_discount=st.sampled_from([0.3, 0.5, 1.0]),
)


@SETTINGS
@given(corpus=small_corpora(), scheme=credit_schemes)
def test_researcher_ss_matches_a_per_researcher_sum(corpus, scheme):
    baselines = compute_baselines(corpus)
    scores = researcher_ss(corpus, baselines, scheme)
    assert list(scores) == list(corpus.researchers)
    for rid, researcher in corpus.researchers.items():
        life = corpus.taxonomy.is_life_science(researcher.sds)
        total = 0.0
        pub_ids = set()
        for pub in corpus.publications:
            for slot in pub.authors:
                if slot.researcher_id == rid:
                    total += standardize(pub, baselines) * credit_shares(pub, scheme, life)[slot.position]
                    pub_ids.add(pub.id)
        assert scores[rid].ss == total / researcher.years_in_post
        assert scores[rid].raw_pub_count == len(pub_ids)
        assert scores[rid].non_productive == (not pub_ids)
        assert scores[rid].nil_impact == (total == 0.0)


@SETTINGS
@given(corpus=small_corpora(), scheme=credit_schemes, life=st.booleans())
def test_credit_shares_sum_to_one(corpus, scheme, life):
    for pub in corpus.publications:
        shares = credit_shares(pub, scheme, life)
        assert sorted(shares) == list(range(1, len(pub.authors) + 1))
        assert all(share > 0 for share in shares.values())
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)


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
    percentile_ranks(scores)
    for a in scores.values():
        assert 0.0 <= a.percentile <= 100.0
        for b in scores.values():
            if a.sds == b.sds and a.ss == b.ss:
                assert a.percentile == b.percentile
            if a.sds == b.sds and a.ss > b.ss:
                assert a.percentile > b.percentile


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


nonnegative = st.one_of(
    st.integers(0, 5).map(float),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False, allow_subnormal=False),
)


@SETTINGS
@given(values=st.lists(nonnegative, min_size=2, max_size=30))
def test_gini_bounds_and_pairwise_oracle(values):
    n = len(values)
    result = gini(values)
    assert result.n == n
    assert -1e-12 <= result.value <= (n - 1) / n + 1e-12
    total = sum(values)
    if total == 0:
        assert result.value == 0.0
        return
    pairwise = sum(abs(a - b) for a in values for b in values) / (2 * n * total)
    assert result.value == pytest.approx(pairwise, rel=1e-9, abs=1e-12)


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
