"""Property tests: top selection and counterfactual re-ranking over random rosters."""

from hypothesis import given, settings
from hypothesis import strategies as st

from meritrank.aggregation import LEVEL_SDS, LEVEL_UDA
from meritrank.scenario import SCOPE_NATIONAL, SCOPE_UNIT, counterfactual_rankings, select_top
from meritrank.stats import top_count

from conftest import make_taxonomy, scores_with_ss

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
