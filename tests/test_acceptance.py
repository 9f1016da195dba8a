"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from meritrank.aggregation import RankedUnit, rank_units, sds_unit_scores, uda_unit_scores
from meritrank.cli import dispatch
from meritrank.corpus import Taxonomy
from meritrank.funding import FundingPolicy, allocate, national_top_census, paradox_report
from meritrank.indicators import score_corpus
from meritrank.normalization import EQUAL_FRACTIONAL, POSITIONAL, CreditScheme
from meritrank.scenario import SCOPE_NATIONAL, SCOPE_UNIT, counterfactual_rankings, select_top
from meritrank.stats import gini, quantile_class_sizes, spearman
from meritrank.synth import CalibrationTargets, GeneratorProfile, calibrate, generate

from conftest import credit_by_position, make_pub, make_slot, make_units, scores_with_ss, make_taxonomy


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _gini_pairwise_oracle(values) -> float:
    x = np.asarray(values, dtype=float)
    n = x.size
    total = x.sum()
    if total == 0:
        return 0.0
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2 * n * total))


def test_criterion_1_gini_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 201))
        x = rng.uniform(0, 1000, size=n)
        x[rng.random(n) < 0.25] = 0.0
        if x.sum() == 0:
            x[0] = 1.0
        worst = max(worst, abs(gini(x) - _gini_pairwise_oracle(x)))
    fixed = (
        gini([5, 5, 5, 5]) == 0.0
        and abs(gini([0, 0, 0, 1]) - 0.75) < 1e-15
        and abs(gini([1, 2, 3, 4]) - 0.25) < 1e-15
    )
    elapsed = time.perf_counter() - started
    _report(
        1,
        "Gini oracle equivalence",
        worst < 1e-12 and fixed and elapsed < 5.0,
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_spearman():
    x = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    identity_ok = spearman(x, [v * 3 + 2 for v in x]).rho == 1.0
    reversal_ok = spearman(x, [-v for v in x]).rho == -1.0
    worked = spearman([1, 2, 3, 4, 5], [1, 3, 2, 5, 4])
    worked_ok = worked.rho == 0.8

    def enumerated_p(xs, ys):
        obs = scipy.stats.spearmanr(xs, ys).statistic
        hits = total = 0
        for perm in itertools.permutations(ys):
            hits += abs(scipy.stats.spearmanr(xs, perm).statistic) >= abs(obs) - 1e-12
            total += 1
        return hits / total

    perm_ok = True
    cases = [
        ([1, 2, 3, 4, 5], [1, 3, 2, 5, 4]),
        ([1.0, 2.0, 2.0, 4.0, 5.0, 6.0], [2.0, 1.0, 4.0, 4.0, 3.0, 6.0]),  # ties
        ([1, 2, 3, 4, 5, 6, 7], [3, 1, 7, 2, 6, 4, 5]),
    ]
    for xs, ys in cases:
        perm_ok &= abs(spearman(xs, ys).p_value - enumerated_p(xs, ys)) < 1e-12

    # n = 9, no ties: enumerate with the closed d^2 formula instead of scipy.
    ys9 = [4, 1, 8, 2, 9, 3, 7, 5, 6]
    ours = spearman(list(range(1, 10)), ys9)
    n = 9
    hits = total = 0
    for perm in itertools.permutations(range(1, 10)):
        d2 = sum((i + 1 - p) ** 2 for i, p in enumerate(perm))
        rho = 1.0 - 6.0 * d2 / (n * (n * n - 1))
        hits += abs(rho) >= abs(ours.rho) - 1e-12
        total += 1
    perm_ok &= abs(ours.p_value - hits / total) < 1e-12

    _report(
        2,
        "Spearman fixed values and exact permutation p-values",
        identity_ok and reversal_ok and worked_ok and perm_ok,
        f"worked rho={worked.rho}",
    )


def test_criterion_3_credit_conservation():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        slots = [make_slot(i + 1, f"R{i}", bool(rng.random() < 0.7)) for i in range(n)]
        pub = make_pub("P", slots, citations=int(rng.integers(0, 50)))
        mode = POSITIONAL if rng.random() < 0.5 else EQUAL_FRACTIONAL
        scheme = CreditScheme(
            mode=mode,
            first_weight=float(rng.uniform(0.5, 4.0)),
            last_weight=float(rng.uniform(0.5, 4.0)),
            middle_weight=float(rng.uniform(0.5, 4.0)),
            extramural_discount=float(rng.uniform(0.05, 1.0)),
        )
        total = sum(credit_by_position(pub, scheme, bool(rng.random() < 0.5)).values())
        worst = max(worst, abs(total - 1.0))
    _report(3, "credit conservation over 1,000 random publications", worst < 1e-12, f"max |sum-1| {worst:.2e}")


def test_criterion_4_uda_identity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        n_sds = int(rng.integers(1, 13))
        mapping = {f"S{i}": "X" for i in range(n_sds)}
        taxonomy = Taxonomy(mapping, {"X": "Area X"}, frozenset())
        units = []
        p_stars = {}
        for i in range(n_sds):
            per_capita = float(rng.uniform(0.05, 5.0))
            staff = int(rng.integers(1, 40))
            units.append(("U1", f"S{i}", per_capita, staff))
            p_stars[f"S{i}"] = per_capita
        (score,) = uda_unit_scores(make_units(units), p_stars, taxonomy).score.tolist()
        worst = max(worst, abs(score - 1.0))
    _report(4, "SS_UDA identity on 100 random staff configurations", worst < 1e-12, f"max |score-1| {worst:.2e}")


def test_criterion_5_funding_conservation_and_ratios():
    units = [RankedUnit(i + 1, f"U{i + 1}", float(4 - i), 10) for i in range(4)]
    allocation = allocate(units, FundingPolicy(budget=130))
    fixed_ok = [u.amount for u in allocation.units] == [
        Fraction(90),
        Fraction(30),
        Fraction(10),
        Fraction(0),
    ]
    rng = np.random.default_rng(105)
    conserve_ok = ratio_ok = True
    for _ in range(100):
        n = int(rng.integers(4, 30))
        roster = [
            RankedUnit(i + 1, f"U{i + 1:02d}", float(n - i), int(rng.integers(1, 60)))
            for i in range(n)
        ]
        budget = Fraction(int(rng.integers(1, 10**7)), int(rng.integers(1, 100)))
        allocation = allocate(roster, FundingPolicy(budget=budget))
        conserve_ok &= allocation.total == budget
        per_class = {}
        for unit in allocation.units:
            per_class.setdefault(unit.class_index, unit.per_capita)
        for c in (0, 1):
            if c in per_class and c + 1 in per_class and per_class[c + 1] > 0:
                ratio_ok &= per_class[c] / per_class[c + 1] == Fraction(3)
    _report(
        5,
        "funding conservation and exact 3:1 adjacent ratios",
        fixed_ok and conserve_ok and ratio_ok,
        "conservation exact (rational arithmetic)",
    )


def test_criterion_6_quantile_splitting():
    ok = quantile_class_sizes(48, 4) == [12, 12, 12, 12] and quantile_class_sizes(42, 5) == [
        9,
        8,
        8,
        8,
        9,
    ]
    _report(6, "quantile splitting matches the table marginals", ok)


def test_criterion_7_counterfactual_identity_and_demotion():
    corpus, scores = scores_with_ss(
        {
            ("UA", "S1"): [100.0, 0.0, 0.0, 0.0, 0.0],
            ("UB", "S1"): [3.0, 3.0, 3.0, 3.0, 3.0],
            ("UC", "S1"): [5.0, 4.0, 3.0, 2.0, 1.0],
        }
    )
    units = sds_unit_scores(scores)
    identity = counterfactual_rankings(
        corpus.taxonomy, scores, units, select_top(scores, SCOPE_UNIT, share=0.0), "sds"
    )["S1"]
    identity_ok = identity.observed_rank.tolist() == identity.hypothetical_rank.tolist()

    removed = counterfactual_rankings(
        corpus.taxonomy, scores, units, select_top(scores, SCOPE_UNIT, share=0.2), "sds"
    )["S1"]
    observed = dict(zip(removed.universities, removed.observed_rank.tolist()))
    hypothetical = dict(zip(removed.universities, removed.hypothetical_rank.tolist()))
    demotion_ok = observed["UA"] == 1 and hypothetical["UA"] > hypothetical["UB"]
    _report(7, "counterfactual identity at share 0 and concentration demotion", identity_ok and demotion_ok)


def test_criterion_8_sign_reproduction():
    started = time.perf_counter()
    negative_hits = positive_hits = 0
    gini_spans = []
    for seed in range(10):
        profile = GeneratorProfile(
            n_universities=35,
            sds_per_uda={"A": 1},
            life_science_udas=(),
            staff_per_unit=(6, 14),
            seed=seed,
        )
        corpus = generate(profile)
        scored = score_corpus(corpus)
        selection = select_top(scored.scores, SCOPE_UNIT, 0.2)
        units = sds_unit_scores(scored.scores)
        report = counterfactual_rankings(corpus.taxonomy, scored.scores, units, selection, "sds")["A-01"]
        assert len(report.universities) >= 30
        ginis = report.gini.tolist()
        gini_spans.append(max(ginis) - min(ginis))
        shift_gini = report.spearman_shift_gini
        obs_hyp = report.spearman_obs_hyp
        if shift_gini is not None and shift_gini.rho < 0 and shift_gini.p_value < 0.05:
            negative_hits += 1
        if obs_hyp is not None and obs_hyp.rho > 0 and obs_hyp.p_value < 0.05:
            positive_hits += 1
    elapsed = time.perf_counter() - started
    heterogeneous = min(gini_spans) > 0.2
    _report(
        8,
        "Fig.-1 sign reproduction across 10 seeds",
        negative_hits >= 9 and positive_hits >= 9 and heterogeneous and elapsed < 60.0,
        f"negative {negative_hits}/10, positive {positive_hits}/10, {elapsed:.1f}s",
    )


def test_criterion_9_profile_calibration():
    profile = GeneratorProfile(n_universities=22, seed=5)  # ~10,000 researchers
    result = calibrate(profile, CalibrationTargets(0.17, 0.25, 0.77), tolerance=0.03)
    scale_ok = result.measured.n_researchers >= 10_000
    within = all(abs(r) <= 0.03 for r in result.residuals.values())
    _report(
        9,
        "profile calibration to 17% / 25% / 77% within 3 points",
        result.converged and within and scale_ok,
        ", ".join(f"{k.split('_')[0]} {v:+.3f}" for k, v in sorted(result.residuals.items())),
    )


def _funding_pipeline(groups):
    taxonomy = make_taxonomy({"S1": "X"}, life_science_udas=())
    corpus, scores = scores_with_ss(groups, taxonomy=taxonomy)
    units = sds_unit_scores(scores)
    from meritrank.aggregation import national_averages

    p_stars = national_averages(units)
    area = uda_unit_scores(units, p_stars, taxonomy)
    ranking = rank_units(area)["X"]
    policy = FundingPolicy(budget=1000)
    allocation = allocate(ranking, policy)
    selection = select_top(scores, SCOPE_NATIONAL, 0.2)
    return national_top_census(area, "X", allocation, selection=selection)


def test_criterion_10_paradox_reproduction():
    dispersed = {
        ("U1", "S1"): [50.0, 49.0, 3.0, 3.0, 3.0],
        ("U2", "S1"): [48.0, 47.0, 3.0, 3.0, 3.0],
        ("U3", "S1"): [46.0, 45.0, 44.0] + [3.0] * 7,
        ("U4", "S1"): [43.0, 42.0] + [3.0] * 8,
        ("U5", "S1"): [6.0] * 5,
        ("U6", "S1"): [5.0] * 5,
        ("U7", "S1"): [3.0] * 5,
        ("U8", "S1"): [41.0] + [0.0] * 14,
    }
    census = _funding_pipeline(dispersed)
    findings = paradox_report(census)
    dispersed_ok = (
        census.stranded_share > 0
        and any(f.kind == "class_funding_inversion" for f in findings)
    )

    concentrated = {
        ("U1", "S1"): [50.0] * 5,
        ("U2", "S1"): [45.0] * 5,
        ("U3", "S1"): [10.0] * 5,
        ("U4", "S1"): [9.0] * 5,
        ("U5", "S1"): [8.0] * 5,
        ("U6", "S1"): [7.0] * 5,
        ("U7", "S1"): [6.0] * 5,
        ("U8", "S1"): [5.0] * 5,
    }
    census_c = _funding_pipeline(concentrated)
    concentrated_ok = census_c.stranded_share == 0.0 and census_c.total_tops > 0
    _report(
        10,
        "funding paradox on dispersed tops, none when concentrated",
        dispersed_ok and concentrated_ok,
        f"dispersed stranded {census.stranded_count}/{census.total_tops}",
    )


def test_criterion_11_end_to_end_determinism_and_scale(tmp_path):
    profile = {
        "n_universities": 12,
        "sds_per_uda": {"A": 3, "B": 2},
        "life_science_udas": ["B"],
        "staff_per_unit": [3, 9],
        "seed": 41,
    }
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps(profile))
    run_a = tmp_path / "run_a"
    run_b = tmp_path / "run_b"
    for run in (run_a, run_b):
        assert dispatch(["report-all", "--profile", str(profile_path), "--out", str(run)]) == 0

    identical = True
    files_a = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
    identical &= files_a == files_b
    compared = 0
    for rel in files_a:
        if rel.name.endswith("manifest.json"):
            continue  # timestamps live only in the manifest
        identical &= (run_a / rel).read_bytes() == (run_b / rel).read_bytes()
        compared += 1

    started = time.perf_counter()
    paper_out = tmp_path / "paper_scale"
    code = dispatch(["report-all", "--seed", "7", "--out", str(paper_out)])
    elapsed = time.perf_counter() - started
    summary = json.loads((paper_out / "summary.json").read_text())
    scale_ok = (
        code == 0
        and summary["universities"] == 77
        and summary["active_sds"] == 183
        and summary["researchers"] > 30_000
    )
    _report(
        11,
        "byte-identical reruns and paper-scale pipeline under 30 s",
        identical and compared > 10 and scale_ok and elapsed < 30.0,
        f"{compared} files compared, paper scale {elapsed:.1f}s, {summary['researchers']} researchers",
    )
