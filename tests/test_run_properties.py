"""Whole-run properties: report-all on small generated corpora, checked across its output files.

Each example of `test_report_all_funding_outputs_agree` draws a generator profile, with its window,
co-author range and skew knobs, and the run's funding, selection, credit, p* and transition options,
runs `report-all` once in-process, and checks its outputs against each other and against the written
corpus: the funding census, the summary's counts, each SDS unit score and UDA composite recomputed from
`scores.csv`, and each transition matrix recounted from `counterfactual_uda.csv`. The expected values
are computed here, apart from the package: top counts with the test's own half-up rounding, p* from
`scores.csv`. A profile that draws no researcher must exit 1, name the fault and write nothing.

`test_renamed_universities_rename_the_outputs` runs `report-all --corpus` on a written corpus and on a
copy whose university ids and names carry a common prefix, which keeps their sort order; the outputs
must be the same up to that renaming.

`test_doubled_citations_of_one_year_change_no_output` runs `report-all --corpus --credit positional` on a
`gen`-written corpus and on a copy with every citation count of one year doubled; every output but the
manifest must keep its bytes, since citations are standardized within (category, year) strata.
"""

import csv
import io
import json
import math
import shutil
import tempfile
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meritrank.aggregation import DEFAULT_MIN_STAFF, PSTAR_MEAN_OF_UNITS, PSTAR_POOLED
from meritrank.cli import CREDIT_MODES, dispatch
from meritrank.corpus import CITATION_LIMIT
from meritrank.errors import ValidationError
from meritrank.stats import classify_quantiles, quantile_class_sizes
from meritrank.synth import GeneratorProfile, generate, write_corpus

staff_ranges = st.integers(0, 9).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(max(lo, 1), 9)))
windows = st.integers(1990, 2020).flatmap(lambda first: st.tuples(st.just(first), st.integers(first, first + 6)))
coauthor_ranges = st.integers(1, 4).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, 8)))
probabilities = st.floats(0, 1)
layouts = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(lambda counts: dict(zip("ABC", counts)))
profiles = layouts.flatmap(
    lambda layout: st.builds(
        GeneratorProfile,
        n_universities=st.integers(3, 12),
        sds_per_uda=st.just(layout),
        life_science_udas=st.lists(st.sampled_from(sorted(layout)), unique=True).map(lambda udas: tuple(sorted(udas))),
        staff_per_unit=staff_ranges,
        window=windows,
        coauthor_range=coauthor_ranges,
        # The skew knobs; the two publication-count knobs stay small enough to keep a run under a second.
        p_nonproductive=probabilities,
        pubs_location=st.floats(-1, 1.5),
        pubs_dispersion=st.floats(0, 1.5),
        citation_location=st.floats(-1, 4),
        citation_sigma=st.floats(0, 3),
        zero_citation_mass=probabilities,
        p_external_coauthor=probabilities,
        p_second_category=probabilities,
        p_full_window=probabilities,
        seed=st.integers(0, 2**16),
    )
)
NO_RESEARCHERS = "corpus has no researchers"
budgets = st.builds(Fraction, st.integers(1, 10**8), st.integers(1, 100))
options = st.fixed_dictionaries(
    {
        "classes": st.integers(2, 6),
        "ratio": st.builds(lambda p, q: 1 + Fraction(p, q), st.integers(1, 90), st.integers(1, 10)),
        "bottom_funded": st.booleans(),
        "share": st.floats(0, 1),
        "budget_flag": st.sampled_from(["--budget", "--global-budget"]),
        "budget": budgets,
        "credit": st.sampled_from(sorted(CREDIT_MODES)),
        "pstar": st.sampled_from([PSTAR_MEAN_OF_UNITS, PSTAR_POOLED]),
        "transition_classes": st.integers(1, 6),
    }
)

# Area B, one SDS of 1-9 staff per university, ranks fewer than six universities, so six classes skip it;
# area A, four SDSs, ranks all six and is funded with the whole global budget.
SKIPPED_UNDER_GLOBAL = (
    GeneratorProfile(
        n_universities=6, sds_per_uda={"A": 4, "B": 1}, life_science_udas=(), staff_per_unit=(1, 9), seed=3
    ),
    {"classes": 6, "ratio": Fraction(3), "bottom_funded": False, "share": 0.1,
     "budget_flag": "--global-budget", "budget": Fraction(1000, 3),
     "credit": "equal", "pstar": PSTAR_MEAN_OF_UNITS, "transition_classes": 5},
)
# Removing the tops moves units across classes so that the transition matrices of area A (12 ranked
# universities) and area B (6) both differ from their transposes; p* is pooled over positional credit in a
# life-science area.
ASYMMETRIC_TRANSITIONS = (
    GeneratorProfile(
        n_universities=12, sds_per_uda={"A": 3, "B": 1}, life_science_udas=("A",), staff_per_unit=(0, 9), seed=5
    ),
    {"classes": 3, "ratio": Fraction(2), "bottom_funded": True, "share": 0.3,
     "budget_flag": "--budget", "budget": Fraction(100),
     "credit": "positional", "pstar": PSTAR_POOLED, "transition_classes": 3},
)

# A drawn example over the window, co-author range and skew knobs: a six-year window that ends after the
# default one, three to seven authors per paper, half the staff non-productive, most researchers in post
# for part of the window only.
DRAWN_KNOBS = (
    GeneratorProfile(
        n_universities=4, sds_per_uda={"A": 3, "B": 3, "C": 2}, life_science_udas=("A",), staff_per_unit=(8, 8),
        window=(2014, 2019), p_nonproductive=0.500709801929489, pubs_location=0.5117243374209286,
        pubs_dispersion=6.103515625e-05, citation_location=1.177518138505334, citation_sigma=1.1,
        zero_citation_mass=0.3811697251907341, coauthor_range=(3, 7), p_external_coauthor=0.6973433188860242,
        p_second_category=0.46465111735055176, p_full_window=1.192092896e-07, seed=1363,
    ),
    {"classes": 5, "ratio": Fraction(81), "bottom_funded": True, "share": 0.4106353371749919,
     "budget_flag": "--budget", "budget": Fraction(100000000, 39),
     "credit": "positional", "pstar": PSTAR_MEAN_OF_UNITS, "transition_classes": 5},
)
# The one unit of the one university draws no staff, so the draw holds no researcher.
NO_STAFF_DRAWN = (
    GeneratorProfile(n_universities=1, sds_per_uda={"A": 1}, life_science_udas=(), staff_per_unit=(0, 1), seed=1),
    SKIPPED_UNDER_GLOBAL[1],
)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def read_table(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def run_report_all(profile: GeneratorProfile, opts: dict, out: Path) -> int:
    profile_path = out.parent / "profile.json"
    profile_path.write_text(json.dumps(profile.to_dict()))
    argv = [
        "report-all", "--profile", str(profile_path), "--out", str(out),
        "--classes", str(opts["classes"]), "--ratio", str(opts["ratio"]), "--share", str(opts["share"]),
        opts["budget_flag"], str(opts["budget"]), "--credit", opts["credit"], "--pstar", opts["pstar"],
        "--transition-classes", str(opts["transition_classes"]),
    ] + (["--bottom-funded"] if opts["bottom_funded"] else [])
    errors = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(errors):
        code = dispatch(argv)
    if code == 1:
        # Only a profile whose units may draw no staff can draw no researcher, which the run rejects unwritten.
        assert profile.staff_per_unit[0] == 0
        assert errors.getvalue() == f"error: {NO_RESEARCHERS}\n"
        assert not out.exists()
    else:
        assert code == 0
    return code


def expected_top_count(share: float, n: int) -> int:
    """The head count of the top `share` of n: share * n rounded half up, at least one, none at share 0."""
    return 0 if share == 0 else max(1, math.floor(share * n + 0.5))


@settings(max_examples=60, deadline=None)
@given(profile=profiles, opts=options)
@example(*SKIPPED_UNDER_GLOBAL)
@example(*ASYMMETRIC_TRANSITIONS)
@example(*DRAWN_KNOBS)
@example(*NO_STAFF_DRAWN)
def test_report_all_funding_outputs_agree(profile, opts):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        if run_report_all(profile, opts, out):
            return
        census = read_rows(out / "funding_census.csv")
        summary = json.loads((out / "summary.json").read_text())
        researchers = read_rows(out / "corpus" / "researchers.csv")
        uda_of = {row["sds"]: row["uda"] for row in read_rows(out / "corpus" / "taxonomy.csv")}
        scores = read_rows(out / "scores.csv")
        ranks_sds = read_rows(out / "ranks_sds.csv")
        ranks_uda = read_rows(out / "ranks_uda.csv")
        counterfactual = read_rows(out / "counterfactual_uda.csv")
        transitions = {path.stem.removeprefix("transition_"): read_table(path) for path in out.glob("transition_*.csv")}

    assert summary["researchers"] == len(researchers)
    assert summary["universities"] == len({row["university_id"] for row in researchers})
    assert summary["scored_researchers"] == len(scores)
    assert summary["active_sds"] == len({row["sds"] for row in scores})
    check_funding(summary, census, scores, uda_of, {row["field"] for row in ranks_uda}, opts)
    check_unit_scores(scores, ranks_sds, ranks_uda, counterfactual, uda_of, opts)
    check_transitions(counterfactual, transitions, opts["transition_classes"])


def check_funding(summary, census, scores, uda_of, ranked, opts):
    """The census hands out the budget, holds each funded area's national tops, and matches the summary."""
    amounts, tops = defaultdict(float), defaultdict(int)
    for row in census:
        amounts[row["uda"]] += float(row["amount"])
        tops[row["uda"]] += int(row["top_count"])
    funded = set(amounts)
    budget = float(opts["budget"])
    if opts["budget_flag"] == "--global-budget":
        if funded:
            assert sum(amounts.values()) == pytest.approx(budget, rel=1e-9)
    else:
        assert amounts == pytest.approx({uda: budget for uda in funded}, rel=1e-9)

    expected_tops = defaultdict(int)
    for sds, n in Counter(row["sds"] for row in scores).items():
        if n >= DEFAULT_MIN_STAFF:
            expected_tops[uda_of[sds]] += expected_top_count(opts["share"], n)
    assert tops == {uda: expected_tops[uda] for uda in funded}

    classified = [row for row in census if row["class"]]
    assert summary["total_top_scientists"] == sum(int(row["top_count"]) for row in classified)
    stranded = [row for row in classified if int(row["class"]) == opts["classes"]]
    assert summary["stranded_top_scientists"] == sum(int(row["top_count"]) for row in stranded)

    skipped = [area["uda"] for area in summary["skipped_udas"]]
    assert skipped == sorted(ranked - funded)


def unit_scores(scores, kept) -> dict:
    """Each (university, SDS) unit's mean SS over its rows that `kept` marks, added in row order, or 0 for a
    unit left without staff, and that staff; units in name order, which is the package's code order."""
    totals, staff = defaultdict(float), Counter()
    for row, keep in zip(scores, kept):
        unit = row["university_id"], row["sds"]
        staff[unit] += keep
        if keep:
            totals[unit] += float(row["ss"])
    return {unit: (totals[unit] / staff[unit] if staff[unit] else 0.0, staff[unit]) for unit in sorted(staff)}


def national_averages(units, pstar) -> dict:
    """p* per SDS over its units in university order, each weighted 1 (mean-of-units) or by its staff (pooled)."""
    totals, weights = defaultdict(float), defaultdict(float)
    for (_, sds), (mean, staff) in units.items():
        weight = staff if pstar == PSTAR_POOLED else 1
        totals[sds] += mean * weight
        weights[sds] += weight
    return {sds: totals[sds] / weights[sds] for sds in totals}


def composites(units, p_star, uda_of) -> dict:
    """Each (university, UDA) composite, the sum of (unit mean / p*) * (unit staff / area staff) over the
    area's staffed SDS units in SDS order, and the area staff; an SDS with p* 0 adds nothing."""
    area_staff = Counter()
    for (university, sds), (_, staff) in units.items():
        area_staff[university, uda_of[sds]] += staff
    score = defaultdict(float)
    for (university, sds), (mean, staff) in units.items():
        area = university, uda_of[sds]
        if staff:
            score[area] += (mean / p_star[sds] if p_star[sds] > 0 else 0.0) * (staff / area_staff[area])
    return {area: (score[area], staff) for area, staff in area_staff.items()}


def kept_rows(scores, share) -> list[bool]:
    """False for the top `expected_top_count` of each unit of at least the minimum staff, by SS descending
    with ties in id order (the order of `scores.csv`)."""
    members = defaultdict(list)
    for i, row in enumerate(scores):
        members[row["university_id"], row["sds"]].append(i)
    kept = [True] * len(scores)
    for rows in members.values():
        if len(rows) >= DEFAULT_MIN_STAFF:
            for i in sorted(rows, key=lambda i: -float(scores[i]["ss"]))[: expected_top_count(share, len(rows))]:
                kept[i] = False
    return kept


def check_unit_scores(scores, ranks_sds, ranks_uda, counterfactual, uda_of, opts):
    """Each ranked SDS unit scores its researchers' mean SS, bit for bit, and each UDA composite is the
    staff-weighted sum of its SDS units' ratios to p*, within 1e-12. Removing each unit's tops and
    re-ranking the ranked composites, with p* frozen, gives the counterfactual's hypothetical ranks."""
    units = unit_scores(scores, [True] * len(scores))
    for row in ranks_sds:
        assert (float(row["score"]), int(row["staff"])) == units[row["university_id"], row["field"]]
    p_star = national_averages(units, opts["pstar"])
    observed = composites(units, p_star, uda_of)
    for row in ranks_uda:
        score, staff = observed[row["university_id"], row["field"]]
        assert int(row["staff"]) == staff
        assert float(row["score"]) == pytest.approx(score, rel=1e-12)

    hypothetical = composites(unit_scores(scores, kept_rows(scores, opts["share"])), p_star, uda_of)
    roster = [(row["university_id"], row["field"]) for row in ranks_uda]
    hypothetical_rank, position = {}, Counter()
    for unit in sorted(roster, key=lambda unit: (unit[1], -hypothetical[unit][0], -hypothetical[unit][1], unit[0])):
        position[unit[1]] += 1
        hypothetical_rank[unit] = position[unit[1]]
    assert [
        (row["field"], row["university"], int(row["observed_rank"]), int(row["hypothetical_rank"]))
        for row in counterfactual
    ] == [
        (row["field"], row["university_id"], int(row["rank"]), hypothetical_rank[row["university_id"], row["field"]])
        for row in ranks_uda
    ]


def check_transitions(counterfactual, transitions, k):
    """Each area with at least k ranked units has a transition matrix, whose cell (i, j) counts its units
    observed in class i and hypothetically in class j, with the quantile class sizes as both margins."""
    ranks = defaultdict(list)
    for row in counterfactual:
        ranks[row["field"]].append((int(row["observed_rank"]), int(row["hypothetical_rank"])))
    assert set(transitions) == {field for field, pairs in ranks.items() if len(pairs) >= k}
    for field, table in transitions.items():
        n = len(ranks[field])
        classes = classify_quantiles(n, k)
        expected = [[0] * k for _ in range(k)]
        for observed, hypothetical in ranks[field]:
            expected[classes[observed - 1]][classes[hypothetical - 1]] += 1
        body = [[int(cell) for cell in row[1:]] for row in table[1:]]
        assert [row[:k] for row in body[:k]] == expected
        sizes = quantile_class_sizes(n, k)
        assert [row[k] for row in body[:k]] == sizes
        assert body[k] == sizes + [n]


UNIVERSITY_COLUMNS = {"university_id", "university"}
PREFIXES = st.text(st.characters(exclude_categories=("Cs", "Cc")), min_size=1, max_size=3)


def run_outputs(corpus: Path, window: tuple[int, int], out: Path, original: dict[str, str]) -> dict:
    """`report-all --corpus` on `corpus` over `window` into `out`: every output but the manifest, CSV files as
    lists of rows, with each university id put back as `original` maps it."""
    argv = ["report-all", "--corpus", str(corpus), "--window", *map(str, window), "--min-staff", "1", "--out", str(out)]
    with redirect_stdout(io.StringIO()):
        assert dispatch(argv) == 0
    outputs = {}
    for path in out.iterdir():
        if path.suffix == ".csv":
            outputs[path.name] = rows = read_rows(path)
            for row in rows:
                for name in UNIVERSITY_COLUMNS & row.keys():
                    row[name] = original.get(row[name], row[name])
        elif path.name != "manifest.json":
            outputs[path.name] = path.read_text(encoding="utf-8")
    outputs["paradoxes.json"] = json.loads(outputs["paradoxes.json"])
    for area in outputs["paradoxes.json"]:
        for finding in area["findings"]:
            renamed = finding["details"].get("university_id")
            if renamed in original:
                finding["details"]["university_id"] = original[renamed]
                finding["message"] = finding["message"].replace(renamed, original[renamed])
    return outputs


@settings(max_examples=15, deadline=None)
@given(profile=profiles, prefix=PREFIXES)
@example(profile=SKIPPED_UNDER_GLOBAL[0], prefix=",\"")
@example(profile=NO_STAFF_DRAWN[0], prefix="U")
def test_renamed_universities_rename_the_outputs(profile, prefix):
    """A common prefix keeps the universities' sort order, so it may change no output but the ids."""
    with tempfile.TemporaryDirectory() as tmp:
        written = Path(tmp) / "corpus"
        try:
            corpus = generate(profile)
        except ValidationError as empty:
            # As the loader rejects a researcher file without rows, the generator rejects a draw without researchers.
            assert (str(empty), profile.staff_per_unit[0]) == (NO_RESEARCHERS, 0)
            return
        write_corpus(corpus, written, profile)
        renamed = Path(tmp) / "renamed"
        shutil.copytree(written, renamed)
        rows = read_rows(written / "researchers.csv")
        for row in rows:
            row["university_id"] = prefix + row["university_id"]
            row["university_name"] = prefix + row["university_name"]
        with open(renamed / "researchers.csv", "w", newline="", encoding="utf-8") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        original = {prefix + uid: uid for uid in corpus.researchers.universities}
        expected = run_outputs(written, profile.window, Path(tmp) / "a", {})
        assert run_outputs(renamed, profile.window, Path(tmp) / "b", original) == expected


def output_bytes(argv: list[str], out: Path) -> dict[str, bytes]:
    """The bytes of every output but the manifest that `argv`, a run that succeeds, writes to `out`, by file name."""
    with redirect_stdout(io.StringIO()):
        assert dispatch([*argv, "--out", str(out)]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir()) if path.name != "manifest.json"}


@settings(max_examples=8, deadline=None)
@given(profile=profiles, year_offset=st.integers(0, 6))
@example(profile=DRAWN_KNOBS[0], year_offset=3)
@example(profile=NO_STAFF_DRAWN[0], year_offset=0)
def test_doubled_citations_of_one_year_change_no_output(profile, year_offset):
    """Doubling every count of one year doubles that year's stratum medians and means with it, exactly, so
    each standardized citation, and every output after it, keeps its bits."""
    window_length = profile.window[1] - profile.window[0] + 1
    year = profile.window[0] + year_offset % window_length
    with tempfile.TemporaryDirectory() as tmp:
        written, doubled, profile_path = Path(tmp) / "corpus", Path(tmp) / "doubled", Path(tmp) / "profile.json"
        profile_path.write_text(json.dumps(profile.to_dict()))
        errors = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(errors):
            code = dispatch(["gen", "--profile", str(profile_path), "--out", str(written)])
        if code == 1:
            assert (errors.getvalue(), profile.staff_per_unit[0]) == (f"error: {NO_RESEARCHERS}\n", 0)
            return
        shutil.copytree(written, doubled)
        lines = []
        for line in (written / "publications.jsonl").read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record["year"] == year:
                record["citations"] *= 2
                # The generator caps a count far enough below the loader's limit for it to take the doubling.
                assert record["citations"] <= CITATION_LIMIT
            lines.append(json.dumps(record) + "\n")
        (doubled / "publications.jsonl").write_text("".join(lines), encoding="utf-8")
        run = ["report-all", "--window", *map(str, profile.window), "--credit", "positional", "--min-staff", "1"]
        expected = output_bytes([*run, "--corpus", str(written)], Path(tmp) / "a")
        assert output_bytes([*run, "--corpus", str(doubled)], Path(tmp) / "b") == expected
