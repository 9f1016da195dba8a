"""Whole-run properties: report-all on small generated corpora, checked across its output files.

Each example draws a generator profile and the funding and selection options, runs `report-all`
in-process, and reads back `funding_census.csv`, `scores.csv`, `ranks_uda.csv`, `summary.json`
and the written corpus's `taxonomy.csv`.
"""

import csv
import io
import json
import tempfile
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meritrank.aggregation import DEFAULT_MIN_STAFF
from meritrank.cli import dispatch
from meritrank.synth import GeneratorProfile
from meritrank.stats import top_count

staff_ranges = st.integers(0, 9).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(max(lo, 1), 9)))
profiles = st.builds(
    GeneratorProfile,
    n_universities=st.integers(3, 12),
    sds_per_uda=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(lambda counts: dict(zip("ABC", counts))),
    life_science_udas=st.just(()),
    staff_per_unit=staff_ranges,
    seed=st.integers(0, 2**16),
)
budgets = st.builds(Fraction, st.integers(1, 10**8), st.integers(1, 100))
options = st.fixed_dictionaries(
    {
        "classes": st.integers(2, 6),
        "ratio": st.builds(lambda p, q: 1 + Fraction(p, q), st.integers(1, 90), st.integers(1, 10)),
        "bottom_funded": st.booleans(),
        "share": st.floats(0, 1),
        "budget_flag": st.sampled_from(["--budget", "--global-budget"]),
        "budget": budgets,
    }
)

# Area B, one SDS of 1-9 staff per university, ranks fewer than six universities, so six classes skip it;
# area A, four SDSs, ranks all six and is funded with the whole global budget.
SKIPPED_UNDER_GLOBAL = (
    GeneratorProfile(
        n_universities=6, sds_per_uda={"A": 4, "B": 1}, life_science_udas=(), staff_per_unit=(1, 9), seed=3
    ),
    {"classes": 6, "ratio": Fraction(3), "bottom_funded": False, "share": 0.1,
     "budget_flag": "--global-budget", "budget": Fraction(1000, 3)},
)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def run_report_all(profile: GeneratorProfile, opts: dict, out: Path) -> None:
    profile_path = out.parent / "profile.json"
    profile_path.write_text(json.dumps(profile.to_dict()))
    argv = [
        "report-all", "--profile", str(profile_path), "--out", str(out),
        "--classes", str(opts["classes"]), "--ratio", str(opts["ratio"]), "--share", str(opts["share"]),
        opts["budget_flag"], str(opts["budget"]),
    ] + (["--bottom-funded"] if opts["bottom_funded"] else [])
    with redirect_stdout(io.StringIO()):
        assert dispatch(argv) == 0


@settings(max_examples=60, deadline=None)
@given(profile=profiles, opts=options)
@example(*SKIPPED_UNDER_GLOBAL)
def test_report_all_funding_outputs_agree(profile, opts):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        run_report_all(profile, opts, out)
        census = read_rows(out / "funding_census.csv")
        summary = json.loads((out / "summary.json").read_text())
        uda_of = {row["sds"]: row["uda"] for row in read_rows(out / "corpus" / "taxonomy.csv")}
        sds_sizes = Counter(row["sds"] for row in read_rows(out / "scores.csv"))
        ranked = {row["field"] for row in read_rows(out / "ranks_uda.csv")}

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
    for sds, n in sds_sizes.items():
        if n >= DEFAULT_MIN_STAFF:
            expected_tops[uda_of[sds]] += top_count(opts["share"], n)
    assert tops == {uda: expected_tops[uda] for uda in funded}

    classified = [row for row in census if row["class"]]
    assert summary["total_top_scientists"] == sum(int(row["top_count"]) for row in classified)
    stranded = [row for row in classified if int(row["class"]) == opts["classes"]]
    assert summary["stranded_top_scientists"] == sum(int(row["top_count"]) for row in stranded)

    skipped = [area["uda"] for area in summary["skipped_udas"]]
    assert skipped == sorted(ranked - funded)
