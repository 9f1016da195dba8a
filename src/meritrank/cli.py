"""Command-line front end orchestrating the pipeline and emitting reports.

Exit codes: 0 success, 1 validation error, 2 undefined statistic, 3 I/O
error, 4 internal error: any other exception is a bug, which `main` reports
with its traceback (`dispatch` lets it propagate). Every run that gets
through its command writes a JSON manifest (config echo, input digests,
tool version) alongside its outputs. A JSON config file may supply any
flag, parsed as the flag parses it; explicit flags win.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
import traceback
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from ._version import __version__
from .aggregation import (
    DEFAULT_MIN_STAFF,
    LEVEL_SDS,
    LEVEL_UDA,
    PSTAR_MEAN_OF_UNITS,
    PSTAR_POOLED,
    level_unit_scores,
    national_averages,
    rank_units,
    sds_unit_scores,
)
from .corpus import DEFAULT_WINDOW, load_corpus, load_json_object
from .errors import AllocationError, MeritrankError, UndefinedStatisticError, ValidationError
from .funding import FundingPolicy, allocate, national_top_census, paradox_report
from .indicators import group_rows, measured_shares, productivity_stats, score_corpus
from .normalization import EQUAL_FRACTIONAL, POSITIONAL, CreditScheme
from .scenario import (
    DEFAULT_SHARE,
    DEFAULT_TRANSITION_CLASSES,
    SCATTER_MIN_UNITS,
    SCOPE_NATIONAL,
    SCOPE_UNIT,
    counterfactual_rankings,
    select_top,
    shift_gini_scatter,
)
from .stats import BOTTOM_TOP_MIN_VALUES, bottom_top_ratio
from . import reports
from .synth import (
    DEFAULT_TOLERANCE,
    CalibrationTargets,
    GeneratorProfile,
    calibrate,
    generate,
    write_corpus,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_UNDEFINED_STATISTIC = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

CREDIT_MODES = {"equal": EQUAL_FRACTIONAL, "positional": POSITIONAL}

# Namespace entries that steer dispatch and are not options of a command.
_DISPATCH_KEYS = ("command", "config", "verbose", "handler")
# Commands whose --out is a directory; the others write a file.
_DIRECTORY_COMMANDS = ("gen", "report-all")

_EXACT_RATIONAL = "an exact rational number"
# What a config value must read as, by the `type=` of its flag.
_EXPECTED = {None: "a string", int: "an integer", float: "a number"}


def _fraction(option: str):
    """Parser of an exact rational for the flag `option`; 1/0 is rejected too."""

    def parse(value: str) -> Fraction:
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"{option} needs {_EXACT_RATIONAL}, got {value!r}") from None

    parse.expected = _EXACT_RATIONAL
    return parse


def _ranged(option: str, kind, admits, requirement: str):
    """Parser of a `kind` value for the flag `option`: one that `admits` rejects is a ValidationError that
    states `requirement` and names the flag, before any input is read."""

    def parse(value: str):
        number = kind(value)
        if not admits(number):
            raise ValidationError(f"{requirement}, got {option} {value!r}")
        return number

    parse.__name__ = kind.__name__  # text that is no `kind` gets argparse's "invalid int value" error
    parse.expected = f"a value {option} accepts ({requirement})"
    if hasattr(kind, "expected"):  # a `_fraction`: a config value's message states its parse requirement too
        parse.expected = f"{kind.expected}, {parse.expected}"
    return parse


# NaN fails the comparison, so it is rejected too.
_SHARE = _ranged("--share", float, lambda share: 0 <= share <= 1, "selection share must be in [0, 1]")


def _class_count(option: str):
    return _ranged(option, int, lambda k: k >= 1, "need at least one quantile class")


def _budget(option: str):
    return _ranged(option, _fraction(option), lambda budget: budget > 0, "budget must be positive")


def _required(cfg: dict, key: str, flag: str):
    if cfg[key] is None:
        raise ValidationError(f"{flag} is required (flag or config file)")
    return cfg[key]


def _credit_scheme(cfg: dict) -> CreditScheme:
    return CreditScheme(
        mode=CREDIT_MODES.get(cfg["credit"], cfg["credit"]),
        first_weight=cfg["first_w"],
        last_weight=cfg["last_w"],
        middle_weight=cfg["middle_w"],
        extramural_discount=cfg["extramural_discount"],
    )


def _corpus_paths(corpus_dir) -> list[Path]:
    d = Path(corpus_dir)
    return [d / "publications.jsonl", d / "researchers.csv", d / "taxonomy.csv"]


def _load(cfg: dict):
    corpus_dir = _required(cfg, "corpus", "--corpus")
    pub, res, tax = _corpus_paths(corpus_dir)
    return load_corpus(pub, res, tax, tuple(cfg["window"] or DEFAULT_WINDOW))


def _load_profile(cfg: dict) -> GeneratorProfile:
    profile = GeneratorProfile.from_json(cfg["profile"]) if cfg["profile"] else GeneratorProfile()
    if cfg["seed"] is not None:
        profile = replace(profile, seed=int(cfg["seed"]))
    return profile


def cmd_gen(cfg: dict) -> int:
    out = _required(cfg, "out", "--out")
    profile = _load_profile(cfg)
    corpus = generate(profile)
    write_corpus(corpus, out, profile)
    print(
        f"wrote corpus to {out}: {len(corpus.researchers)} researchers, "
        f"{len(corpus.publications)} publications, "
        f"{len(corpus.researchers.universities)} universities, seed {profile.seed}"
    )
    return EXIT_OK


def cmd_calibrate(cfg: dict) -> int:
    out = _required(cfg, "out", "--out")
    profile = _load_profile(cfg)
    targets = CalibrationTargets(
        non_productive_share=cfg["target_non_productive"],
        nil_impact_share=cfg["target_nil_impact"],
        top20_impact_share=cfg["target_top20_share"],
    )
    result = calibrate(profile, targets, tolerance=cfg["tolerance"])
    reports.json_file(out, result.profile.to_dict(), sort_keys=True)
    for name, residual in sorted(result.residuals.items()):
        print(f"{name}: residual {residual:+.4f} (tolerance {cfg['tolerance']})")
    if not result.converged:
        print("calibration did not converge; best-effort profile written", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"calibrated profile written to {out} after {result.evaluations} evaluations")
    return EXIT_OK


def cmd_indicators(cfg: dict) -> int:
    out = _required(cfg, "out", "--out")
    scored = score_corpus(_load(cfg), _credit_scheme(cfg))
    reports.write_scores_csv(out, scored.scores)
    print(f"wrote {len(scored.scores)} researcher scores ({len(scored.active_sds)} active SDSs) to {out}")
    return EXIT_OK


def _level_units(units, level: str, cfg: dict, taxonomy):
    """The units ranked at `level` from the per-(university, SDS) unit scores; p* only for UDA composites."""
    p_stars = national_averages(units, cfg["pstar"]) if level == LEVEL_UDA else {}
    return level_unit_scores(units, level, p_stars, taxonomy)


def _counterfactual(cfg: dict, scored, units, selection, level: str, k_classes: int):
    """Counterfactual reports per field at `level`, in field-code order.

    `report-all` has no --refit-pstar, so its national averages stay frozen.
    """
    return counterfactual_rankings(
        scored.taxonomy, scored.scores, units, selection, level, min_staff=cfg["min_staff"],
        k_classes=k_classes, pstar_mode=cfg["pstar"], refit_pstar=cfg.get("refit_pstar", False),
    )


def _funding_policy(cfg: dict) -> FundingPolicy:
    """The run's one funding policy, with one area's budget."""
    return FundingPolicy(
        n_classes=cfg["classes"],
        adjacent_ratio=cfg["ratio"],
        bottom_class_funded=cfg["bottom_funded"],
        budget=cfg["budget"],
    )


def cmd_rank(cfg: dict) -> int:
    level = _required(cfg, "level", "--level")
    out = _required(cfg, "out", "--out")
    scored = score_corpus(_load(cfg), _credit_scheme(cfg))
    rankings = rank_units(_level_units(sds_unit_scores(scored.scores), level, cfg, scored.taxonomy), cfg["min_staff"])
    field = cfg["field"]
    if field is not None and field not in rankings:
        raise ValidationError(f"--field {field!r}: no ranked units at level {level}")
    reports.write_ranking_csv(out, rankings, field)
    if cfg["json"]:
        reports.write_ranking_json(cfg["json"], rankings, field)
    n_rows = sum(len(r) for r in ([rankings[field]] if field else rankings.values()))
    print(f"wrote {n_rows} ranked units to {out}")
    return EXIT_OK


def cmd_counterfactual(cfg: dict) -> int:
    level = _required(cfg, "level", "--level")
    out = _required(cfg, "out", "--out")
    field = cfg["field"]
    if field is None and cfg["svg"]:
        raise ValidationError("--svg needs --field to pick one scatter")
    if field is None and cfg["transition"]:
        raise ValidationError("--transition needs --field to pick one matrix")
    if cfg["refit_pstar"] and level != LEVEL_UDA:
        raise ValidationError("--refit-pstar applies only at --level uda, the one level that reads national averages")
    scored = score_corpus(_load(cfg), _credit_scheme(cfg))
    selection = select_top(scored.scores, SCOPE_UNIT, cfg["share"], cfg["min_staff"])
    cf = _counterfactual(cfg, scored, sds_unit_scores(scored.scores), selection, level, cfg["classes"])
    if field is not None and field not in cf:
        raise ValidationError(f"--field {field!r}: no counterfactual report at level {level}")
    # Every check runs before the first write, so a rejected run leaves no files.
    scatter = shift_gini_scatter(cf[field]) if cfg["svg"] else None
    if cfg["transition"] and cf[field].transition is None:
        raise UndefinedStatisticError(
            f"field {field!r}: fewer ranked units than {cfg['classes']} classes"
        )
    selected = [cf[field]] if field else list(cf.values())
    reports.write_counterfactual_csv(out, selected, with_field=field is None)
    if scatter is not None:
        reports.write_scatter_svg(cfg["svg"], scatter, title=field)
    if cfg["transition"]:
        reports.write_transition_csv(cfg["transition"], cf[field])
    print(f"wrote counterfactual report for {len(selected)} field(s) to {out}")
    return EXIT_OK


def cmd_fund(cfg: dict) -> int:
    uda = _required(cfg, "uda", "--uda")
    out = _required(cfg, "out", "--out")
    policy = _funding_policy(cfg)
    scored = score_corpus(_load(cfg), _credit_scheme(cfg))
    areas = _level_units(sds_unit_scores(scored.scores), LEVEL_UDA, cfg, scored.taxonomy)
    rankings = rank_units(areas, cfg["min_staff"])
    if uda not in rankings:
        raise ValidationError(f"--uda {uda!r}: no ranked universities in that area")
    selection = select_top(scored.scores, SCOPE_NATIONAL, cfg["share"], cfg["min_staff"])
    allocation = allocate(rankings[uda], policy)
    census = national_top_census(areas, uda, allocation, selection)
    findings = paradox_report(census)
    reports.write_allocation_csv(out, allocation)
    if cfg["census"]:
        reports.write_combined_census_csv(cfg["census"], [census], with_uda=False)
    if cfg["findings"]:
        reports.write_findings_json(cfg["findings"], {uda: findings})
    print(
        f"allocated {float(allocation.total):g} across {len(allocation.units)} universities in {uda}; "
        f"{census.stranded_count}/{census.total_tops} top scientists stranded "
        f"({census.stranded_share:.1%}); {len(findings)} paradox finding(s)"
    )
    return EXIT_OK


def cmd_report_all(cfg: dict) -> int:
    out_dir = Path(_required(cfg, "out", "--out"))
    # Every option is checked before any input is read, so a rejected run leaves no files.
    policy = _funding_policy(cfg)
    if cfg["corpus"] and (cfg["profile"] is not None or cfg["seed"] is not None):
        raise ValidationError("--corpus cannot be combined with --profile or --seed, which generate a corpus")
    if not cfg["corpus"] and cfg["window"] is not None:
        raise ValidationError("--window needs --corpus: a generated corpus spans its profile's window")
    if cfg["corpus"]:
        corpus = _load(cfg)
    else:
        profile = _load_profile(cfg)
        corpus = generate(profile)
        write_corpus(corpus, out_dir / "corpus", profile)
        log.info("generated corpus: %d researchers", len(corpus.researchers))
    cfg["window"] = corpus.window  # the manifest echoes the window the run observed
    counts = {
        "researchers": len(corpus.researchers),
        "publications": len(corpus.publications),
        "universities": len(corpus.researchers.universities),
    }
    scored = score_corpus(corpus, _credit_scheme(cfg))
    del corpus  # every later step reads the scores, so the publications can go
    reports.write_scores_csv(out_dir / "scores.csv", scored.scores)

    stats = productivity_stats(scored.scores, scored.taxonomy)
    reports.write_productivity_csv(out_dir / "productivity_uda.csv", stats)

    concentration_rows = []
    by_sds = group_rows(scored.scores.sds, len(scored.scores.sds_names))
    for sds, rows in zip(scored.scores.sds_names, by_sds):
        if len(rows) < BOTTOM_TOP_MIN_VALUES:
            continue
        try:
            ratio = bottom_top_ratio(scored.scores.ss[rows])
        except UndefinedStatisticError:
            ratio = None
        concentration_rows.append((sds, len(rows), ratio))
    reports.write_concentration_csv(out_dir / "concentration_sds.csv", concentration_rows)

    units = sds_unit_scores(scored.scores)
    rankings_sds = rank_units(units, cfg["min_staff"])
    reports.write_ranking_csv(out_dir / "ranks_sds.csv", rankings_sds)
    areas = _level_units(units, LEVEL_UDA, cfg, scored.taxonomy)
    rankings_uda = rank_units(areas, cfg["min_staff"])
    reports.write_ranking_csv(out_dir / "ranks_uda.csv", rankings_uda)

    selection = select_top(scored.scores, SCOPE_UNIT, cfg["share"], cfg["min_staff"])
    cf_uda = _counterfactual(cfg, scored, units, selection, LEVEL_UDA, cfg["transition_classes"])
    reports.write_counterfactual_csv(out_dir / "counterfactual_uda.csv", cf_uda.values(), with_field=True)
    for report in cf_uda.values():
        if report.transition is not None:
            reports.write_transition_csv(out_dir / f"transition_{report.field}.csv", report)
        if len(report.universities) >= SCATTER_MIN_UNITS:
            reports.write_scatter_svg(
                out_dir / f"scatter_{report.field}.svg", shift_gini_scatter(report), title=report.field
            )
    cf_sds = _counterfactual(cfg, scored, units, selection, LEVEL_SDS, cfg["transition_classes"])
    reports.write_counterfactual_summary_csv(out_dir / "counterfactual_sds_summary.csv", cf_sds.values())

    allocations = {}
    skipped_udas = []
    for uda in sorted(rankings_uda):
        try:
            allocations[uda] = allocate(rankings_uda[uda], policy)
        except (UndefinedStatisticError, AllocationError) as exc:
            # Fewer ranked universities than classes, or no weighted staff to fund.
            skipped_udas.append({"uda": uda, "reason": str(exc)})
    if cfg["global_budget"] is not None:
        # The global budget splits across the funded areas proportionally to their ranked staff.
        staff_by_uda = {uda: sum(u.staff for u in rankings_uda[uda]) for uda in allocations}
        total_staff = sum(staff_by_uda.values())
        for uda, staff in staff_by_uda.items():
            budget = cfg["global_budget"] * staff / total_staff
            allocations[uda] = allocate(rankings_uda[uda], replace(policy, budget=budget))
    national_selection = select_top(scored.scores, SCOPE_NATIONAL, cfg["share"], cfg["min_staff"])
    censuses = [
        national_top_census(areas, uda, allocation, national_selection)
        for uda, allocation in allocations.items()
    ]
    reports.write_combined_census_csv(out_dir / "funding_census.csv", censuses, with_uda=True)
    reports.write_findings_json(out_dir / "paradoxes.json", {c.uda: paradox_report(c) for c in censuses})

    shares = measured_shares(scored.scores)
    summary = {
        **counts,
        "active_sds": len(scored.active_sds),
        "scored_researchers": len(scored.scores),
        "non_productive_share": shares.non_productive_share,
        "nil_impact_share": shares.nil_impact_share,
        "top20_impact_share": shares.top20_impact_share,
        "stranded_top_scientists": sum(c.stranded_count for c in censuses),
        "total_top_scientists": sum(c.total_tops for c in censuses),
        "skipped_udas": skipped_udas,
    }
    reports.json_file(out_dir / "summary.json", summary, sort_keys=True)
    print(
        f"report-all complete in {out_dir}: {summary['scored_researchers']} scored researchers, "
        f"{len(rankings_sds)} SDS rankings, {len(rankings_uda)} UDA rankings"
    )
    return EXIT_OK


def _add_corpus_options(parser: argparse.ArgumentParser, window=DEFAULT_WINDOW) -> None:
    """The corpus options, with `window` as the --window default; None takes it only with --corpus."""
    parser.add_argument("--corpus", metavar="DIR",
                        help="directory with publications.jsonl, researchers.csv, taxonomy.csv")
    window_help = f"first and last year of the observation window, default {DEFAULT_WINDOW}"
    if window is None:
        window_help += "; only with --corpus, as a generated corpus spans its profile's window"
    parser.add_argument("--window", nargs=2, type=int, default=window, metavar=("START", "END"),
                        help=window_help)
    parser.add_argument("--credit", choices=sorted(CREDIT_MODES), default="equal",
                        help="author credit mode (default %(default)s)")
    for position, authors in (("first", "the first author"), ("last", "the last author"), ("middle", "middle authors")):
        flag = f"--{position}-w"
        parser.add_argument(flag, dest=f"{position}_w", default=getattr(CreditScheme, f"{position}_weight"),
                            type=_ranged(flag, float, lambda w: 0 < w < math.inf,
                                         "positional weights must be finite and positive"),
                            help=f"positional weight of {authors} (default %(default)s)")
    parser.add_argument("--extramural-discount", dest="extramural_discount",
                        type=_ranged("--extramural-discount", float, lambda d: 0 < d <= 1,
                                     "extramural discount must be in (0, 1]"),
                        default=CreditScheme.extramural_discount,
                        help="multiplier for extramural author slots, in (0, 1] (default %(default)s)")


def _add_ranking_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-staff", dest="min_staff", default=DEFAULT_MIN_STAFF,
                        type=_ranged("--min-staff", int, lambda n: n >= 0, "minimum staff must be an integer >= 0"),
                        help="minimum unit staff for rankings and selections (default %(default)s)")
    parser.add_argument("--pstar", choices=[PSTAR_MEAN_OF_UNITS, PSTAR_POOLED], default=PSTAR_MEAN_OF_UNITS,
                        help="national average mode (default %(default)s)")


def _add_funding_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--classes", default=FundingPolicy.n_classes,
                        type=_ranged("--classes", int, lambda k: k >= 2, "funding needs at least 2 classes"),
                        help="number of funding classes (default %(default)s)")
    parser.add_argument("--ratio", default=FundingPolicy.adjacent_ratio,
                        type=_ranged("--ratio", _fraction("--ratio"), lambda r: r > 1,
                                     "adjacent class ratio must exceed 1"),
                        help="per-capita ratio between adjacent classes (default %(default)s)")
    parser.add_argument("--bottom-funded", dest="bottom_funded", action="store_true", default=False,
                        help="fund the bottom class too")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="JSON config file; flags override it")
    parser.add_argument("-v", "--verbose", action="count", default=0, help="-v info, -vv debug")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="meritrank",
        description="Field-normalized research performance indicators, counterfactual rankings, and funding simulation.",
    )
    parser.add_argument("--version", action="version", version=f"meritrank {__version__}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--profile", metavar="FILE", help="generator profile JSON")
    p.add_argument("--seed", type=int, help="override the profile seed")
    p.add_argument("--out", metavar="DIR", help="output corpus directory")
    _add_common(p)
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("calibrate", help="tune a generator profile toward target shares")
    p.add_argument("--profile", metavar="FILE")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", metavar="FILE", help="calibrated profile JSON")
    for flag, target, what in (
        ("--target-non-productive", "non_productive_share", "non-productive share"),
        ("--target-nil-impact", "nil_impact_share", "nil-impact share"),
        ("--target-top20-share", "top20_impact_share", "top-20%% impact share"),
    ):
        p.add_argument(flag, default=getattr(CalibrationTargets, target),
                       type=_ranged(flag, float, lambda share: 0 <= share <= 1, "target shares must be in [0, 1]"),
                       help=f"target {what} (default %(default)s)")
    p.add_argument("--tolerance", default=DEFAULT_TOLERANCE,
                   type=_ranged("--tolerance", float, lambda t: t >= 0, "tolerance must be non-negative"),
                   help="largest accepted residual per share (default %(default)s)")
    _add_common(p)
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser("indicators", help="per-researcher scores CSV")
    _add_corpus_options(p)
    p.add_argument("--out", metavar="FILE", help="scores CSV path")
    _add_common(p)
    p.set_defaults(handler=cmd_indicators)

    p = sub.add_parser("rank", help="university rankings per field")
    _add_corpus_options(p)
    _add_ranking_options(p)
    p.add_argument("--level", choices=[LEVEL_SDS, LEVEL_UDA])
    p.add_argument("--field", metavar="CODE", help="restrict to one SDS/UDA code")
    p.add_argument("--out", metavar="FILE", help="ranking CSV path")
    p.add_argument("--json", metavar="FILE", help="also write the ranking as JSON")
    _add_common(p)
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("counterfactual", help="observed vs top-removed rankings")
    _add_corpus_options(p)
    _add_ranking_options(p)
    p.add_argument("--level", choices=[LEVEL_SDS, LEVEL_UDA])
    p.add_argument("--field", metavar="CODE")
    p.add_argument("--share", type=_SHARE, default=DEFAULT_SHARE,
                   help="top share removed per unit (default %(default)s)")
    p.add_argument("--classes", type=_class_count("--classes"), default=DEFAULT_TRANSITION_CLASSES,
                   help="quantile classes for the transition matrix (default %(default)s)")
    p.add_argument("--refit-pstar", dest="refit_pstar", action="store_true", default=False,
                   help="recompute national averages in the hypothetical scenario (sensitivity analysis)")
    p.add_argument("--out", metavar="FILE", help="rank-shift CSV path")
    p.add_argument("--svg", metavar="FILE", help="rank shift vs Gini scatter (needs --field)")
    p.add_argument("--transition", metavar="FILE", help="class transition CSV (needs --field)")
    _add_common(p)
    p.set_defaults(handler=cmd_counterfactual)

    p = sub.add_parser("fund", help="class-weighted funding simulation for one UDA")
    _add_corpus_options(p)
    _add_ranking_options(p)
    p.add_argument("--uda", metavar="CODE")
    p.add_argument("--budget", type=_budget("--budget"), default=FundingPolicy.budget,
                   help="budget for the area, exact rational (default %(default)s)")
    _add_funding_options(p)
    p.add_argument("--share", type=_SHARE, default=DEFAULT_SHARE,
                   help="national top share per SDS (default %(default)s)")
    p.add_argument("--out", metavar="FILE", help="allocation CSV path")
    p.add_argument("--census", metavar="FILE", help="top-scientist census CSV path")
    p.add_argument("--findings", metavar="FILE", help="paradox findings JSON path")
    _add_common(p)
    p.set_defaults(handler=cmd_fund)

    p = sub.add_parser("report-all", help="full pipeline into one output directory")
    # --window applies to --corpus only; a generated corpus takes its profile's window.
    _add_corpus_options(p, window=None)
    _add_ranking_options(p)
    p.add_argument("--profile", metavar="FILE", help="generate a corpus from this profile instead of --corpus")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", metavar="DIR")
    p.add_argument("--budget", type=_budget("--budget"), default=FundingPolicy.budget,
                   help="budget per discipline area (default %(default)s)")
    p.add_argument("--global-budget", dest="global_budget", type=_budget("--global-budget"),
                   help="single budget split across areas proportionally to ranked staff")
    _add_funding_options(p)
    p.add_argument("--share", type=_SHARE, default=DEFAULT_SHARE,
                   help="top share per unit and nationally per SDS (default %(default)s)")
    p.add_argument("--transition-classes", dest="transition_classes", type=_class_count("--transition-classes"),
                   default=DEFAULT_TRANSITION_CLASSES,
                   help="quantile classes for the transition matrices (default %(default)s)")
    _add_common(p)
    p.set_defaults(handler=cmd_report_all)

    return parser, sub.choices


def _expected(action: argparse.Action) -> str:
    if action.choices is not None:
        return f"one of {list(action.choices)}"
    expected = getattr(action.type, "expected", None) or _EXPECTED[action.type]
    return expected if action.nargs is None else f"a list of {action.nargs} values, each {expected}"


def _config_value(action: argparse.Action, key: str, value):
    """A config file's `value` for `key`, parsed as its flag parses command-line strings.

    null leaves an option without a default unset, as a manifest's config echo records it.
    """
    if value is None and action.default is None:
        return None
    if action.nargs == 0:  # a store_true switch
        if isinstance(value, bool):
            return value
        raise ValidationError(f"config key {key!r} needs true or false, got {value!r}")
    items = value if action.nargs and isinstance(value, list) else [value]
    scalars = all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in items)
    parsed = None
    try:
        if scalars and len(items) == (action.nargs or 1):
            parsed = [action.type(str(v)) if action.type else str(v) for v in items]
    except (ValueError, ValidationError):
        pass
    if parsed is None or (action.choices is not None and parsed[0] not in action.choices):
        raise ValidationError(f"config key {key!r} needs {_expected(action)}, got {value!r}")
    return parsed if action.nargs else parsed[0]


def _parse(parser, commands, argv) -> argparse.Namespace:
    """Parse argv; a --config file's values become the subcommand's defaults, so flags win."""
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        config = load_json_object(args.config, "config file")
        unknown = set(config) - (set(vars(args)) - set(_DISPATCH_KEYS))
        if unknown:
            raise ValidationError(f"config file {args.config}: unknown keys {sorted(unknown)}")
        command = commands[args.command]
        actions = {action.dest: action for action in command._actions}
        command.set_defaults(**{key: _config_value(actions[key], key, v) for key, v in config.items()})
        args = parser.parse_args(argv)
    return args


def _write_manifest(command: str, cfg: dict) -> None:
    """The run manifest, next to the outputs; its inputs are the corpus files, or else the profile."""
    out = Path(cfg["out"])
    path = out / "manifest.json" if command in _DIRECTORY_COMMANDS else out.parent / f"{out.stem}.manifest.json"
    if cfg.get("corpus"):
        inputs = _corpus_paths(cfg["corpus"])
    else:
        inputs = [Path(cfg["profile"])] if cfg.get("profile") else []
    reports.write_manifest(path, command, cfg, inputs)


def dispatch(argv) -> int:
    parser, commands = build_parser()
    try:
        args = _parse(parser, commands, argv)
        if args.command is None:
            parser.print_help()
            return EXIT_VALIDATION
        level = logging.WARNING
        if args.verbose == 1:
            level = logging.INFO
        elif args.verbose >= 2:
            level = logging.DEBUG
        logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
        cfg = {k: v for k, v in vars(args).items() if k not in _DISPATCH_KEYS}
        code = args.handler(cfg)
        _write_manifest(args.command, cfg)
        return code
    except SystemExit as exc:
        # argparse exits 2 on flag errors; the spec reserves 2 for undefined
        # statistics, so flag problems map to the validation code.
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION
    except UndefinedStatisticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED_STATISTIC
    except MeritrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def main(argv=None) -> int:
    try:
        return dispatch(sys.argv[1:] if argv is None else argv)
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
