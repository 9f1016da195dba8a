"""CSV, JSON, and SVG emitters plus the run manifest.

All writers are deterministic: rows follow a canonical order and floats use
the shortest round-trip representation, so identical results always produce
identical bytes. Timestamps appear only in the run manifest.
"""

from __future__ import annotations

import csv
import hashlib
import json
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ._version import __version__
from .aggregation import RankedUnit
from .errors import UndefinedStatisticError
from .funding import Finding, FundingAllocation, TopCensus
from .indicators import ProductivityStats, ResearcherScore
from .scenario import CounterfactualReport, ScatterData


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def _open_w(path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="")


def write_scores_csv(path, scores: Mapping[str, ResearcherScore]) -> None:
    with _open_w(path) as fh:
        writer = _writer(fh)
        writer.writerow(
            ["researcher_id", "university_id", "sds", "ss", "percentile", "non_productive", "nil_impact"]
        )
        for rid in sorted(scores):
            s = scores[rid]
            writer.writerow(
                [
                    s.researcher_id,
                    s.university_id,
                    s.sds,
                    s.ss,
                    "" if s.percentile is None else s.percentile,
                    int(s.non_productive),
                    int(s.nil_impact),
                ]
            )


def ranking_rows(rankings: Mapping[str, Sequence[RankedUnit]], field: str | None) -> list[dict]:
    rows = []
    fields = [field] if field is not None else sorted(rankings)
    for code in fields:
        for unit in rankings[code]:
            row = {
                "rank": unit.rank,
                "university_id": unit.university_id,
                "score": unit.score,
                "staff": unit.staff,
            }
            if field is None:
                row = {"field": code, **row}
            rows.append(row)
    return rows


def write_ranking_csv(path, rankings, field: str | None = None) -> None:
    rows = ranking_rows(rankings, field)
    header = ["field"] if field is None else []
    header += ["rank", "university_id", "score", "staff"]
    with _open_w(path) as fh:
        writer = _writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[name] for name in header])


def write_ranking_json(path, rankings, field: str | None = None) -> None:
    rows = ranking_rows(rankings, field)
    with _open_w(path) as fh:
        json.dump(rows, fh, indent=2)
        fh.write("\n")


COUNTERFACTUAL_COLUMNS = [
    "university",
    "observed_rank",
    "hypothetical_rank",
    "sign",
    "delta",
    "gini",
]


def write_counterfactual_csv(path, reports: Sequence[CounterfactualReport], with_field: bool) -> None:
    """Rank-shift table: one row per unit, observed order, absolute shift plus sign."""
    header = (["field"] if with_field else []) + COUNTERFACTUAL_COLUMNS
    with _open_w(path) as fh:
        writer = _writer(fh)
        writer.writerow(header)
        for report in reports:
            for unit in report.units:
                row = [
                    unit.university_id,
                    unit.observed_rank,
                    unit.hypothetical_rank,
                    unit.sign,
                    abs(unit.delta),
                    unit.gini_observed,
                ]
                if with_field:
                    row = [report.field] + row
                writer.writerow(row)


def write_counterfactual_summary_csv(path, reports: Sequence[CounterfactualReport]) -> None:
    with _open_w(path) as fh:
        writer = _writer(fh)
        writer.writerow(
            [
                "field",
                "n_units",
                "rho_observed_hypothetical",
                "p_observed_hypothetical",
                "rho_shift_gini",
                "p_shift_gini",
            ]
        )
        for report in reports:
            oh = report.spearman_obs_hyp
            sg = report.spearman_shift_gini
            writer.writerow(
                [
                    report.field,
                    len(report.units),
                    "" if oh is None else oh.rho,
                    "" if oh is None else oh.p_value,
                    "" if sg is None else sg.rho,
                    "" if sg is None else sg.p_value,
                ]
            )


def write_transition_csv(path, report: CounterfactualReport) -> None:
    """Class-transition matrix with row and column marginals."""
    matrix = report.transition
    if matrix is None:
        raise UndefinedStatisticError(f"field {report.field!r} has no transition matrix")
    k = report.k_classes
    with _open_w(path) as fh:
        writer = _writer(fh)
        writer.writerow(["observed\\hypothetical"] + [f"class_{j + 1}" for j in range(k)] + ["total"])
        for i, row in enumerate(matrix):
            writer.writerow([f"class_{i + 1}"] + list(row) + [sum(row)])
        col_totals = [sum(matrix[i][j] for i in range(k)) for j in range(k)]
        writer.writerow(["total"] + col_totals + [sum(col_totals)])


def write_scatter_svg(path, scatter: ScatterData, title: str = "") -> None:
    """Rank-shift vs Gini scatter: one circle per unit, one trend line."""
    width, height = 800, 600
    left, right, top, bottom = 70.0, 770.0, 40.0, 540.0
    xs = [p[0] for p in scatter.points]
    ys = [p[1] for p in scatter.points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.1, y_hi + 0.1
    x_pad = 0.05 * (x_hi - x_lo)
    y_pad = 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * (right - left)

    def sy(y: float) -> float:
        return bottom - (y - y_lo) / (y_hi - y_lo) * (bottom - top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<path d="M {left:.1f} {top:.1f} L {left:.1f} {bottom:.1f} L {right:.1f} {bottom:.1f}" '
        'fill="none" stroke="#222222" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{(left + right) / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>'
        )
    y1 = scatter.intercept + scatter.slope * x_lo
    y2 = scatter.intercept + scatter.slope * x_hi
    parts.append(
        f'<line x1="{sx(x_lo):.2f}" y1="{sy(y1):.2f}" x2="{sx(x_hi):.2f}" y2="{sy(y2):.2f}" '
        'stroke="#cc3333" stroke-width="2"/>'
    )
    for x, y in scatter.points:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="#336699"/>')
    for value, anchor in ((x_lo, "start"), (x_hi, "end")):
        parts.append(
            f'<text x="{sx(value):.1f}" y="{bottom + 20:.1f}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="12">{value:.1f}</text>'
        )
    for value in (y_lo, y_hi):
        parts.append(
            f'<text x="{left - 8:.1f}" y="{sy(value) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{value:.2f}</text>'
        )
    parts.append(
        f'<text x="{(left + right) / 2:.1f}" y="{bottom + 45:.1f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="14">rank shift</text>'
    )
    parts.append(
        f'<text x="22" y="{(top + bottom) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 22 {(top + bottom) / 2:.1f})" '
        'font-family="sans-serif" font-size="14">Gini</text>'
    )
    parts.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def write_allocation_csv(path, allocation: FundingAllocation) -> None:
    with _open_w(path) as fh:
        writer = _writer(fh)
        writer.writerow(["university_id", "class", "staff", "amount", "per_capita"])
        for unit in allocation.units:
            writer.writerow(
                [
                    unit.university_id,
                    unit.class_index + 1,
                    unit.staff,
                    float(unit.amount),
                    float(unit.per_capita),
                ]
            )


CENSUS_COLUMNS = ["university_id", "class", "staff", "top_count", "incidence", "amount"]


def write_combined_census_csv(
    path, entries: Sequence[tuple[str, TopCensus, FundingAllocation]], with_uda: bool
) -> None:
    """Census rows of one or more UDAs, amounts joined from the allocations.

    Classes come from the allocation: a university outside the ranked
    roster has an empty class and a zero amount.
    """
    header = (["uda"] if with_uda else []) + CENSUS_COLUMNS
    with _open_w(path) as fh:
        writer = _writer(fh)
        writer.writerow(header)
        for uda, census, allocation in entries:
            amounts = {u.university_id: float(u.amount) for u in allocation.units}
            for row in census.universities:
                line = [
                    row.university_id,
                    "" if row.class_index is None else row.class_index + 1,
                    row.staff,
                    row.top_count,
                    row.incidence,
                    amounts.get(row.university_id, 0.0),
                ]
                if with_uda:
                    line = [uda] + line
                writer.writerow(line)


def write_findings_json(path, findings_by_uda: Mapping[str, Sequence[Finding]]) -> None:
    payload = [
        {
            "uda": uda,
            "findings": [
                {"kind": f.kind, "message": f.message, "details": _jsonable(f.details)}
                for f in findings
            ],
        }
        for uda, findings in sorted(findings_by_uda.items())
    ]
    with _open_w(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_productivity_csv(path, stats: ProductivityStats) -> None:
    with _open_w(path) as fh:
        writer = _writer(fh)
        writer.writerow(
            [
                "uda",
                "n_sds",
                "non_productive_min",
                "non_productive_max",
                "non_productive_avg",
                "nil_impact_min",
                "nil_impact_max",
                "nil_impact_avg",
            ]
        )
        for uda in sorted(stats.uda_non_productive):
            np_stats = stats.uda_non_productive[uda]
            nil_stats = stats.uda_nil_impact[uda]
            writer.writerow(
                [
                    uda,
                    np_stats.n_sds,
                    np_stats.minimum,
                    np_stats.maximum,
                    np_stats.average,
                    nil_stats.minimum,
                    nil_stats.maximum,
                    nil_stats.average,
                ]
            )


def write_concentration_csv(path, rows: Sequence[tuple[str, int, object]]) -> None:
    """Per-SDS bottom-40%/top-20% cumulative-impact ratios ('' when undefined)."""
    with _open_w(path) as fh:
        writer = _writer(fh)
        writer.writerow(["sds", "n", "bottom_n", "top_n", "ratio"])
        for sds, n, ratio in rows:
            if ratio is None:
                writer.writerow([sds, n, "", "", ""])
            else:
                writer.writerow([sds, n, ratio.bottom_n, ratio.top_n, ratio.value])


def _jsonable(value):
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Path):
        return str(value)
    return value


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, command: str, config: Mapping, inputs: Iterable[Path]) -> None:
    """Config echo, input digests, and tool version for one CLI run."""
    manifest = {
        "tool": "meritrank",
        "version": __version__,
        "command": command,
        "config": _jsonable(config),
        "inputs": {str(p): file_digest(p) for p in inputs},
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
