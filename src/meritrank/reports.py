"""CSV, JSON, and SVG emitters plus the run manifest.

All writers are deterministic: rows follow a canonical order and floats use
the shortest round-trip representation, so identical results always produce
identical bytes. Timestamps appear only in the run manifest. Every output
file goes through `csv_file` or `json_file` (the SVG through the text
writer they share): UTF-8, `\n` line ends, parent directories created.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ._version import __version__
from .aggregation import RankedUnit
from .errors import UndefinedStatisticError
from .funding import Finding, FundingAllocation, TopCensus
from .indicators import ProductivityStats, ScoreTable
from .scenario import CounterfactualReport, ScatterData


def _text_file(path, text: str) -> None:
    """Write `text` as UTF-8, line ends kept as given, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")


def csv_file(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """One CSV file: the header row, then `rows`."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _text_file(path, buffer.getvalue())


def json_file(path, data, sort_keys: bool = False) -> None:
    """One JSON document, indented by 2, with a trailing newline."""
    _text_file(path, json.dumps(data, indent=2, sort_keys=sort_keys) + "\n")


def write_scores_csv(path, scores: ScoreTable) -> None:
    """One row per scored researcher, in id order."""
    header = ["researcher_id", "university_id", "sds", "ss", "percentile", "non_productive", "nil_impact"]
    rows = zip(
        scores.ids,
        [scores.universities[code] for code in scores.university.tolist()],
        [scores.sds_names[code] for code in scores.sds.tolist()],
        scores.ss.tolist(),
        scores.percentile.tolist(),
        scores.non_productive.astype(int).tolist(),
        scores.nil_impact.astype(int).tolist(),
    )
    csv_file(path, header, rows)


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
    csv_file(path, header, ([row[name] for name in header] for row in rows))


def write_ranking_json(path, rankings, field: str | None = None) -> None:
    json_file(path, ranking_rows(rankings, field))


COUNTERFACTUAL_COLUMNS = [
    "university",
    "observed_rank",
    "hypothetical_rank",
    "sign",
    "delta",
    "gini",
]


def write_counterfactual_csv(path, reports: Iterable[CounterfactualReport], with_field: bool) -> None:
    """Rank-shift table: one row per unit, observed order, absolute shift plus sign."""
    header = (["field"] if with_field else []) + COUNTERFACTUAL_COLUMNS
    rows = (
        ([report.field] if with_field else [])
        + [university, observed, hypothetical, "+" if delta > 0 else "-" if delta < 0 else "=", abs(delta), gini]
        for report in reports
        for university, observed, hypothetical, delta, gini in zip(
            report.universities,
            report.observed_rank.tolist(),
            report.hypothetical_rank.tolist(),
            report.delta.tolist(),
            report.gini.tolist(),
        )
    )
    csv_file(path, header, rows)


def write_counterfactual_summary_csv(path, reports: Iterable[CounterfactualReport]) -> None:
    header = [
        "field",
        "n_units",
        "rho_observed_hypothetical",
        "p_observed_hypothetical",
        "rho_shift_gini",
        "p_shift_gini",
    ]
    rows = (
        [r.field, len(r.universities), *_rho_p(r.spearman_obs_hyp), *_rho_p(r.spearman_shift_gini)]
        for r in reports
    )
    csv_file(path, header, rows)


def _rho_p(result) -> tuple:
    """A Spearman result's two cells, blank when it is undefined."""
    return ("", "") if result is None else (result.rho, result.p_value)


def write_transition_csv(path, report: CounterfactualReport) -> None:
    """Class-transition matrix with row and column marginals."""
    matrix = report.transition
    if matrix is None:
        raise UndefinedStatisticError(f"field {report.field!r} has no transition matrix")
    k = len(matrix)
    header = ["observed\\hypothetical"] + [f"class_{j + 1}" for j in range(k)] + ["total"]
    rows = [[f"class_{i + 1}"] + list(row) + [sum(row)] for i, row in enumerate(matrix)]
    col_totals = [sum(matrix[i][j] for i in range(k)) for j in range(k)]
    rows.append(["total"] + col_totals + [sum(col_totals)])
    csv_file(path, header, rows)


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
        # Escaped by hand: xml.sax.saxutils would import urllib.request, and http and email with it.
        title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
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
    _text_file(path, "\n".join(parts) + "\n")


def write_allocation_csv(path, allocation: FundingAllocation) -> None:
    rows = (
        [u.university_id, u.class_index + 1, u.staff, float(u.amount), float(u.per_capita)]
        for u in allocation.units
    )
    csv_file(path, ["university_id", "class", "staff", "amount", "per_capita"], rows)


CENSUS_COLUMNS = ["university_id", "class", "staff", "top_count", "incidence", "amount"]


def write_combined_census_csv(path, censuses: Sequence[TopCensus], with_uda: bool) -> None:
    """Census rows of one or more UDAs, amounts joined from each census's allocation.

    Classes come from the allocation: a university outside the ranked
    roster has an empty class and a zero amount.
    """
    header = (["uda"] if with_uda else []) + CENSUS_COLUMNS
    rows = []
    for census in censuses:
        amounts = {u.university_id: float(u.amount) for u in census.allocation.units}
        for row in census.universities:
            rows.append(
                ([census.uda] if with_uda else [])
                + [
                    row.university_id,
                    "" if row.class_index is None else row.class_index + 1,
                    row.staff,
                    row.top_count,
                    row.incidence,
                    amounts.get(row.university_id, 0.0),
                ]
            )
    csv_file(path, header, rows)


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
    json_file(path, payload)


def write_productivity_csv(path, stats: ProductivityStats) -> None:
    header = [
        "uda",
        "n_sds",
        "non_productive_min",
        "non_productive_max",
        "non_productive_avg",
        "nil_impact_min",
        "nil_impact_max",
        "nil_impact_avg",
    ]
    rows = []
    for uda in sorted(stats.uda_non_productive):
        np_stats = stats.uda_non_productive[uda]
        nil_stats = stats.uda_nil_impact[uda]
        rows.append(
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
    csv_file(path, header, rows)


def write_concentration_csv(path, rows: Sequence[tuple[str, int, object]]) -> None:
    """Per-SDS bottom-40%/top-20% cumulative-impact ratios ('' when undefined)."""
    lines = (
        [sds, n, "", "", ""] if ratio is None else [sds, n, ratio.bottom_n, ratio.top_n, ratio.value]
        for sds, n, ratio in rows
    )
    csv_file(path, ["sds", "n", "bottom_n", "top_n", "ratio"], lines)


def _jsonable(value):
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Fraction):
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
    json_file(path, manifest, sort_keys=True)
