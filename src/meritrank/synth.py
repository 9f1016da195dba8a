"""Seeded synthetic-corpus generation with calibratable skew.

Publication counts and citation counts are drawn from lognormals (the
distribution family is a modeling choice, not an empirical claim), with a
point mass at zero citations and per-(category, year) location offsets so
that normalization across fields and years is non-trivial. Output is a pure
function of the profile, including the seed.
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from ._version import __version__
from .corpus import DEFAULT_WINDOW, Corpus, AuthorSlot, Publication, Researcher, Taxonomy
from .errors import ValidationError
from .indicators import score_corpus
from .normalization import CreditScheme
from .stats import top20_impact_share

# Mirrors the nine-area / 183-field layout of a national hard-science system.
DEFAULT_SDS_PER_UDA = {
    "MATH": 9,
    "PHYS": 8,
    "CHEM": 11,
    "EARTH": 12,
    "BIO": 19,
    "MED": 47,
    "AGR": 28,
    "CIVIL": 7,
    "IIENG": 42,
}

DEFAULT_UDA_NAMES = {
    "MATH": "Mathematics and computer sciences",
    "PHYS": "Physics",
    "CHEM": "Chemistry",
    "EARTH": "Earth sciences",
    "BIO": "Biology",
    "MED": "Medicine",
    "AGR": "Agricultural and veterinary sciences",
    "CIVIL": "Civil engineering",
    "IIENG": "Industrial and information engineering",
}

DOC_TYPE_PROBS = (0.8, 0.1, 0.1)
MAX_PUBS_PER_RESEARCHER = 200
MAX_CITATIONS = 1_000_000
AGE_LOCATION_SLOPE = 0.12  # older publications accumulate more citations

DEFAULT_TOLERANCE = 0.03  # largest accepted |measured - target| share in calibrate
CALIBRATION_ROUNDS = 3
BISECTION_STEPS = 5
PROBE_SCALE = 0.35  # probe corpus size as a share of the profile's universities

RNG_DESCRIPTION = "numpy.random.PCG64 seeded via numpy.random.SeedSequence(seed)"


@dataclass
class GeneratorProfile:
    """Knobs of the synthetic world; every parameter here is synthetic."""

    n_universities: int = 77
    sds_per_uda: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_SDS_PER_UDA))
    life_science_udas: tuple[str, ...] = ("BIO", "MED")
    staff_per_unit: tuple[int, int] = (0, 5)
    window: tuple[int, int] = DEFAULT_WINDOW
    p_nonproductive: float = 0.17
    pubs_location: float = 0.9
    pubs_dispersion: float = 1.0
    citation_location: float = 1.0
    citation_sigma: float = 1.4
    zero_citation_mass: float = 0.15
    coauthor_range: tuple[int, int] = (1, 6)
    p_external_coauthor: float = 0.5
    p_second_category: float = 0.15
    p_full_window: float = 0.8
    concentration_target: float = 0.77
    seed: int = 0

    @property
    def n_sds(self) -> int:
        return sum(self.sds_per_uda.values())

    def validate(self) -> None:
        if self.n_universities < 1:
            raise ValidationError("profile: need at least one university")
        if self.seed < 0:
            raise ValidationError(f"profile: seed must be non-negative, got {self.seed}")
        if not self.sds_per_uda or any(n < 1 for n in self.sds_per_uda.values()):
            raise ValidationError("profile: sds_per_uda needs positive counts")
        lo, hi = self.staff_per_unit
        if lo < 0 or hi < lo or hi < 1:
            raise ValidationError(f"profile: infeasible staff range {self.staff_per_unit}")
        if self.window[0] > self.window[1]:
            raise ValidationError(f"profile: empty window {self.window}")
        for name in (
            "p_nonproductive",
            "zero_citation_mass",
            "p_external_coauthor",
            "p_second_category",
            "p_full_window",
            "concentration_target",
        ):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValidationError(f"profile: {name} must be in [0, 1], got {value}")
        if self.pubs_dispersion < 0 or self.citation_sigma < 0:
            raise ValidationError("profile: dispersions must be non-negative")
        clo, chi = self.coauthor_range
        if clo < 1 or chi < clo:
            raise ValidationError(f"profile: infeasible coauthor range {self.coauthor_range}")
        unknown_life = set(self.life_science_udas) - set(self.sds_per_uda)
        if unknown_life:
            raise ValidationError(f"profile: life-science UDAs {sorted(unknown_life)} not in layout")

    def to_dict(self) -> dict:
        data = asdict(self)
        data["n_sds"] = self.n_sds
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "GeneratorProfile":
        data = dict(data)
        n_sds = data.pop("n_sds", None)
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"profile: unknown fields {sorted(unknown)}")
        for name in ("staff_per_unit", "window", "coauthor_range", "life_science_udas"):
            if name in data:
                data[name] = tuple(data[name])
        profile = cls(**data)
        if n_sds is not None and n_sds != profile.n_sds:
            raise ValidationError(
                f"profile: n_sds {n_sds} does not match sds_per_uda total {profile.n_sds}"
            )
        return profile

    @classmethod
    def from_json(cls, path) -> "GeneratorProfile":
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}: invalid profile JSON: {exc}") from None
        return cls.from_dict(data)


def build_taxonomy(profile: GeneratorProfile) -> Taxonomy:
    sds_to_uda = {}
    for uda in sorted(profile.sds_per_uda):
        for i in range(profile.sds_per_uda[uda]):
            sds_to_uda[f"{uda}-{i + 1:02d}"] = uda
    uda_names = {
        uda: DEFAULT_UDA_NAMES.get(uda, f"Area {uda}") for uda in profile.sds_per_uda
    }
    return Taxonomy(sds_to_uda, uda_names, frozenset(profile.life_science_udas))


def _category_offset(category: str) -> float:
    """Stable per-category shift of the citation location, in [-0.4, 0.4]."""
    h = zlib.crc32(category.encode("utf-8")) % 10_000
    return (h / 10_000 - 0.5) * 0.8


def generate(profile: GeneratorProfile) -> Corpus:
    """Build a validated corpus; byte-stable for a fixed profile."""
    profile.validate()
    taxonomy = build_taxonomy(profile)
    sds_codes = taxonomy.sds_codes
    categories = {sds: f"SC-{sds}" for sds in sds_codes}
    siblings = {
        sds: tuple(s for s in sds_codes if taxonomy.uda_of(s) == taxonomy.uda_of(sds) and s != sds)
        for sds in sds_codes
    }
    y0, y1 = profile.window
    window_length = y1 - y0 + 1
    staff_lo, staff_hi = profile.staff_per_unit
    co_lo, co_hi = profile.coauthor_range

    researchers: dict[str, Researcher] = {}
    universities: dict[str, str] = {}
    publications: list[Publication] = []

    university_seeds = np.random.SeedSequence(profile.seed).spawn(profile.n_universities)
    for uni_index in range(profile.n_universities):
        rng = np.random.default_rng(university_seeds[uni_index])
        uid = f"U{uni_index + 1:03d}"
        universities[uid] = f"Synthetic University {uni_index + 1:03d}"
        pub_seq = 0
        for sds in sds_codes:
            staff_n = int(rng.integers(staff_lo, staff_hi + 1))
            if staff_n == 0:
                continue
            ids = [f"{uid}-{sds}-{k + 1:03d}" for k in range(staff_n)]
            full_window = rng.random(staff_n) < profile.p_full_window
            partial_years = rng.integers(1, max(2, window_length), size=staff_n)
            productive = rng.random(staff_n) >= profile.p_nonproductive
            for k, rid in enumerate(ids):
                years = window_length if full_window[k] else int(partial_years[k])
                researchers[rid] = Researcher(rid, uid, sds, years)
            pool = [rid for k, rid in enumerate(ids) if productive[k]]
            primary_cat = categories[sds]
            base_offset = _category_offset(primary_cat)
            for k, rid in enumerate(ids):
                if not productive[k]:
                    continue
                m = int(round(rng.lognormal(profile.pubs_location, profile.pubs_dispersion)))
                m = min(max(1, m), MAX_PUBS_PER_RESEARCHER)
                years_arr = rng.integers(y0, y1 + 1, size=m)
                n_authors_arr = rng.integers(co_lo, co_hi + 1, size=m)
                second_cat_arr = rng.random(m) < profile.p_second_category
                zero_arr = rng.random(m) < profile.zero_citation_mass
                z_arr = rng.standard_normal(m)
                doc_arr = rng.choice(3, size=m, p=DOC_TYPE_PROBS)
                for p in range(m):
                    year = int(years_arr[p])
                    cats = [primary_cat]
                    if second_cat_arr[p] and siblings[sds]:
                        other = siblings[sds][int(rng.integers(0, len(siblings[sds])))]
                        cats.append(categories[other])
                    if zero_arr[p]:
                        citations = 0
                    else:
                        location = (
                            profile.citation_location
                            + base_offset
                            + AGE_LOCATION_SLOPE * (y1 - year)
                        )
                        citations = int(round(math.exp(location + profile.citation_sigma * z_arr[p])))
                        citations = min(citations, MAX_CITATIONS)
                    n_authors = int(n_authors_arr[p])
                    slots = _author_slots(rng, rid, pool, n_authors, profile.p_external_coauthor)
                    pub_seq += 1
                    publications.append(
                        Publication(
                            id=f"P-{uid}-{pub_seq:06d}",
                            year=year,
                            doc_type=("article", "review", "proceedings")[int(doc_arr[p])],
                            citations=citations,
                            categories=tuple(cats),
                            authors=slots,
                        )
                    )
    corpus = Corpus(tuple(publications), researchers, universities, taxonomy, (y0, y1))
    corpus.validate()
    return corpus


def _author_slots(rng, author_id, pool, n_authors, p_external) -> tuple[AuthorSlot, ...]:
    """Author list mixing the originating researcher, colleagues, externals.

    Internal co-authors come from the productive members of the same unit
    (never a non-productive colleague, which would contradict their zero
    publication count) and are intramural; externals carry no researcher id.
    """
    others = n_authors - 1
    internal_wanted = int(np.count_nonzero(rng.random(others) >= p_external)) if others else 0
    colleagues = [rid for rid in pool if rid != author_id]
    n_internal = min(internal_wanted, len(colleagues))
    picked: list[str | None] = []
    if n_internal:
        indices = rng.choice(len(colleagues), size=n_internal, replace=False)
        picked = [colleagues[int(i)] for i in sorted(indices)]
    picked += [None] * (others - n_internal)
    own_position = int(rng.integers(1, n_authors + 1))
    slots = []
    queue = iter(picked)
    for position in range(1, n_authors + 1):
        if position == own_position:
            slots.append(AuthorSlot(position, True, author_id))
        else:
            rid = next(queue)
            slots.append(AuthorSlot(position, rid is not None, rid))
    return tuple(slots)


def write_corpus(corpus: Corpus, out_dir, profile: GeneratorProfile | None = None) -> dict[str, Path]:
    """Write the corpus in the standard three-file layout plus metadata.

    Output is deterministic: rows are emitted in a canonical order and JSON
    keys are sorted, so the same corpus always produces identical bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "publications": out / "publications.jsonl",
        "researchers": out / "researchers.csv",
        "taxonomy": out / "taxonomy.csv",
        "metadata": out / "metadata.json",
    }
    with open(paths["publications"], "w", encoding="utf-8", newline="\n") as fh:
        for pub in corpus.publications:
            record = {
                "id": pub.id,
                "year": pub.year,
                "type": pub.doc_type,
                "citations": pub.citations,
                "categories": list(pub.categories),
                "authors": [
                    {
                        "researcher_id": slot.researcher_id,
                        "position": slot.position,
                        "intramural": slot.intramural,
                    }
                    for slot in pub.authors
                ],
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    with open(paths["researchers"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "university_id", "university_name", "sds", "years_in_post"])
        for rid in sorted(corpus.researchers):
            r = corpus.researchers[rid]
            writer.writerow(
                [r.id, r.university_id, corpus.universities[r.university_id], r.sds, r.years_in_post]
            )
    with open(paths["taxonomy"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sds", "uda", "uda_name", "life_science"])
        for sds in corpus.taxonomy.sds_codes:
            uda = corpus.taxonomy.uda_of(sds)
            writer.writerow(
                [
                    sds,
                    uda,
                    corpus.taxonomy.uda_names[uda],
                    1 if uda in corpus.taxonomy.life_science_udas else 0,
                ]
            )
    metadata = {
        "generator": {
            "package": "meritrank",
            "version": __version__,
            "rng": RNG_DESCRIPTION,
            "numpy": np.__version__,
        },
        "window": list(corpus.window),
        "counts": {
            "universities": len(corpus.universities),
            "sds": len(corpus.taxonomy.sds_to_uda),
            "researchers": len(corpus.researchers),
            "publications": len(corpus.publications),
        },
    }
    if profile is not None:
        metadata["profile"] = profile.to_dict()
    with open(paths["metadata"], "w", encoding="utf-8", newline="\n") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


@dataclass(frozen=True)
class MeasuredStats:
    non_productive_share: float
    nil_impact_share: float
    top20_impact_share: float
    n_researchers: int


def measure_corpus(corpus: Corpus, scheme: CreditScheme | None = None) -> MeasuredStats:
    """Shares of non-productives, nil impact, and top-20% impact concentration."""
    scored = score_corpus(corpus, scheme)
    n = len(scored.scores)
    if n == 0:
        return MeasuredStats(0.0, 0.0, 0.0, 0)
    non_productive = sum(s.non_productive for s in scored.scores.values()) / n
    nil_impact = sum(s.nil_impact for s in scored.scores.values()) / n
    top_share = top20_impact_share([s.ss for s in scored.scores.values()])
    return MeasuredStats(non_productive, nil_impact, top_share, n)


@dataclass(frozen=True)
class CalibrationTargets:
    non_productive_share: float = 0.17
    nil_impact_share: float = 0.25
    top20_impact_share: float = 0.77


@dataclass
class CalibrationResult:
    profile: GeneratorProfile
    measured: MeasuredStats
    residuals: dict[str, float]
    converged: bool
    evaluations: int


def _residuals(measured: MeasuredStats, targets: CalibrationTargets) -> dict[str, float]:
    return {
        "non_productive_share": measured.non_productive_share - targets.non_productive_share,
        "nil_impact_share": measured.nil_impact_share - targets.nil_impact_share,
        "top20_impact_share": measured.top20_impact_share - targets.top20_impact_share,
    }


class _Prober:
    """Regenerate-and-measure helper that counts its own evaluations."""

    def __init__(self, base: GeneratorProfile):
        self.base = base
        self.evaluations = 0

    def measure(self, **overrides) -> MeasuredStats:
        self.evaluations += 1
        return measure_corpus(generate(replace(self.base, **overrides)))


def _bisect_parameter(
    prober: _Prober,
    name: str,
    lo: float,
    hi: float,
    stat: str,
    target: float,
    fixed: dict,
) -> float:
    """1-D search for a monotone-increasing measured statistic; clamps at the bounds."""

    def measure_at(value: float) -> float:
        return getattr(prober.measure(**{**fixed, name: value}), stat)

    if measure_at(lo) >= target:
        return lo
    if measure_at(hi) <= target:
        return hi
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if measure_at(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def calibrate(
    profile: GeneratorProfile,
    targets: CalibrationTargets | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CalibrationResult:
    """Adjust the skew knobs until the measured shares hit the targets.

    The non-productive share is set directly; the zero-citation mass is then
    searched against the nil-impact share and the citation sigma against the
    top-20% impact share, in rounds, on a reduced-scale probe corpus. Final
    residuals are measured at the profile's own scale. A best-effort result
    with converged=False is returned when the targets stay out of reach.
    """
    targets = targets or CalibrationTargets()
    if targets.nil_impact_share < targets.non_productive_share:
        raise ValidationError(
            "infeasible targets: nil-impact share cannot be below the non-productive share "
            "(every non-productive researcher has nil impact)"
        )
    first = measure_corpus(generate(profile))
    first_residuals = _residuals(first, targets)
    if all(abs(r) <= tolerance for r in first_residuals.values()):
        return CalibrationResult(profile, first, first_residuals, True, 1)
    work = replace(profile, p_nonproductive=targets.non_productive_share)
    probe_universities = max(6, int(round(profile.n_universities * PROBE_SCALE)))
    probe = replace(work, n_universities=min(profile.n_universities, probe_universities))
    prober = _Prober(probe)

    for _ in range(CALIBRATION_ROUNDS):
        measured = prober.measure(
            zero_citation_mass=work.zero_citation_mass, citation_sigma=work.citation_sigma
        )
        residuals = _residuals(measured, targets)
        if all(abs(r) <= 0.8 * tolerance for r in residuals.values()):
            break
        if abs(residuals["nil_impact_share"]) > 0.8 * tolerance:
            mass = _bisect_parameter(
                prober,
                "zero_citation_mass",
                0.0,
                0.95,
                "nil_impact_share",
                targets.nil_impact_share,
                fixed={"citation_sigma": work.citation_sigma},
            )
            work = replace(work, zero_citation_mass=mass)
        if abs(residuals["top20_impact_share"]) > 0.8 * tolerance:
            sigma = _bisect_parameter(
                prober,
                "citation_sigma",
                0.3,
                3.0,
                "top20_impact_share",
                targets.top20_impact_share,
                fixed={"zero_citation_mass": work.zero_citation_mass},
            )
            work = replace(work, citation_sigma=sigma)

    final = measure_corpus(generate(work))
    residuals = _residuals(final, targets)
    converged = all(abs(r) <= tolerance for r in residuals.values())
    return CalibrationResult(work, final, residuals, converged, prober.evaluations + 2)
