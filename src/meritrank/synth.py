"""Seeded synthetic-corpus generation with calibratable skew.

Publication counts and citation counts are drawn from lognormals (the
distribution family is a modeling choice, not an empirical claim), with a
point mass at zero citations and per-(category, year) location offsets so
that normalization across fields and years is non-trivial. Output is a pure
function of the profile, including the seed.
"""

from __future__ import annotations

import json
import math
import zlib
from array import array
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from ._version import __version__
from .corpus import (
    DEFAULT_WINDOW,
    DOC_TYPES,
    RESEARCHER_COLUMNS,
    TAXONOMY_COLUMNS,
    Corpus,
    Publications,
    Researchers,
    Taxonomy,
    load_json_object,
    row_offsets,
    uda_code_problem,
    window_problem,
)
from .errors import ValidationError
from .indicators import MeasuredStats, measured_shares, score_corpus
from .reports import csv_file, json_file

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
# Per share that `calibrate` searches, in search order: the knob that raises it, and the knob's range.
_SEARCHES = {
    "nil_impact_share": ("zero_citation_mass", 0.0, 0.95),
    "top20_impact_share": ("citation_sigma", 0.3, 3.0),
}
_PUBLICATIONS_PER_WRITE = 4096  # lines encoded and written together by `write_publications`

# As `Generator.choice` computes it: the cumulative sum, divided by its last entry.
_DOC_TYPE_CDF = np.cumsum(DOC_TYPE_PROBS) / np.cumsum(DOC_TYPE_PROBS)[-1]
_EXP_CAP = 709.0  # exp(709) > 8e307 is far above MAX_CITATIONS, and exp(710) overflows a float
_INT64 = np.iinfo(np.int64)  # `Generator.integers` draws int64: both bounds must fit it

RNG_DESCRIPTION = "numpy.random.PCG64 seeded via numpy.random.SeedSequence(seed)"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """Whether `value` is a finite float; an integer too large for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# The JSON shape each GeneratorProfile annotation accepts: (check, description).
_PROFILE_FIELD_KINDS = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "tuple[int, int]": (
        lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_int, v)),
        "a list of two integers",
    ),
    "tuple[str, ...]": (
        lambda v: isinstance(v, (list, tuple)) and all(isinstance(x, str) for x in v),
        "a list of strings",
    ),
    "dict[str, int]": (
        lambda v: isinstance(v, dict) and all(_is_int(n) for n in v.values()),
        "an object of integers",
    ),
}


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
        for name, spec in self.__dataclass_fields__.items():
            value = getattr(self, name)
            if spec.type == "float" and not _is_finite(value):
                raise ValidationError(f"profile: {name} must be a finite number, got {value}")
        if self.n_universities < 1:
            raise ValidationError("profile: need at least one university")
        if self.seed < 0:
            raise ValidationError(f"profile: seed must be non-negative, got {self.seed}")
        if not self.sds_per_uda or any(n < 1 for n in self.sds_per_uda.values()):
            raise ValidationError("profile: sds_per_uda needs positive counts")
        for uda in self.sds_per_uda:
            problem = uda_code_problem(uda)
            if problem:
                raise ValidationError(f"profile: sds_per_uda: {problem}")
        lo, hi = self.staff_per_unit
        if lo < 0 or hi < lo or hi < 1:
            raise ValidationError(f"profile: infeasible staff range {self.staff_per_unit}")
        problem = window_problem(self.window)
        if problem:
            raise ValidationError(f"profile: {problem}")
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
        for name in ("staff_per_unit", "window", "coauthor_range"):
            # `_draw` passes lo and hi + 1 to `integers`, and the window's length is a bound too.
            lo, hi = getattr(self, name)
            if lo < _INT64.min or hi > _INT64.max or hi - lo >= _INT64.max:
                raise ValidationError(f"profile: {name} {(lo, hi)} does not fit 64-bit integer draws")
        unknown_life = set(self.life_science_udas) - set(self.sds_per_uda)
        if unknown_life:
            raise ValidationError(f"profile: life-science UDAs {sorted(unknown_life)} not in layout")

    def to_dict(self) -> dict:
        data = asdict(self)
        data["n_sds"] = self.n_sds
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "GeneratorProfile":
        if not isinstance(data, Mapping):
            raise ValidationError(f"profile: expected a mapping of fields, got {type(data).__name__}")
        data = dict(data)
        n_sds = data.pop("n_sds", None)
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"profile: unknown fields {sorted(unknown)}")
        for name, value in data.items():
            check, expected = _PROFILE_FIELD_KINDS[cls.__dataclass_fields__[name].type]
            if not check(value):
                raise ValidationError(f"profile: field {name!r} must be {expected}, got {value!r}")
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
        return cls.from_dict(load_json_object(path, "profile"))


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
    """Build a validated corpus in canonical order; byte-stable for a fixed profile."""
    profile.validate()
    corpus = _with_citations(profile, *_draw(profile))
    corpus.validate()
    return corpus


def _with_citations(profile: GeneratorProfile, drawn: Corpus, zero_uniform, citation_normal) -> Corpus:
    """`drawn` with each publication's citation count computed from its year, primary category and
    two draws; bit for bit the corpus `generate(profile)` gives.

    The count is zero where the uniform falls below `zero_citation_mass`,
    else the rounded lognormal of the normal, capped at `MAX_CITATIONS`
    before the conversion (so `math.exp` never overflows). The float
    operations run one publication at a time, in the same order;
    `math.exp`, because the SIMD path of `np.exp` may differ in the last bit.
    """
    pubs = drawn.publications
    y1 = profile.window[1]
    mass, sigma = profile.zero_citation_mass, profile.citation_sigma
    locations = [profile.citation_location + _category_offset(name) for name in pubs.category_names]
    citations = [
        0 if u < mass else _citation_count(locations[c] + AGE_LOCATION_SLOPE * (y1 - year) + sigma * z)
        for u, z, year, c in zip(
            zero_uniform.tolist(),
            citation_normal.tolist(),
            pubs.year.tolist(),
            pubs.category[pubs.category_offsets[:-1]].tolist(),
        )
    ]
    return replace(drawn, publications=replace(pubs, citations=np.array(citations, dtype=np.int64)))


def _citation_count(exponent: float) -> int:
    """`min(round(exp(exponent)), MAX_CITATIONS)`; from exp(709) on (or NaN, from inf - inf) the cap."""
    if not exponent < _EXP_CAP:
        return MAX_CITATIONS
    return min(int(round(math.exp(exponent))), MAX_CITATIONS)


def _draw(profile: GeneratorProfile) -> tuple[Corpus, np.ndarray, np.ndarray]:
    """The profile's corpus in canonical order with citations left at 0, and per publication, in the
    same order, the zero-citation uniform and citation normal that `_with_citations` turns into its count.

    Each university draws from its own stream, spawned from the profile's
    seed. Per SDS unit it draws the staff count, the full-window flags, the
    partial years in post and the productive flags; per productive
    researcher the publication count, then per publication the year, author
    count, second-category flag, zero-citation uniform, citation normal and
    document type; then, publication by publication, the sibling SDS of a
    second category and the co-author draws of `_draw_authors`. No draw
    calls `Generator.choice` at paper scale: the document types and the
    co-authors are its own draws, made with cheaper calls (`_draw_doc_types`,
    `_sample_indices`). The bounded integers and the co-authors' uniforms
    are drawn one at a time, straight from the bit generator
    (`_scalar_draws`), as `Generator.integers` and `random` would draw them.
    Everything else is computed from those draws in bulk, straight into the
    `Publications` columns: a researcher's slot code is their index in
    generation order (their row below 1,000 staff per unit; else `Corpus`
    recodes it), a category's code its SDS's index. The publications are
    then put in canonical order once, and the two draws with them.
    """
    taxonomy = build_taxonomy(profile)
    sds_codes = taxonomy.sds_codes
    uda_of = taxonomy.uda_of
    siblings = [
        [j for j, other in enumerate(sds_codes) if other != sds and uda_of(other) == uda_of(sds)]
        for sds in sds_codes
    ]
    y0, y1 = profile.window
    window_length = y1 - y0 + 1
    partial_span = max(2, window_length) - 1  # partial years in post are 1 + a draw below this
    staff_lo, staff_hi = profile.staff_per_unit
    co_lo, co_hi = profile.coauthor_range
    co_span = co_hi - co_lo + 1
    p_external = profile.p_external_coauthor

    researcher_ids: list[str] = []
    university_ids: list[str] = []
    researcher_sds: list[str] = []
    years_in_post: list[int] = []
    universities: dict[str, str] = {}
    ids: list[str] = []
    # Per publication in generation order, then per second category and per author slot.
    years, doc_types, author_counts = array("q"), array("q"), array("q")
    zero_uniform, citation_normal = array("d"), array("d")
    primary_category, with_second = array("q"), array("b")
    second_category = array("q")
    slot_researcher = array("q")

    university_seeds = np.random.SeedSequence(profile.seed).spawn(profile.n_universities)
    for uni_index in range(profile.n_universities):
        rng = np.random.default_rng(university_seeds[uni_index])
        random, below = _scalar_draws(rng)
        uid = f"U{uni_index + 1:03d}"
        universities[uid] = f"Synthetic University {uni_index + 1:03d}"
        university_pubs = 0
        for sds_code, sds in enumerate(sds_codes):
            staff_n = staff_lo + below(staff_hi - staff_lo + 1)
            if staff_n == 0:
                continue
            full_window = (rng.random(staff_n) < profile.p_full_window).tolist()
            partial_years = [1 + below(partial_span) for _ in range(staff_n)]
            productive = (rng.random(staff_n) >= profile.p_nonproductive).tolist()
            first = len(researcher_ids)
            researcher_ids += [f"{uid}-{sds}-{k + 1:03d}" for k in range(staff_n)]
            university_ids += [uid] * staff_n
            researcher_sds += [sds] * staff_n
            years_in_post += [window_length if full_window[k] else partial_years[k] for k in range(staff_n)]
            pool = [first + k for k in range(staff_n) if productive[k]]
            sds_siblings = siblings[sds_code]
            for code in pool:
                m = _publication_count(rng.lognormal(profile.pubs_location, profile.pubs_dispersion))
                years.extend([y0 + below(window_length) for _ in range(m)])
                n_authors = [co_lo + below(co_span) for _ in range(m)]
                second = (rng.random(m) < profile.p_second_category).tolist()
                if not sds_siblings:
                    second = [False] * m  # no sibling SDS to take a second category from
                zero_uniform.extend(rng.random(m).tolist())
                citation_normal.extend(rng.standard_normal(m).tolist())
                doc_types.extend(_draw_doc_types(rng, m))
                colleagues = [c for c in pool if c != code]
                for p in range(m):
                    if second[p]:
                        second_category.append(sds_siblings[below(len(sds_siblings))])
                    slot_researcher.extend(
                        _draw_authors(rng, random, below, code, colleagues, n_authors[p], p_external)
                    )
                author_counts.extend(n_authors)
                primary_category.extend([sds_code] * m)
                with_second.extend(second)
                university_pubs += m
        ids += [f"P-{uid}-{seq:06d}" for seq in range(1, university_pubs + 1)]

    has_second = np.array(with_second, dtype=bool)
    category_offsets = row_offsets(1 + has_second)
    category = np.empty(category_offsets[-1], dtype=np.int64)
    category[category_offsets[:-1]] = primary_category
    category[category_offsets[:-1][has_second] + 1] = second_category
    n_slots = np.array(author_counts, dtype=np.int64)
    slot_offsets = row_offsets(n_slots)
    slot_codes = np.array(slot_researcher, dtype=np.int64)
    publications = Publications(
        ids=ids,
        year=np.array(years, dtype=np.int64),
        doc_type=np.array(doc_types, dtype=np.int64),
        citations=np.zeros(len(ids), dtype=np.int64),
        category_offsets=category_offsets,
        category=category,
        slot_offsets=slot_offsets,
        slot_researcher=slot_codes,
        slot_position=np.arange(len(slot_codes)) - np.repeat(slot_offsets[:-1], n_slots) + 1,
        slot_intramural=slot_codes >= 0,
        doc_type_names=list(DOC_TYPES),
        category_names=[f"SC-{sds}" for sds in sds_codes],
        researcher_names=researcher_ids,
    )
    researchers = Researchers.from_columns(researcher_ids, university_ids, researcher_sds, years_in_post)
    order = publications.id_order()
    corpus = Corpus(publications.in_canonical_order(order), researchers, universities, taxonomy, tuple(profile.window))
    return corpus, np.array(zero_uniform)[order], np.array(citation_normal)[order]


def _draw_doc_types(rng, m: int) -> list[int]:
    """The m document-type codes that `Generator.choice` draws with `p=DOC_TYPE_PROBS`, leaving `rng`
    in the same state, with cheaper calls: m uniforms bisected on its cumulative probabilities."""
    return _DOC_TYPE_CDF.searchsorted(rng.random(m), side="right").tolist()


def _publication_count(draw: float) -> int:
    """A researcher's publication count from its lognormal draw: rounded, in [1, MAX_PUBS_PER_RESEARCHER].

    The cap applies before the conversion, so an infinite draw (or NaN, from
    inf - inf) gives the cap instead of an OverflowError.
    """
    if not draw < MAX_PUBS_PER_RESEARCHER:
        return MAX_PUBS_PER_RESEARCHER
    return max(1, int(round(draw)))


def _scalar_draws(rng) -> tuple[Callable[[], float], Callable[[int], int]]:
    """`(random, below)`: `random()` is `rng.random()` and `below(n)` is `int(rng.integers(0, n))`, for
    n >= 1, drawn straight from the bit generator's C functions without a `Generator` call.

    Both act on `rng`'s own PCG64 state (numpy's `bit_generator.ctypes`
    interface), including the half of a 64-bit output it keeps for the next
    32-bit draw, so they mix freely with `rng`'s other calls. `random` is
    `next_double`. `below` is numpy's 32-bit Lemire draw, as
    `Generator.integers` makes it for a bound under 2**32: no draw for
    n == 1, else the high word of `next_uint32() * n`, drawn again while the
    low word is under (2**32 - n) % n. From 2**32 on, `below` calls
    `integers`. Both hold the address of `rng`'s state, so `rng` must
    outlive them; `below` keeps a reference to it.
    """
    interface = rng.bit_generator.ctypes
    state, next_uint32 = interface.state, interface.next_uint32

    def below(n: int) -> int:
        if n == 1:
            return 0
        if n > 0xFFFFFFFF:
            return int(rng.integers(0, n))
        m = next_uint32(state) * n
        if m & 0xFFFFFFFF < n:
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = next_uint32(state) * n
        return m >> 32

    return partial(interface.next_double, state), below


def _draw_authors(rng, random, below, code, colleagues, n_authors, p_external) -> list[int]:
    """Researcher code per author position, mixing the originating researcher, colleagues, externals.

    Internal co-authors come from `colleagues`, the other productive members
    of the same unit (never a non-productive colleague, which would
    contradict their zero publication count), in unit order; externals get
    code -1. The originating researcher `code` takes a uniformly drawn position.
    `random` and `below` are `rng`'s `_scalar_draws`.
    """
    others = n_authors - 1
    picked: list[int] = []
    if others:
        wanted = sum([random() >= p_external for _ in range(others)])
        n_internal = min(wanted, len(colleagues))
        if n_internal:
            picked = [colleagues[i] for i in _sample_indices(rng, below, len(colleagues), n_internal)]
        picked += [-1] * (others - n_internal)
    picked.insert(below(n_authors), code)
    return picked


def _sample_indices(rng, below, n: int, k: int) -> list[int]:
    """The k of `range(n)` that `Generator.choice` picks without replacement, sorted, leaving `rng` in
    the same state, with scalar draws; `below` is `rng`'s from `_scalar_draws`.

    This is numpy's own algorithm: Floyd's sampler (draw from [0, j] for j
    from n - k to n - 1, taking j when the draw is already taken), then the
    draws of the shuffle that follows it, which the sort makes unread. For
    a population above 10,000 with k above a fiftieth of it, numpy runs a
    partial shuffle instead; that case, which no paper-scale unit reaches,
    is left to `choice` itself.
    """
    if n > 10_000 and k > n // 50:
        return sorted(rng.choice(n, k, replace=False).tolist())
    taken: set[int] = set()
    for j in range(n - k, n):
        value = below(j + 1)
        taken.add(j if value in taken else value)
    for i in range(k - 1, 0, -1):
        below(i + 1)
    return sorted(taken)


def write_corpus(corpus: Corpus, out_dir, profile: GeneratorProfile) -> dict[str, Path]:
    """Write the corpus in the standard three-file layout plus metadata, which records `profile`.

    Output is deterministic: rows are emitted in a canonical order, and
    `metadata.json` has its keys sorted (`publications.jsonl` keeps the key
    order of `write_publications`), so the same corpus always produces
    identical bytes.
    """
    out = Path(out_dir)
    paths = {
        "publications": out / "publications.jsonl",
        "researchers": out / "researchers.csv",
        "taxonomy": out / "taxonomy.csv",
        "metadata": out / "metadata.json",
    }
    res = corpus.researchers
    university_ids = [res.universities[code] for code in res.university.tolist()]
    researcher_rows = zip(
        res.ids,
        university_ids,
        [corpus.universities[uid] for uid in university_ids],
        [res.sds_names[code] for code in res.sds.tolist()],
        res.years_in_post.tolist(),
    )
    csv_file(paths["researchers"], RESEARCHER_COLUMNS, researcher_rows)
    tax = corpus.taxonomy
    taxonomy_rows = (
        [sds, tax.uda_of(sds), tax.uda_names[tax.uda_of(sds)], int(tax.is_life_science(sds))]
        for sds in tax.sds_codes
    )
    csv_file(paths["taxonomy"], TAXONOMY_COLUMNS, taxonomy_rows)
    # The encoders above created `out`; only this stream writes a file line by line.
    write_publications(corpus.publications, paths["publications"])
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
        "profile": profile.to_dict(),
    }
    json_file(paths["metadata"], metadata, sort_keys=True)
    return paths


def write_publications(publications: Publications, path) -> None:
    """Write one JSON object per publication, in table order, to the JSON-lines file `path`.

    Each line is `json.dumps(record, separators=(",", ":"))` of
    `{"id", "year", "type", "citations", "categories", "authors"}` with each
    author `{"researcher_id", "position", "intramural"}`, keys in that order.
    Every distinct name is JSON-encoded once, integers and literals are
    formatted directly, and the lines are written `_PUBLICATIONS_PER_WRITE`
    at a time.
    """
    pubs = publications
    doc_types = [json.dumps(name) for name in pubs.doc_type_names]
    categories = [json.dumps(name) for name in pubs.category_names]
    # An author's text up to its position; code -1 (outside the population) indexes the last entry.
    slot_heads = [f'{{"researcher_id":{json.dumps(name)},"position":' for name in pubs.researcher_names]
    slot_heads.append('{"researcher_id":null,"position":')
    slot_tails = (',"intramural":false}', ',"intramural":true}')
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(pubs), _PUBLICATIONS_PER_WRITE):
            stop = min(start + _PUBLICATIONS_PER_WRITE, len(pubs))
            c0, c1 = pubs.category_offsets[[start, stop]].tolist()
            s0, s1 = pubs.slot_offsets[[start, stop]].tolist()
            cats = [categories[code] for code in pubs.category[c0:c1].tolist()]
            slots = [
                f"{slot_heads[code]}{position}{slot_tails[flag]}"
                for code, position, flag in zip(
                    pubs.slot_researcher[s0:s1].tolist(),
                    pubs.slot_position[s0:s1].tolist(),
                    pubs.slot_intramural[s0:s1].tolist(),
                )
            ]
            cat_bounds = (pubs.category_offsets[start : stop + 1] - c0).tolist()
            slot_bounds = (pubs.slot_offsets[start : stop + 1] - s0).tolist()
            lines = [
                f'{{"id":{json.dumps(pid)},"year":{year},"type":{doc_types[doc_type]},"citations":{cites},'
                f'"categories":[{",".join(cats[c_lo:c_hi])}],"authors":[{",".join(slots[s_lo:s_hi])}]}}\n'
                for pid, year, doc_type, cites, c_lo, c_hi, s_lo, s_hi in zip(
                    pubs.ids[start:stop],
                    pubs.year[start:stop].tolist(),
                    pubs.doc_type[start:stop].tolist(),
                    pubs.citations[start:stop].tolist(),
                    cat_bounds,
                    cat_bounds[1:],
                    slot_bounds,
                    slot_bounds[1:],
                )
            ]
            fh.write("".join(lines))


def measure_corpus(corpus: Corpus) -> MeasuredStats:
    """The headline shares of the corpus's scored researchers."""
    return measured_shares(score_corpus(corpus).scores)


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


def _bisect(
    measure: Callable[[GeneratorProfile], MeasuredStats], work: GeneratorProfile, stat: str, target: float
) -> GeneratorProfile:
    """`work` with the knob that raises the measured `stat` bisected toward `target`; clamps at its range."""
    name, lo, hi = _SEARCHES[stat]

    def measure_at(value: float) -> float:
        return getattr(measure(replace(work, **{name: value})), stat)

    if measure_at(lo) >= target:
        value = lo
    elif measure_at(hi) <= target:
        value = hi
    else:
        for _ in range(BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            if measure_at(mid) < target:
                lo = mid
            else:
                hi = mid
        value = 0.5 * (lo + hi)
    return replace(work, **{name: value})


def calibrate(
    profile: GeneratorProfile,
    targets: CalibrationTargets | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CalibrationResult:
    """Adjust the skew knobs until the measured shares hit the targets.

    The non-productive share is set directly; the zero-citation mass is then
    searched against the nil-impact share and the citation sigma against the
    top-20% impact share, in rounds. No random draw reads those two knobs,
    so the corpus is drawn once at the profile's own scale (again only for a
    new non-productive share) and each probe recomputes its citations: a
    probe is the corpus `generate` gives, and the last one is the final
    measurement. A best-effort result with converged=False is returned when
    the targets stay out of reach.
    """
    targets = targets or CalibrationTargets()
    for name, value in asdict(targets).items():
        if not 0 <= value <= 1:
            raise ValidationError(f"target {name} must be in [0, 1], got {value}")
    if not tolerance >= 0:
        raise ValidationError(f"tolerance must be non-negative, got {tolerance}")
    if targets.nil_impact_share < targets.non_productive_share:
        raise ValidationError(
            "infeasible targets: nil-impact share cannot be below the non-productive share "
            "(every non-productive researcher has nil impact)"
        )
    profile.validate()
    drawn = _draw(profile)
    evaluations = 0

    def measure(work: GeneratorProfile) -> MeasuredStats:
        nonlocal evaluations
        evaluations += 1
        return measure_corpus(_with_citations(work, *drawn))

    def misses(measured: MeasuredStats) -> set[str]:
        return {name for name, r in _residuals(measured, targets).items() if abs(r) > tolerance}

    work = profile
    measured = measure(work)
    if misses(measured) and work.p_nonproductive != targets.non_productive_share:
        work = replace(work, p_nonproductive=targets.non_productive_share)
        drawn = _draw(work)
        measured = measure(work)
    for _ in range(CALIBRATION_ROUNDS):
        missed = misses(measured)
        if not missed:
            break
        for stat in _SEARCHES:
            if stat in missed:
                work = _bisect(measure, work, stat, getattr(targets, stat))
        measured = measure(work)
    return CalibrationResult(work, measured, _residuals(measured, targets), not misses(measured), evaluations)
