"""Domain model, input-file loading and validation, and the field activity filter.

A corpus is immutable after load: every analysis step reads it, none mutates
it. Each corpus source is checked once. Loaded files are checked by the
loaders (`load_taxonomy`, `load_researchers`, `load_publications`) as they
read, and rejected on the first violation rather than silently repaired;
error messages name the offending file, line, and field. A corpus built in
memory, such as a generated one, is checked by `Corpus.validate`.
"""

from __future__ import annotations

import csv
import json
import logging
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping

from .errors import ValidationError

log = logging.getLogger(__name__)

DOC_TYPES = ("article", "review", "proceedings")
DEFAULT_WINDOW = (2004, 2008)

RESEARCHER_COLUMNS = ("id", "university_id", "university_name", "sds", "years_in_post")
TAXONOMY_COLUMNS = ("sds", "uda", "uda_name", "life_science")


@dataclass(frozen=True)
class AuthorSlot:
    """One position in a publication's ordered author list.

    researcher_id is None for co-authors outside the evaluated population;
    they enlarge the credit denominator but receive no score themselves.
    """

    position: int
    intramural: bool
    researcher_id: str | None = None


@dataclass(frozen=True)
class Publication:
    id: str
    year: int
    doc_type: str
    citations: int
    categories: tuple[str, ...]
    authors: tuple[AuthorSlot, ...]


@dataclass(frozen=True)
class Researcher:
    id: str
    university_id: str
    sds: str
    years_in_post: int


@dataclass(frozen=True)
class Taxonomy:
    """Mapping of fine-grained fields (SDS) onto discipline areas (UDA)."""

    sds_to_uda: Mapping[str, str]
    uda_names: Mapping[str, str]
    life_science_udas: frozenset[str]

    def uda_of(self, sds: str) -> str:
        try:
            return self.sds_to_uda[sds]
        except KeyError:
            raise ValidationError(f"SDS {sds!r} is absent from the taxonomy") from None

    def is_life_science(self, sds: str) -> bool:
        return self.uda_of(sds) in self.life_science_udas

    @property
    def sds_codes(self) -> tuple[str, ...]:
        return tuple(sorted(self.sds_to_uda))


@dataclass
class Corpus:
    publications: tuple[Publication, ...]
    researchers: dict[str, Researcher]
    universities: dict[str, str]
    taxonomy: Taxonomy
    window: tuple[int, int]

    @property
    def window_length(self) -> int:
        return self.window[1] - self.window[0] + 1

    @cached_property
    def slots_by_researcher(self) -> dict[str, tuple[tuple[Publication, AuthorSlot], ...]]:
        index: dict[str, list] = defaultdict(list)
        for pub in self.publications:
            for slot in pub.authors:
                if slot.researcher_id is not None:
                    index[slot.researcher_id].append((pub, slot))
        return {rid: tuple(items) for rid, items in index.items()}

    def validate(self) -> None:
        """Check every structural invariant of a corpus built in memory; raises ValidationError.

        Loaded corpora are checked by the loaders instead, with file and line
        context, so `load_corpus` does not call this.
        """
        lo, hi = self.window
        seen_ids: set[str] = set()
        for pub in self.publications:
            where = f"publication {pub.id!r}"
            if pub.id in seen_ids:
                raise ValidationError(f"duplicate publication id {pub.id!r}")
            seen_ids.add(pub.id)
            if pub.doc_type not in DOC_TYPES:
                raise ValidationError(f"{where}: unknown document type {pub.doc_type!r}")
            if not lo <= pub.year <= hi:
                raise ValidationError(
                    f"{where}: year {pub.year} outside the observation window {lo}-{hi}"
                )
            if pub.citations < 0:
                raise ValidationError(f"{where}: negative citation count")
            if not pub.categories:
                raise ValidationError(f"{where}: empty category list")
            if not pub.authors:
                raise ValidationError(f"{where}: empty author list")
            positions = sorted(slot.position for slot in pub.authors)
            if positions != list(range(1, len(pub.authors) + 1)):
                raise ValidationError(
                    f"{where}: author positions {positions} must be exactly 1..{len(pub.authors)}"
                )
            for slot in pub.authors:
                rid = slot.researcher_id
                if rid is not None and rid not in self.researchers:
                    raise ValidationError(
                        f"{where}: author position {slot.position} references "
                        f"unknown researcher {rid!r}"
                    )
        for r in self.researchers.values():
            if r.years_in_post < 1 or r.years_in_post > self.window_length:
                raise ValidationError(
                    f"researcher {r.id!r}: years_in_post {r.years_in_post} outside "
                    f"[1, {self.window_length}]"
                )
            if r.sds not in self.taxonomy.sds_to_uda:
                raise ValidationError(
                    f"researcher {r.id!r}: SDS {r.sds!r} is absent from the taxonomy"
                )
            if r.university_id not in self.universities:
                raise ValidationError(
                    f"researcher {r.id!r}: unknown university {r.university_id!r}"
                )


def _fail(path, line_no: int, message: str):
    raise ValidationError(f"{path} line {line_no}: {message}")


def _require(record: dict, key: str, kind, path, line_no: int):
    if key not in record:
        _fail(path, line_no, f"missing field {key!r}")
    value = record[key]
    if kind is int and isinstance(value, bool):
        _fail(path, line_no, f"field {key!r}: expected integer, got boolean")
    if not isinstance(value, kind):
        _fail(path, line_no, f"field {key!r}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def load_taxonomy(tax_path) -> Taxonomy:
    tax_path = Path(tax_path)
    sds_to_uda: dict[str, str] = {}
    uda_names: dict[str, str] = {}
    life_flags: dict[str, str] = {}
    with open(tax_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != TAXONOMY_COLUMNS:
            raise ValidationError(
                f"{tax_path}: expected header {','.join(TAXONOMY_COLUMNS)}, "
                f"got {','.join(reader.fieldnames or [])}"
            )
        for line_no, row in enumerate(reader, start=2):
            sds, uda, uda_name, life = (
                row["sds"],
                row["uda"],
                row["uda_name"],
                row["life_science"],
            )
            if not sds or not uda:
                _fail(tax_path, line_no, "empty sds or uda code")
            if sds in sds_to_uda:
                _fail(tax_path, line_no, f"SDS {sds!r} mapped to more than one UDA")
            if life not in ("0", "1"):
                _fail(tax_path, line_no, f"field 'life_science': expected 0 or 1, got {life!r}")
            if uda in uda_names and uda_names[uda] != uda_name:
                _fail(tax_path, line_no, f"conflicting names for UDA {uda!r}")
            if uda in life_flags and life_flags[uda] != life:
                _fail(tax_path, line_no, f"conflicting life_science flags within UDA {uda!r}")
            sds_to_uda[sds] = uda
            uda_names[uda] = uda_name
            life_flags[uda] = life
    if not sds_to_uda:
        raise ValidationError(f"{tax_path}: no taxonomy rows")
    life_udas = frozenset(uda for uda, flag in life_flags.items() if flag == "1")
    return Taxonomy(sds_to_uda, uda_names, life_udas)


def load_researchers(res_path, taxonomy: Taxonomy, window) -> tuple[dict[str, Researcher], dict[str, str]]:
    res_path = Path(res_path)
    window_length = window[1] - window[0] + 1
    researchers: dict[str, Researcher] = {}
    universities: dict[str, str] = {}
    with open(res_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != RESEARCHER_COLUMNS:
            raise ValidationError(
                f"{res_path}: expected header {','.join(RESEARCHER_COLUMNS)}, "
                f"got {','.join(reader.fieldnames or [])}"
            )
        for line_no, row in enumerate(reader, start=2):
            rid = row["id"]
            if not rid:
                _fail(res_path, line_no, "empty researcher id")
            if rid in researchers:
                _fail(res_path, line_no, f"duplicate researcher id {rid!r}")
            uid, uname, sds = row["university_id"], row["university_name"], row["sds"]
            if not uid:
                _fail(res_path, line_no, "empty university_id")
            if sds not in taxonomy.sds_to_uda:
                _fail(res_path, line_no, f"SDS {sds!r} is absent from the taxonomy")
            if uid in universities and universities[uid] != uname:
                _fail(res_path, line_no, f"conflicting names for university {uid!r}")
            try:
                years = int(row["years_in_post"])
            except ValueError:
                _fail(res_path, line_no, f"field 'years_in_post': not an integer: {row['years_in_post']!r}")
            if years < 1:
                _fail(res_path, line_no, f"years_in_post must be >= 1, got {years}")
            if years > window_length:
                log.warning(
                    "%s line %d: years_in_post %d capped at window length %d",
                    res_path, line_no, years, window_length,
                )
                years = window_length
            universities[uid] = uname
            researchers[rid] = Researcher(rid, uid, sds, years)
    if not researchers:
        raise ValidationError(f"{res_path}: no researcher rows")
    return researchers, universities


def load_publications(pub_path, window, researchers: Mapping[str, Researcher]) -> tuple[Publication, ...]:
    """Read publications.jsonl; every non-null author id must name one of `researchers`."""
    pub_path = Path(pub_path)
    lo, hi = window
    publications: list[Publication] = []
    seen: set[str] = set()
    with open(pub_path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                _fail(pub_path, line_no, f"invalid JSON: {exc}")
            pid = _require(record, "id", str, pub_path, line_no)
            if pid in seen:
                _fail(pub_path, line_no, f"duplicate publication id {pid!r}")
            seen.add(pid)
            year = _require(record, "year", int, pub_path, line_no)
            if not lo <= year <= hi:
                _fail(pub_path, line_no, f"year {year} outside the observation window {lo}-{hi}")
            doc_type = _require(record, "type", str, pub_path, line_no)
            if doc_type not in DOC_TYPES:
                _fail(pub_path, line_no, f"field 'type': expected one of {DOC_TYPES}, got {doc_type!r}")
            citations = _require(record, "citations", int, pub_path, line_no)
            if citations < 0:
                _fail(pub_path, line_no, "field 'citations': negative count")
            categories = _require(record, "categories", list, pub_path, line_no)
            if not categories or not all(isinstance(c, str) and c for c in categories):
                _fail(pub_path, line_no, "field 'categories': need a non-empty list of codes")
            raw_authors = _require(record, "authors", list, pub_path, line_no)
            if not raw_authors:
                _fail(pub_path, line_no, "field 'authors': empty author list")
            slots = []
            for slot in raw_authors:
                if not isinstance(slot, dict):
                    _fail(pub_path, line_no, "field 'authors': entries must be objects")
                rid = slot.get("researcher_id")
                if rid is not None and not isinstance(rid, str):
                    _fail(pub_path, line_no, "field 'researcher_id': expected string or null")
                position = _require(slot, "position", int, pub_path, line_no)
                if rid is not None and rid not in researchers:
                    _fail(
                        pub_path, line_no,
                        f"publication {pid!r}: author position {position} references "
                        f"unknown researcher {rid!r}",
                    )
                intramural = _require(slot, "intramural", bool, pub_path, line_no)
                slots.append(AuthorSlot(position, intramural, rid))
            positions = sorted(s.position for s in slots)
            if positions != list(range(1, len(slots) + 1)):
                _fail(
                    pub_path, line_no,
                    f"publication {pid!r}: author positions {positions} must be exactly 1..{len(slots)}",
                )
            publications.append(
                Publication(pid, year, doc_type, citations, tuple(categories), tuple(slots))
            )
    return tuple(publications)


def load_corpus(pub_path, res_path, tax_path, window=DEFAULT_WINDOW) -> Corpus:
    """Load and validate the three corpus files; raises on the first violation.

    Missing files surface as FileNotFoundError (I/O), malformed contents as
    ValidationError with file/line context. The loaders' checks cover every
    invariant that `Corpus.validate` checks, so it is not run again here.
    """
    taxonomy = load_taxonomy(tax_path)
    researchers, universities = load_researchers(res_path, taxonomy, window)
    publications = load_publications(pub_path, window, researchers)
    return Corpus(publications, researchers, universities, taxonomy, tuple(window))


def active_sds_filter(corpus: Corpus) -> set[str]:
    """SDS codes where at least half of the researchers published in the window.

    The threshold is inclusive: exactly 50% active keeps the SDS. Downstream
    analyses restrict to this set.
    """
    totals = Counter(r.sds for r in corpus.researchers.values())
    active = Counter(corpus.researchers[rid].sds for rid in corpus.slots_by_researcher)
    return {sds for sds, total in totals.items() if 2 * active[sds] >= total}
