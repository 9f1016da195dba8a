"""Domain model, input-file loading and validation, and the field activity filter.

A corpus is immutable after load: every analysis step reads it, none mutates
it. Each per-record invariant is written once, in `publication_problem` and
`researcher_problem`. The file loaders apply them as they read and name the
file and line; `Corpus.validate` applies them to a corpus built in memory,
such as a generated one, and names the record. A violation is rejected
rather than silently repaired.
"""

from __future__ import annotations

import csv
import json
import logging
from collections import Counter, defaultdict
from contextlib import contextmanager
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

    # Unread by the package; kept because `benchmarks/tracer.py` patches it by name.
    @cached_property
    def slots_by_researcher(self) -> dict[str, tuple[tuple[Publication, AuthorSlot], ...]]:
        index: dict[str, list] = defaultdict(list)
        for pub in self.publications:
            for slot in pub.authors:
                if slot.researcher_id is not None:
                    index[slot.researcher_id].append((pub, slot))
        return {rid: tuple(items) for rid, items in index.items()}

    def validate(self) -> None:
        """Apply the loaders' per-record rules to a corpus built in memory; raises ValidationError.

        It also checks that each researcher's university is known, which the
        researcher loader ensures by building `universities` itself.
        `load_corpus` does not call this.
        """
        seen_ids: set[str] = set()
        for pub in self.publications:
            problem = publication_problem(pub, self.window, self.researchers, seen_ids)
            if problem:
                raise ValidationError(f"publication {pub.id!r}: {problem}")
            seen_ids.add(pub.id)
        for r in self.researchers.values():
            problem = researcher_problem(r, self.taxonomy, self.window)
            if not problem and r.university_id not in self.universities:
                problem = f"unknown university {r.university_id!r}"
            if problem:
                raise ValidationError(f"researcher {r.id!r}: {problem}")


def publication_problem(
    pub: Publication, window, researchers: Mapping[str, Researcher], seen_ids: set[str]
) -> str | None:
    """The first rule `pub` breaks, as a message, or None; `seen_ids` holds the ids before it."""
    lo, hi = window
    if pub.id in seen_ids:
        return f"duplicate publication id {pub.id!r}"
    if not lo <= pub.year <= hi:
        return f"year {pub.year} outside the observation window {lo}-{hi}"
    if pub.doc_type not in DOC_TYPES:
        return f"document type {pub.doc_type!r} is not one of {DOC_TYPES}"
    if pub.citations < 0:
        return f"citations must be >= 0, got {pub.citations}"
    if not pub.categories:
        return "categories must not be empty"
    if not pub.authors:
        return "authors must not be empty"
    positions = sorted(slot.position for slot in pub.authors)
    if positions != list(range(1, len(pub.authors) + 1)):
        return f"author positions {positions} must be exactly 1..{len(pub.authors)}"
    for slot in pub.authors:
        rid = slot.researcher_id
        if rid is not None and rid not in researchers:
            return f"author position {slot.position} references unknown researcher {rid!r}"
    return None


def researcher_problem(researcher: Researcher, taxonomy: Taxonomy, window) -> str | None:
    """The first rule `researcher` breaks, as a message, or None."""
    if researcher.sds not in taxonomy.sds_to_uda:
        return f"SDS {researcher.sds!r} is absent from the taxonomy"
    window_length = window[1] - window[0] + 1
    if not 1 <= researcher.years_in_post <= window_length:
        return f"years_in_post {researcher.years_in_post} outside [1, {window_length}]"
    return None


@contextmanager
def open_input(path):
    """An input file opened as UTF-8 text; text that is not UTF-8 is a ValidationError naming the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None


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
    with open_input(tax_path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != TAXONOMY_COLUMNS:
            raise ValidationError(
                f"{tax_path}: expected header {','.join(TAXONOMY_COLUMNS)}, "
                f"got {','.join(reader.fieldnames or [])}"
            )
        for line_no, row in enumerate(reader, start=2):
            sds, uda, uda_name, life = (row[column] for column in TAXONOMY_COLUMNS)
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
    with open_input(res_path) as fh:
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
            uid, uname = row["university_id"], row["university_name"]
            if not uid:
                _fail(res_path, line_no, "empty university_id")
            if uid in universities and universities[uid] != uname:
                _fail(res_path, line_no, f"conflicting names for university {uid!r}")
            try:
                years = int(row["years_in_post"])
            except ValueError:
                _fail(res_path, line_no, f"field 'years_in_post': not an integer: {row['years_in_post']!r}")
            if years > window_length:
                log.warning(
                    "%s line %d: years_in_post %d capped at window length %d",
                    res_path, line_no, years, window_length,
                )
                years = window_length
            researcher = Researcher(rid, uid, row["sds"], years)
            problem = researcher_problem(researcher, taxonomy, window)
            if problem:
                _fail(res_path, line_no, problem)
            universities[uid] = uname
            researchers[rid] = researcher
    if not researchers:
        raise ValidationError(f"{res_path}: no researcher rows")
    return researchers, universities


def load_publications(pub_path, window, researchers: Mapping[str, Researcher]) -> tuple[Publication, ...]:
    """Read publications.jsonl; every non-null author id must name one of `researchers`."""
    pub_path = Path(pub_path)
    publications: list[Publication] = []
    seen: set[str] = set()
    with open_input(pub_path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                _fail(pub_path, line_no, f"invalid JSON: {exc}")
            if not isinstance(record, dict):
                _fail(pub_path, line_no, "expected a JSON object")
            pid = _require(record, "id", str, pub_path, line_no)
            year = _require(record, "year", int, pub_path, line_no)
            doc_type = _require(record, "type", str, pub_path, line_no)
            citations = _require(record, "citations", int, pub_path, line_no)
            categories = _require(record, "categories", list, pub_path, line_no)
            if not all(isinstance(c, str) and c for c in categories):
                _fail(pub_path, line_no, "field 'categories': entries must be non-empty strings")
            slots = []
            for slot in _require(record, "authors", list, pub_path, line_no):
                if not isinstance(slot, dict):
                    _fail(pub_path, line_no, "field 'authors': entries must be objects")
                rid = slot.get("researcher_id")
                if rid is not None and not isinstance(rid, str):
                    _fail(pub_path, line_no, "field 'researcher_id': expected string or null")
                position = _require(slot, "position", int, pub_path, line_no)
                intramural = _require(slot, "intramural", bool, pub_path, line_no)
                slots.append(AuthorSlot(position, intramural, rid))
            pub = Publication(pid, year, doc_type, citations, tuple(categories), tuple(slots))
            problem = publication_problem(pub, window, researchers, seen)
            if problem:
                _fail(pub_path, line_no, problem)
            seen.add(pid)
            publications.append(pub)
    return tuple(publications)


def load_corpus(pub_path, res_path, tax_path, window=DEFAULT_WINDOW) -> Corpus:
    """Load and validate the three corpus files; raises on the first violation.

    Missing files surface as FileNotFoundError (I/O), malformed contents as
    ValidationError with file/line context. The loaders apply the same
    per-record rules as `Corpus.validate`, so it is not run again here.
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
    publishers = {slot.researcher_id for pub in corpus.publications for slot in pub.authors}
    active = Counter(corpus.researchers[rid].sds for rid in publishers - {None})
    return {sds for sds, total in totals.items() if 2 * active[sds] >= total}
