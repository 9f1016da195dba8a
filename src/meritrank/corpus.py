"""Domain model, input-file loading and validation, and the field activity filter.

A corpus is immutable after load: every analysis step reads it, none mutates
it. Its researchers form one columnar table, `Researchers`, in id order; its
publications another, `Publications`: numpy columns for citations, year and
document type, a CSR (flat values plus row offsets) of category codes, and a
CSR of author slots holding the researcher's row, position and intramural
flag. `PublicationsBuilder` fills it from the loader, seeded with the
researcher ids, or from a list of records; the generator fills the columns
straight from its draws, and a `Corpus` recodes a table coded otherwise.
Scoring reads the columns, and `Publication` records are built only when
the table is iterated.

Each rule is written once. The publication rules are one columnar check,
`publications_problem`: a few array operations over a whole `Publications`
table that find the first row breaking a rule and that row's first rule.
`researcher_problem` checks one researcher. `load_publications` reads its
lines in one loop, decoding each once and type-checking and coding them a
block at a time, in columns; only a block that fails that check goes through
the per-line checks, which name its first bad line. It then runs the columnar
check once and names the file and line, so the first bad line is reported
whether it breaks a rule or fails to parse. `load_researchers` applies
`researcher_problem` row by row.
`Corpus.validate` runs both checks on a corpus built in memory, such as a
generated one, and names the record. A violation is rejected rather than
silently repaired. `load_corpus` and the generator return the corpus in
canonical order (`Publications.in_canonical_order`): publications by id and
each publication's slots by position, beside researchers by id, so neither
the order of the input files nor the order of generation reaches a score.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from array import array
from collections import defaultdict
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress, pairwise
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ValidationError

log = logging.getLogger(__name__)

DOC_TYPES = ("article", "review", "proceedings")
DEFAULT_WINDOW = (2004, 2008)

# Far above any real citation count; a stratum's int64 citation total stays exact under it.
CITATION_LIMIT = 10**9

# Publications decoded, type-checked and appended together by `load_publications`. A block's decoded
# records stay alive until it is appended: 64 lines make about 450 dicts and lists, under the garbage
# collector's default threshold of 700 allocations, so a paper-scale load triggers almost no collection.
# Blocks of 256 or 4,096 lines triggered about 900 collections, 7-9 of them full, and loaded slower.
PUBLICATIONS_PER_BLOCK = 64

# An integer cell: ASCII digits after an optional minus. `int` also reads " 5", "+5", "1_0" and other scripts' digits.
INTEGER_TEXT = re.compile("-?[0-9]+")

# A publication line's fields and their JSON types, in the order the loader checks them; then an author slot's.
PUBLICATION_FIELDS = (
    ("id", str), ("year", int), ("type", str), ("citations", int), ("categories", list), ("authors", list),
)
SLOT_FIELDS = (("position", int), ("intramural", bool))

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


def name_codes(names: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct names, and each name's index among them: the one coding of names."""
    distinct = sorted(set(names))
    index = {name: i for i, name in enumerate(distinct)}
    return tuple(distinct), np.array([index[name] for name in names], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Researchers:
    """The evaluated researchers as read-only columns, one row per researcher, in id order.

    `university` and `sds` are codes into the sorted name tuples `universities` and `sds_names`, so
    ordering by code is ordering by name.
    """

    ids: tuple[str, ...]
    universities: tuple[str, ...]
    university: np.ndarray
    sds_names: tuple[str, ...]
    sds: np.ndarray
    years_in_post: np.ndarray

    @classmethod
    def from_columns(cls, ids: list[str], university_ids: list[str], sds: list[str], years_in_post: list[int]):
        """The table of the researchers given column by column, in any order; rows come out sorted by id.
        An id given twice is a ValidationError."""
        order = sorted(range(len(ids)), key=ids.__getitem__)
        sorted_ids = tuple(ids[i] for i in order)
        for rid, next_rid in pairwise(sorted_ids):
            if rid == next_rid:
                raise ValidationError(f"duplicate researcher id {rid!r}")
        universities, university = name_codes([university_ids[i] for i in order])
        sds_names, sds_codes = name_codes([sds[i] for i in order])
        years = np.array(years_in_post, dtype=np.int64)[np.array(order, dtype=np.int64)]
        return cls(sorted_ids, universities, university, sds_names, sds_codes, years)

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, mask: np.ndarray):
        """The rows where `mask` is set, in row order, over the same name tuples: a name may have no row."""
        columns = {name: value[mask] for name, value in vars(self).items() if isinstance(value, np.ndarray)}
        return replace(self, ids=tuple(compress(self.ids, mask.tolist())), **columns)


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


def row_offsets(counts) -> np.ndarray:
    """Row offsets of a CSR whose rows hold `counts` values."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


@dataclass(frozen=True, eq=False)
class Publications:
    """All publications of a corpus as columns; iterating builds `Publication` records.

    Row i is publication i. Its categories are
    `category_names[category[category_offsets[i]:category_offsets[i + 1]]]`
    and its author slots the same span of the three `slot_*` columns under
    `slot_offsets`. `slot_researcher` is a code into `researcher_names`, or
    -1 for a co-author outside the evaluated population; in a corpus, it is
    the researcher's row. `doc_type` is a code into `doc_type_names`, which
    starts with `DOC_TYPES`.
    """

    ids: list[str]
    year: np.ndarray
    doc_type: np.ndarray
    citations: np.ndarray
    category_offsets: np.ndarray
    category: np.ndarray
    slot_offsets: np.ndarray
    slot_researcher: np.ndarray
    slot_position: np.ndarray
    slot_intramural: np.ndarray
    doc_type_names: list[str]
    category_names: list[str]
    researcher_names: list[str]

    @classmethod
    def from_records(cls, records: Iterable[Publication]) -> "Publications":
        pubs = list(records)
        slots = [slot for pub in pubs for slot in pub.authors]
        builder = PublicationsBuilder()
        builder.extend(
            [pub.id for pub in pubs], [pub.year for pub in pubs], [pub.doc_type for pub in pubs],
            [pub.citations for pub in pubs], [len(pub.categories) for pub in pubs],
            [c for pub in pubs for c in pub.categories], [len(pub.authors) for pub in pubs],
            [slot.position for slot in slots], [slot.intramural for slot in slots],
            [slot.researcher_id for slot in slots],
        )
        return builder.build()

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Publication]:
        """Each row as a `Publication` record, its values and its slots' as Python values; an author
        outside the population has researcher id None."""
        years, citations = self.year.tolist(), self.citations.tolist()
        doc_types = [self.doc_type_names[code] for code in self.doc_type.tolist()]
        categories = [self.category_names[code] for code in self.category.tolist()]
        names = self.researcher_names
        rids = [None if code < 0 else names[code] for code in self.slot_researcher.tolist()]
        positions, intramural = self.slot_position.tolist(), self.slot_intramural.tolist()
        cat_offsets, slot_offsets = self.category_offsets.tolist(), self.slot_offsets.tolist()
        for i, pid in enumerate(self.ids):
            c0, c1 = cat_offsets[i], cat_offsets[i + 1]
            s0, s1 = slot_offsets[i], slot_offsets[i + 1]
            slots = tuple(map(AuthorSlot, positions[s0:s1], intramural[s0:s1], rids[s0:s1]))
            yield Publication(pid, years[i], doc_types[i], citations[i], tuple(categories[c0:c1]), slots)

    @property
    def slot_publication(self) -> np.ndarray:
        """Row of the publication each author slot belongs to."""
        return np.repeat(np.arange(len(self.ids)), np.diff(self.slot_offsets))

    @property
    def category_publication(self) -> np.ndarray:
        """Row of the publication each category entry belongs to."""
        return np.repeat(np.arange(len(self.ids)), np.diff(self.category_offsets))

    def coded_by(self, researcher_ids: Sequence[str]) -> "Publications":
        """This table with each slot's researcher code its row in `researcher_ids`; a name outside them
        gets a code past the last row. The table itself when it is coded so already."""
        names = self.researcher_names
        if names[: len(researcher_ids)] == list(researcher_ids):
            return self
        codes = {rid: row for row, rid in enumerate(researcher_ids)}
        # Code -1 (outside the population) indexes the appended -1.
        recode = np.array([codes.setdefault(name, len(codes)) for name in names] + [-1], dtype=np.int64)
        return replace(self, slot_researcher=recode[self.slot_researcher], researcher_names=list(codes))

    def id_order(self) -> np.ndarray:
        """The row order that sorts the table by id."""
        ids = self.ids
        return np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)

    def in_canonical_order(self, order: np.ndarray | None = None) -> "Publications":
        """This table with rows sorted by id (or in `id_order()` computed already) and each row's slots
        by position; the table itself when it is in that order already. The one canonicalisation of
        every corpus the package builds: the loader and the generator both end with it."""
        ids = self.ids
        if order is None:
            order = self.id_order()
        slot_row, positions = self.slot_publication, self.slot_position
        if np.array_equal(order, np.arange(len(order))) and not np.any(
            (positions[1:] < positions[:-1]) & (slot_row[1:] == slot_row[:-1])
        ):
            return self
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        slot_order = np.lexsort((positions, rank[slot_row]))
        category_order = np.argsort(rank[self.category_publication], kind="stable")
        return Publications(
            ids=[ids[i] for i in order.tolist()],
            year=self.year[order],
            doc_type=self.doc_type[order],
            citations=self.citations[order],
            category_offsets=row_offsets(np.diff(self.category_offsets)[order]),
            category=self.category[category_order],
            slot_offsets=row_offsets(np.diff(self.slot_offsets)[order]),
            slot_researcher=self.slot_researcher[slot_order],
            slot_position=self.slot_position[slot_order],
            slot_intramural=self.slot_intramural[slot_order],
            doc_type_names=self.doc_type_names,
            category_names=self.category_names,
            researcher_names=self.researcher_names,
        )


def _int_column(values: list[int]) -> np.ndarray:
    """`values` as int64, or as Python ints (dtype object) if one does not fit; a rule rejects that one."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class PublicationsBuilder:
    """Collects publications a block at a time, unchecked, and freezes them into a `Publications` table."""

    def __init__(self, researcher_ids: Sequence[str] = ()):
        self._ids: list[str] = []
        self._years: list[int] = []
        self._doc_types: list[int] = []
        self._citations: list[int] = []
        self._category_counts: list[int] = []
        self._categories: list[int] = []
        self._slot_counts: list[int] = []
        self._researchers: list[int] = []
        self._positions: list[int] = []
        self._intramural: list[bool] = []
        # Name -> code; the codes are the order of first appearance, after the seeded researcher ids.
        self._doc_type_codes = {name: code for code, name in enumerate(DOC_TYPES)}
        self._category_codes: dict[str, int] = {}
        self._researcher_codes = {rid: code for code, rid in enumerate(researcher_ids)}

    def extend(
        self, ids, years, doc_types, citations, category_counts, categories,
        slot_counts, positions, intramural, researcher_ids,
    ):
        """Append publications given as columns: per publication its id, year, doc type, citations,
        category count and slot count; `categories` and the last three list every category and
        author slot, publication after publication, each publication's in its own order."""
        doc_codes, cat_codes, res_codes = self._doc_type_codes, self._category_codes, self._researcher_codes
        self._ids += ids
        self._years += years
        self._doc_types += [doc_codes.setdefault(name, len(doc_codes)) for name in doc_types]
        self._citations += citations
        self._category_counts += category_counts
        self._categories += [cat_codes.setdefault(name, len(cat_codes)) for name in categories]
        self._slot_counts += slot_counts
        self._researchers += [
            -1 if rid is None else res_codes.setdefault(rid, len(res_codes)) for rid in researcher_ids
        ]
        self._positions += positions
        self._intramural += intramural

    def build(self) -> Publications:
        return Publications(
            ids=self._ids,
            year=_int_column(self._years),
            doc_type=np.array(self._doc_types, dtype=np.int64),
            citations=_int_column(self._citations),
            category_offsets=row_offsets(self._category_counts),
            category=np.array(self._categories, dtype=np.int64),
            slot_offsets=row_offsets(self._slot_counts),
            slot_researcher=np.array(self._researchers, dtype=np.int64),
            slot_position=_int_column(self._positions),
            slot_intramural=np.array(self._intramural, dtype=bool),
            doc_type_names=list(self._doc_type_codes),
            category_names=list(self._category_codes),
            researcher_names=list(self._researcher_codes),
        )


@dataclass
class Corpus:
    publications: Publications
    researchers: Researchers
    universities: dict[str, str]
    taxonomy: Taxonomy
    window: tuple[int, int]

    def __post_init__(self):
        # The one place that makes slot codes researcher rows; the loader's table is coded so already.
        self.publications = self.publications.coded_by(self.researchers.ids)

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
        """Apply the loaders' rules to a corpus built in memory; raises ValidationError.

        It also checks that each researcher's university is known, which the
        researcher loader ensures by building `universities` itself.
        `load_corpus` does not call this.
        """
        problem = window_problem(self.window)
        if problem:
            raise ValidationError(problem)
        for uda in self.taxonomy.sds_to_uda.values():
            problem = uda_code_problem(uda)
            if problem:
                raise ValidationError(f"taxonomy: {problem}")
        res = self.researchers
        problem = publications_problem(self.publications, self.window, len(res))
        if problem:
            row, message = problem
            raise ValidationError(f"publication {self.publications.ids[row]!r}: {message}")
        for rid, university, sds, years in zip(
            res.ids, res.university.tolist(), res.sds.tolist(), res.years_in_post.tolist()
        ):
            problem = researcher_problem(res.sds_names[sds], years, self.taxonomy, self.window)
            if not problem and res.universities[university] not in self.universities:
                problem = f"unknown university {res.universities[university]!r}"
            if problem:
                raise ValidationError(f"researcher {rid!r}: {problem}")


def publications_problem(pubs: Publications, window, n_researchers: int) -> tuple[int, str] | None:
    """The first row of `pubs` that breaks a rule and the first rule it breaks, as (row, message), or None.

    The rules, in order: an id not seen in an earlier row, a year inside
    `window`, a known document type, citations in [0, CITATION_LIMIT], at
    least one category, no category twice, at least one author, author
    positions exactly 1..n, and each author a row below `n_researchers` or -1.
    Each rule is one array operation over the table; only the reported
    row's message is built in Python. The year, citation and position
    columns may hold Python ints (dtype object) that do not fit int64;
    every rule compares them as they are.
    """
    n = len(pubs)
    ids, year, citations, doc_type = pubs.ids, pubs.year, pubs.citations, pubs.doc_type
    lo, hi = window
    duplicate = np.zeros(n, dtype=bool)
    if len(set(ids)) < n:
        seen: set[str] = set()
        for i, pid in enumerate(ids):
            duplicate[i] = pid in seen
            seen.add(pid)
    known_type = np.array([name in DOC_TYPES for name in pubs.doc_type_names], dtype=bool)
    # Sorted by (row, category), a row's repeated category sits next to its first entry.
    order = np.lexsort((pubs.category, pubs.category_publication))
    cat_row, cat = pubs.category_publication[order], pubs.category[order]
    repeats = (cat_row[1:] == cat_row[:-1]) & (cat[1:] == cat[:-1])
    repeated = np.bincount(cat_row[1:][repeats], minlength=n) > 0
    n_slots = np.diff(pubs.slot_offsets)
    positions = pubs.slot_position
    n_positions = len(positions)
    # Positions are exactly 1..n when each lies in [1, n] and no two share a place in the row. Only
    # an in-range position is taken as int64 and given a place; the others count at place n_positions.
    in_range = positions >= 1
    in_range &= positions <= np.repeat(n_slots, n_slots)
    places = np.where(in_range, positions, 0).astype(np.int64, copy=False)
    places += np.repeat(pubs.slot_offsets[:-1] - 1, n_slots)
    places[~in_range] = n_positions
    misplaced = np.bincount(places, minlength=n_positions + 1)[:n_positions] > 1
    del places
    misplaced |= ~in_range
    unknown = pubs.slot_researcher >= n_researchers

    def rows_with(slot_mask: np.ndarray) -> np.ndarray:
        rows = np.searchsorted(pubs.slot_offsets, np.flatnonzero(slot_mask), side="right") - 1
        return np.bincount(rows, minlength=n) > 0

    def slots(i: int) -> slice:
        return slice(pubs.slot_offsets[i], pubs.slot_offsets[i + 1])

    def repeated_message(i: int) -> str:
        codes = pubs.category[pubs.category_offsets[i] : pubs.category_offsets[i + 1]].tolist()
        code = next(c for j, c in enumerate(codes) if c in codes[:j])
        return f"categories must be distinct, {pubs.category_names[code]!r} is repeated"

    def misplaced_message(i: int) -> str:
        ordered = sorted(positions[slots(i)].tolist())
        return f"author positions {ordered} must be exactly 1..{len(ordered)}"

    def unknown_message(i: int) -> str:
        span = slots(i)
        s = span.start + int(unknown[span].argmax())
        rid = pubs.researcher_names[pubs.slot_researcher[s]]
        return f"author position {positions[s]} references unknown researcher {rid!r}"

    rules = (  # per rule: the rows that break it, and the message for row i
        (duplicate, lambda i: f"duplicate publication id {ids[i]!r}"),
        ((year < lo) | (year > hi), lambda i: f"year {year[i]} outside the observation window {lo}-{hi}"),
        (
            ~known_type[doc_type],
            lambda i: f"document type {pubs.doc_type_names[doc_type[i]]!r} is not one of {DOC_TYPES}",
        ),
        (citations < 0, lambda i: f"citations must be >= 0, got {citations[i]}"),
        (citations > CITATION_LIMIT, lambda i: f"citations must be <= {CITATION_LIMIT}, got {citations[i]}"),
        (np.diff(pubs.category_offsets) == 0, lambda i: "categories must not be empty"),
        (repeated, repeated_message),
        (n_slots == 0, lambda i: "authors must not be empty"),
        (rows_with(misplaced), misplaced_message),
        (rows_with(unknown), unknown_message),
    )
    first = min((int(rows.argmax()) for rows, _ in rules if rows.any()), default=None)
    if first is None:
        return None
    return first, next(message(first) for rows, message in rules if rows[first])


def window_problem(window) -> str | None:
    """What makes `window` (first year, last year) no observation window, or None."""
    if window[0] > window[1]:
        return f"empty window {tuple(window)}: the first year is after the last"
    return None


def uda_code_problem(code: str) -> str | None:
    """What keeps `code` from being a UDA code, or None; a UDA code names output files."""
    if code in (".", "..") or any(c in code for c in "/\\\0"):
        return f"UDA code {code!r} cannot name an output file (no '/', '\\' or NUL; not '.' or '..')"
    return None


def researcher_problem(sds: str, years_in_post: int, taxonomy: Taxonomy, window) -> str | None:
    """The first rule a researcher of `sds` with `years_in_post` breaks, as a message, or None."""
    if sds not in taxonomy.sds_to_uda:
        return f"SDS {sds!r} is absent from the taxonomy"
    window_length = window[1] - window[0] + 1
    if not 1 <= years_in_post <= window_length:
        return f"years_in_post {years_in_post} outside [1, {window_length}]"
    return None


@contextmanager
def open_input(path):
    """An input file read as UTF-8 past a leading byte-order mark; non-UTF-8 is a ValidationError naming it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None


def load_json_object(path, role: str) -> dict:
    """The JSON object that the file at `path` holds; any other content is a ValidationError
    naming `role` and the path."""
    with open_input(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{role} {path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{role} {path}: expected a JSON object")
    return data


_decode_json = json.JSONDecoder().raw_decode


def _fail(path, line_no: int, message: str):
    raise ValidationError(f"{path} line {line_no}: {message}")


def _require(record: dict, key: str, kind, path, line_no: int) -> None:
    if key not in record:
        _fail(path, line_no, f"missing field {key!r}")
    value = record[key]
    if kind is int and isinstance(value, bool):
        _fail(path, line_no, f"field {key!r}: expected integer, got boolean")
    if not isinstance(value, kind):
        _fail(path, line_no, f"field {key!r}: expected {kind.__name__}, got {type(value).__name__}")


def _csv_rows(path: Path, fh, columns: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """The rows of a CSV file after its header `columns`, each with the number of the line it ends on;
    blank rows are skipped. A row with more or fewer fields than the header is a ValidationError."""
    reader = csv.reader(fh)
    rows = filter(None, reader)
    header = next(rows, None)
    if header is None or tuple(header) != columns:
        raise ValidationError(f"{path}: expected header {','.join(columns)}, got {','.join(header or [])}")
    for row in rows:
        if len(row) != len(columns):
            _fail(path, reader.line_num, f"expected {len(columns)} fields, got {len(row)}")
        yield reader.line_num, row


def load_taxonomy(tax_path) -> Taxonomy:
    tax_path = Path(tax_path)
    sds_to_uda: dict[str, str] = {}
    uda_names: dict[str, str] = {}
    life_flags: dict[str, str] = {}
    with open_input(tax_path) as fh:
        for line_no, (sds, uda, uda_name, life) in _csv_rows(tax_path, fh, TAXONOMY_COLUMNS):
            if not sds or not uda:
                _fail(tax_path, line_no, "empty sds or uda code")
            problem = uda_code_problem(uda)
            if problem:
                _fail(tax_path, line_no, problem)
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


def load_researchers(res_path, taxonomy: Taxonomy, window) -> tuple[Researchers, dict[str, str]]:
    """Read researchers.csv into a `Researchers` table, and each university id's name.

    The values are gathered column by column, with no object per researcher;
    `_csv_rows` skips blank rows and rejects a row that is not five fields.
    """
    res_path = Path(res_path)
    window_length = window[1] - window[0] + 1
    ids: dict[str, None] = {}  # the ids in file order, as a set
    university_ids: list[str] = []
    sds_codes: list[str] = []
    years_in_post: list[int] = []
    universities: dict[str, str] = {}
    with open_input(res_path) as fh:
        for line_no, (rid, uid, uname, sds, years_text) in _csv_rows(res_path, fh, RESEARCHER_COLUMNS):
            if not rid:
                _fail(res_path, line_no, "empty researcher id")
            if rid in ids:
                _fail(res_path, line_no, f"duplicate researcher id {rid!r}")
            if not uid:
                _fail(res_path, line_no, "empty university_id")
            if uid in universities and universities[uid] != uname:
                _fail(res_path, line_no, f"conflicting names for university {uid!r}")
            if not INTEGER_TEXT.fullmatch(years_text):
                _fail(res_path, line_no, f"field 'years_in_post': not an integer: {years_text!r}")
            years = int(years_text)
            if years > window_length:
                log.warning(
                    "%s line %d: years_in_post %d capped at window length %d",
                    res_path, line_no, years, window_length,
                )
                years = window_length
            problem = researcher_problem(sds, years, taxonomy, window)
            if problem:
                _fail(res_path, line_no, problem)
            universities[uid] = uname
            ids[rid] = None
            university_ids.append(uid)
            sds_codes.append(sds)
            years_in_post.append(years)
    if not ids:
        raise ValidationError(f"{res_path}: no researcher rows")
    return Researchers.from_columns(list(ids), university_ids, sds_codes, years_in_post), universities


def load_publications(pub_path, window, researcher_ids: Sequence[str]) -> Publications:
    """Read publications.jsonl; a slot's code is its author's row in `researcher_ids`, which must hold them all.

    One loop decodes each line once and type-checks and codes the lines in
    columns, a block of `PUBLICATIONS_PER_BLOCK` at a time. The table stops
    before the first line that fails to decode or whose block fails that
    check; such a block goes through the per-line checks, which name its
    first bad line. The rules then run once over the whole table
    (`publications_problem`). The first bad line is reported: a rule broken
    on an earlier line wins over a parse or type error on a later one.
    """
    pub_path = Path(pub_path)
    # Parsing in a function of its own frees the builder's lists before the check allocates its arrays.
    publications, line_numbers, line_error = _parse_publications(pub_path, researcher_ids)
    problem = publications_problem(publications, window, len(researcher_ids))
    if problem:
        row, message = problem
        _fail(pub_path, line_numbers[row], message)
    if line_error:
        raise line_error
    return publications


def _parse_publications(pub_path: Path, researcher_ids) -> tuple[Publications, array, ValidationError | None]:
    """The table of the lines of `pub_path` up to the first that fails to parse or type-check, coded by
    `researcher_ids`, each row's line number, and that line's error (None when every line passed)."""
    builder = PublicationsBuilder(researcher_ids)
    line_numbers = array("q")  # per table row
    numbers, records = [], []  # the pending block: line numbers and decoded JSON values
    error = None
    try:
        with open_input(pub_path) as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record, end = _decode_json(line)
                    if end != len(line):  # text after the value: `json.loads` raises "Extra data"
                        json.loads(line)
                except json.JSONDecodeError as exc:
                    _fail(pub_path, line_no, f"invalid JSON: {exc}")
                numbers.append(line_no)
                records.append(record)
                if len(records) == PUBLICATIONS_PER_BLOCK:  # reset first: a faulty block is appended once
                    block, numbers, records = (numbers, records), [], []
                    _append_block(builder, line_numbers, *block, pub_path)
    except ValidationError as exc:  # a line not UTF-8 or not one JSON value, or a full block's bad line
        error = exc
    try:  # the last lines, or those before a line that failed to decode: a fault among them comes first
        _append_block(builder, line_numbers, numbers, records, pub_path)
    except ValidationError as exc:
        error = exc
    return builder.build(), line_numbers, error


def _append_block(builder: PublicationsBuilder, line_numbers: array, numbers, records, path) -> None:
    """Type-check `records` (decoded from lines `numbers`) and append them to `builder`.

    A block that fails the column check goes through `_checked` line by
    line; the lines before the first it rejects are appended, then its
    ValidationError is raised.
    """
    columns = _block_columns(records)
    if columns is None:
        for k, (line_no, record) in enumerate(zip(numbers, records)):
            try:
                _checked(record, path, line_no)
            except ValidationError:
                _append_block(builder, line_numbers, numbers[:k], records[:k], path)
                raise
        raise AssertionError(f"{path}: the column check rejected lines that the per-line checks accept")
    builder.extend(*columns)
    line_numbers.extend(numbers)


def _block_columns(records: list) -> tuple | None:
    """`PublicationsBuilder.extend`'s arguments for decoded `records`, or None when a record misses a
    field or holds a value of the wrong type; `_checked` names which."""
    try:
        columns = {key: [record[key] for record in records] for key, _ in PUBLICATION_FIELDS}
        slots = [slot for row in columns["authors"] for slot in row]
        # A TypeError for a slot that is no object.
        columns |= {key: [slot[key] for slot in slots] for key, _ in SLOT_FIELDS}
        rids = [slot.get("researcher_id") for slot in slots]
        categories = [c for row in columns["categories"] for c in row]
    except (KeyError, TypeError):
        return None
    # A decoded JSON value's type is exactly dict, list, str, int, float, bool or NoneType, so
    # `type(v) is int` already excludes booleans.
    if not (
        all({*map(type, columns[key])} <= {kind} for key, kind in PUBLICATION_FIELDS + SLOT_FIELDS)
        and {*map(type, categories)} <= {str} and all(categories) and {*map(type, rids)} <= {str, type(None)}
    ):
        return None
    ids, years, doc_types, citations, category_rows, author_rows, positions, intramural = columns.values()
    return (
        ids, years, doc_types, citations, [len(row) for row in category_rows], categories,
        [len(row) for row in author_rows], positions, intramural, rids,
    )


def _checked(record, path, line_no: int) -> None:
    """Raise the ValidationError of the first missing or mistyped field of `record`, decoded from line
    `line_no` of `path`, if it has one."""
    if not isinstance(record, dict):
        _fail(path, line_no, "expected a JSON object")
    for key, kind in PUBLICATION_FIELDS:
        _require(record, key, kind, path, line_no)
        if key == "categories" and not all(isinstance(c, str) and c for c in record[key]):
            _fail(path, line_no, "field 'categories': entries must be non-empty strings")
    for slot in record["authors"]:
        if not isinstance(slot, dict):
            _fail(path, line_no, "field 'authors': entries must be objects")
        rid = slot.get("researcher_id")
        if rid is not None and not isinstance(rid, str):
            _fail(path, line_no, "field 'researcher_id': expected string or null")
        for key, kind in SLOT_FIELDS:
            _require(slot, key, kind, path, line_no)


def load_corpus(pub_path, res_path, tax_path, window=DEFAULT_WINDOW) -> Corpus:
    """Load and validate the three corpus files; raises on the first violation.

    Missing files surface as FileNotFoundError (I/O), malformed contents as
    ValidationError with file/line context. The loaders apply the same
    per-record rules as `Corpus.validate`, so it is not run again here.
    The corpus comes back in canonical order (see the module docstring).
    An empty window is rejected before any file is read.
    """
    problem = window_problem(window)
    if problem:
        raise ValidationError(problem)
    taxonomy = load_taxonomy(tax_path)
    researchers, universities = load_researchers(res_path, taxonomy, window)
    publications = load_publications(pub_path, window, researchers.ids)
    return Corpus(publications.in_canonical_order(), researchers, universities, taxonomy, tuple(window))


def active_sds_filter(corpus: Corpus) -> set[str]:
    """SDS codes where at least half of the researchers published in the window.

    The threshold is inclusive: exactly 50% active keeps the SDS. Downstream
    analyses restrict to this set.
    """
    res = corpus.researchers
    codes = corpus.publications.slot_researcher
    publishes = np.bincount(codes[codes >= 0], minlength=len(res)) > 0
    totals = np.bincount(res.sds, minlength=len(res.sds_names)).tolist()
    active = np.bincount(res.sds[publishes], minlength=len(res.sds_names)).tolist()
    return {sds for sds, total, n in zip(res.sds_names, totals, active) if 2 * n >= total}
