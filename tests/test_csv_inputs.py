"""Fuzzing the CSV inputs: one changed cell or line of `researchers.csv` or `taxonomy.csv`.

Each mutated corpus goes through `indicators --corpus` in-process. The run
must exit 1 with a message that names the file, and for a row fault the
line, or exit 0 and write the unmutated run's `scores.csv`. The one
exception is a `years_in_post` above the window, which is capped with a
warning: that run must write what the run with the window's length writes.
No run may exit 4, the code of an internal error.
"""

import csv
import io
import logging
import logging.handlers
import re
import shutil
import tempfile
from contextlib import redirect_stderr
from dataclasses import dataclass, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meritrank.cli import main
from meritrank.synth import GeneratorProfile, generate, write_corpus

PROFILE = GeneratorProfile(
    n_universities=3, sds_per_uda={"A": 2, "B": 1}, life_science_udas=("B",), staff_per_unit=(2, 4), seed=11
)
WINDOW_LENGTH = PROFILE.window[1] - PROFILE.window[0] + 1
SETTINGS = settings(max_examples=100, deadline=None)

TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=5)
# Text that is not a decimal integer; the built strings are close to one, as Python's int() reads them.
NOT_INTEGERS = st.one_of(
    TEXT,
    st.builds(
        "{}{}{}".format,
        st.sampled_from(["", " ", "+", "0x", "٣"]),
        st.integers(0, 99),
        st.sampled_from(["", " ", "_0", ".0", "e1", "١"]),
    ),
).filter(lambda text: not re.fullmatch("-?[0-9]+", text))
BEYOND_INT64 = st.integers(2**63, 10**30) | st.integers(-(10**30), -(2**63) - 1)


# Cell and row changes, then changes to the whole file.
KINDS = ("drop", "extra", "empty", "not_integer", "beyond_int64", "duplicate_id", "bom", "crlf", "blank", "not_utf8")


@dataclass(frozen=True)
class Mutation:
    """One change to a CSV file. `line` and `other` pick a line or a field modulo their count; `text` is
    the new cell's value, `byte` the byte put in by "not_utf8"."""

    kind: str
    line: int = 0
    other: int = 0
    text: str = ""
    byte: int = 0x80

    def apply(self, original: str) -> tuple[bytes, int | None]:
        """The mutated file, and the line (1-based) of the row it breaks, or None for a file-level change."""
        lines = original.split("\n")[:-1]
        if self.kind == "bom":
            return ("\ufeff" + original).encode(), None
        if self.kind == "crlf":
            return original.replace("\n", "\r\n").encode(), None
        if self.kind == "blank":
            lines.insert(self.line % (len(lines) + 1), "")
            return ("\n".join(lines) + "\n").encode(), None
        if self.kind == "not_utf8":
            data = original.encode()
            at = self.line % (len(data) + 1)
            return data[:at] + bytes([self.byte]) + data[at:], None
        i = 1 + self.line % (len(lines) - 1) if self.kind == "duplicate_id" else self.line % len(lines)
        fields = next(csv.reader([lines[i]]))
        if self.kind == "drop":
            del fields[self.other % len(fields)]
        elif self.kind == "extra":
            fields.insert(self.other % (len(fields) + 1), self.text)
        elif self.kind == "empty":
            fields[self.other % len(fields)] = ""
        elif self.kind in ("not_integer", "beyond_int64"):
            fields[-1] = self.text  # the integer column of both files: years_in_post, life_science
        elif self.kind == "duplicate_id":
            j = 1 + (i + self.other % (len(lines) - 2)) % (len(lines) - 1)  # any data row but i
            fields[0] = next(csv.reader([lines[j]]))[0]
        lines[i] = _csv_line(fields)
        return ("\n".join(lines) + "\n").encode(), i + 1 if i else None


def _csv_line(fields: list[str]) -> str:
    """`fields` as one CSV row with its line end cut off; the default line end quotes a cell holding CR or LF."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(fields)
    return buffer.getvalue()[:-2]


@st.composite
def mutations(draw):
    kind = draw(st.sampled_from(KINDS))
    text = {"extra": TEXT, "not_integer": NOT_INTEGERS, "beyond_int64": BEYOND_INT64.map(str)}.get(kind, st.just(""))
    byte = draw(st.integers(0x80, 0xFF)) if kind == "not_utf8" else 0x80
    return Mutation(kind, draw(st.integers(0, 10**4)), draw(st.integers(0, 10**4)), draw(text), byte)


def _indicators(corpus_dir: Path, out: Path) -> tuple[int, str, list[str]]:
    """Exit code, standard error and logged messages of `indicators --corpus corpus_dir --out out`."""
    handler = logging.handlers.BufferingHandler(capacity=10**6)
    logger = logging.getLogger("meritrank")
    logger.addHandler(handler)
    err = io.StringIO()
    try:
        with redirect_stderr(err):
            code = main(["indicators", "--corpus", str(corpus_dir), "--out", str(out)])
    finally:
        logger.removeHandler(handler)
    return code, err.getvalue(), [record.getMessage() for record in handler.buffer]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A small written corpus and the `scores.csv` bytes `indicators` writes for it."""
    root = tmp_path_factory.mktemp("csv_inputs")
    write_corpus(generate(PROFILE), root / "corpus", PROFILE)
    code, err, _ = _indicators(root / "corpus", root / "scores.csv")
    assert code == 0, err
    return root / "corpus", (root / "scores.csv").read_bytes()


def _mutated_copy(corpus_dir: Path, name: str, mutation: Mutation, scratch: Path) -> tuple[Path, int | None]:
    """A copy of the corpus in `scratch` with the file `name` mutated: that file's path, and the line of the
    row the mutation breaks (None for a file-level change)."""
    copy = scratch / "corpus"
    shutil.copytree(corpus_dir, copy)
    data, fault_line = mutation.apply((corpus_dir / name).read_text(encoding="utf-8"))
    (copy / name).write_bytes(data)
    return copy / name, fault_line


def check_mutation(written, name: str, mutation: Mutation) -> None:
    corpus_dir, expected = written
    with tempfile.TemporaryDirectory() as scratch:
        path, fault_line = _mutated_copy(corpus_dir, name, mutation, Path(scratch))
        out = Path(scratch) / "scores.csv"
        code, err, logged = _indicators(path.parent, out)
        assert code in (0, 1), err
        if code == 1:
            assert f"error: {path}" in err
            if fault_line is not None:
                # A fault that shows only against a later row, such as a conflicting name, is named there.
                reported = re.search(rf"error: {re.escape(str(path))} line (\d+): ", err)
                assert reported, err
                assert fault_line <= int(reported[1]) <= len(path.read_bytes().splitlines()), err
            return
        scores = out.read_bytes()
    capped = [message for message in logged if "capped" in message]
    if not capped:
        assert scores == expected
        return
    assert mutation.kind == "beyond_int64" and name == "researchers.csv"
    cap = f"years_in_post {mutation.text} capped at window length {WINDOW_LENGTH}"
    assert capped == [f"{path} line {fault_line}: {cap}"]
    with tempfile.TemporaryDirectory() as scratch:
        path, _ = _mutated_copy(corpus_dir, name, replace(mutation, text=str(WINDOW_LENGTH)), Path(scratch))
        assert _indicators(path.parent, Path(scratch) / "scores.csv")[0] == 0
        assert (Path(scratch) / "scores.csv").read_bytes() == scores


@SETTINGS
@given(mutation=mutations())
@example(mutation=Mutation("extra", line=3, other=5, text="x"))
def test_mutated_researchers_csv_is_rejected_or_scores_the_same(written, mutation):
    check_mutation(written, "researchers.csv", mutation)


@SETTINGS
@given(mutation=mutations())
@example(mutation=Mutation("drop", line=2, other=1))
def test_mutated_taxonomy_csv_is_rejected_or_scores_the_same(written, mutation):
    check_mutation(written, "taxonomy.csv", mutation)
