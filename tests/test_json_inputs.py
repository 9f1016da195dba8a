"""Fuzzing the JSON inputs: one changed key of a `--config` or a `--profile` file.

A key's value is replaced by one of another JSON type (string, number,
boolean, null, list or object), or an unknown or a nested key is added. The
command runs in-process and must exit 1 with an `error:` message that names
the key, or exit 0 and write the outputs of the unchanged file. No run may
exit 4, the code of an internal error.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meritrank.cli import main
from meritrank.synth import GeneratorProfile, generate, write_corpus

PROFILE = GeneratorProfile(
    n_universities=3, sds_per_uda={"A": 2, "B": 1}, life_science_udas=("B",), staff_per_unit=(2, 4), seed=11
)
SETTINGS = settings(max_examples=60, deadline=None)

# The `report-all --corpus` config, every option but the paths set: each key's value and the JSON types it
# reads. A string is read as the flag reads it, so keys of numbers take strings too, and null unsets an option
# without a default.
CONFIG = {
    "window": ([2004, 2008], ("null",)),
    "credit": ("positional", ("string",)),
    "first_w": (3.0, ("string", "number", "integer")),
    "last_w": (2.5, ("string", "number", "integer")),
    "middle_w": (1.0, ("string", "number", "integer")),
    "extramural_discount": (0.5, ("string", "number", "integer")),
    "min_staff": (2, ("string", "integer")),
    "pstar": ("pooled", ("string",)),
    "budget": ("1000/3", ("string", "number", "integer")),
    "global_budget": (None, ("string", "number", "integer", "null")),
    "classes": (2, ("string", "integer")),
    "ratio": (2.5, ("string", "number", "integer")),
    "bottom_funded": (True, ("boolean",)),
    "share": (0.25, ("string", "number", "integer")),
    "transition_classes": (2, ("string", "integer")),
}
CONFIG_DATA = {key: value for key, (value, _) in CONFIG.items()}
# The JSON types each GeneratorProfile field reads, by its annotation; `n_sds`, when given, must match.
PROFILE_TYPES = {
    "int": ("integer",),
    "float": ("number", "integer"),
    "tuple[int, int]": (),
    "tuple[str, ...]": ("list",),
    "dict[str, int]": ("object",),
}
PROFILE_DATA = PROFILE.to_dict()
PROFILE_FIELD_TYPES = {
    name: PROFILE_TYPES[spec.type] for name, spec in GeneratorProfile.__dataclass_fields__.items()
} | {"n_sds": ("integer",)}

# Text that spells no number in any script: a string that does is a value of a number's type. The lists
# drawn hold no integer, so they are wrong for a pair of integers too.
TEXT = st.text(st.characters(exclude_categories=("Cs", "Nd")), max_size=5).filter(
    lambda text: text.strip().lower().lstrip("+-") not in ("inf", "nan", "infinity")
)
WRONG = {
    "string": TEXT,
    "number": st.floats(),
    "integer": st.integers(-(10**20), 10**20),
    "boolean": st.booleans(),
    "null": st.none(),
    "list": st.lists(st.one_of(TEXT, st.floats(), st.booleans(), st.none()), max_size=3),
    "object": st.dictionaries(TEXT, st.one_of(TEXT, st.integers(), st.none()), max_size=2),
}


def wrong_values(accepted: tuple[str, ...]):
    return st.sampled_from([t for t in WRONG if t not in accepted]).flatmap(WRONG.__getitem__)


@st.composite
def changes(draw, data: dict, types: dict[str, tuple[str, ...]]):
    """(key, value): a known key given a value of a type it does not take or its own value nested under
    its name, or an unknown key holding known keys or a number."""
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(types)))
        return key, draw(st.one_of(wrong_values(types[key]), st.just({key: data[key]})))
    key = draw(TEXT.filter(lambda k: k not in types))
    nested = st.dictionaries(st.sampled_from(sorted(types)), st.integers(0, 3), min_size=1, max_size=2)
    return key, draw(st.one_of(nested, WRONG["integer"]))


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _outputs(out: Path) -> dict[str, bytes]:
    """Every file under `out` but the manifests, which echo the config, by relative path."""
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file() and not path.name.endswith("manifest.json")
    }


def check_change(argv, name: str, data: dict, key: str, value, expected: dict[str, bytes]) -> None:
    """Run `argv` + the `--out` directory with `data`, `key` set to `value`, written to the file `name`."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / name
        path.write_text(json.dumps({**data, key: value}))
        out = Path(scratch) / "out"
        code, err = _run([*argv(path), "--out", str(out)])
        assert code in (0, 1), err
        if code == 1:
            assert err.startswith("error: "), err
            assert any(name in err for name in (key, repr(key), f"--{key.replace('_', '-')}")), err
            return
        assert _outputs(out) == expected


@pytest.fixture(scope="module")
def config_run(tmp_path_factory):
    """A small written corpus, the command line that reads a config file, and the outputs of the valid config."""
    root = tmp_path_factory.mktemp("json_inputs")
    write_corpus(generate(PROFILE), root / "corpus", PROFILE)

    def argv(path):
        return ["report-all", "--corpus", str(root / "corpus"), "--config", str(path)]

    (root / "config.json").write_text(json.dumps(CONFIG_DATA))
    code, err = _run([*argv(root / "config.json"), "--out", str(root / "out")])
    assert code == 0, err
    return argv, CONFIG_DATA, _outputs(root / "out")


@pytest.fixture(scope="module")
def profile_run(tmp_path_factory):
    """The command line that reads a profile, every field of a small profile, and the outputs of that profile."""
    root = tmp_path_factory.mktemp("json_profile")
    (root / "profile.json").write_text(json.dumps(PROFILE_DATA))

    def argv(path):
        return ["gen", "--profile", str(path)]

    code, err = _run([*argv(root / "profile.json"), "--out", str(root / "out")])
    assert code == 0, err
    return argv, PROFILE_DATA, _outputs(root / "out")


@SETTINGS
@given(change=changes(CONFIG_DATA, {key: accepted for key, (_, accepted) in CONFIG.items()}))
@example(change=("min_staff", 2.5))
def test_changed_config_key_is_rejected_or_runs_the_same(config_run, change):
    argv, data, expected = config_run
    check_change(argv, "config.json", data, *change, expected)


@SETTINGS
@given(change=changes(PROFILE_DATA, PROFILE_FIELD_TYPES))
@example(change=("staff_per_unit", "2"))
def test_changed_profile_field_is_rejected_or_generates_the_same(profile_run, change):
    argv, data, expected = profile_run
    check_change(argv, "profile.json", data, *change, expected)


@pytest.mark.parametrize("command", ["gen", "calibrate", "report-all"])
@pytest.mark.parametrize(
    "top", [[1, 2], "abc", 7, None, [["seed", 5], ["n_universities", 2]], []],
    ids=["list", "string", "number", "null", "pairs", "empty-list"],
)
def test_profile_that_is_not_an_object_is_rejected(tmp_path, command, top):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(top))
    out = tmp_path / "out"
    assert _run([command, "--profile", str(path), "--out", str(out)]) == (1, f"error: profile {path}: expected a JSON object\n")
    assert not out.exists()
