"""The README's library examples and step-by-step command lines run against a small generated corpus."""

import json
import re
import shlex
from pathlib import Path

from meritrank.cli import dispatch
from meritrank.synth import GeneratorProfile, generate, write_corpus

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks() -> list[str]:
    """The python code blocks of the README's `## Library` section, in order."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_readme_library_examples_run(tmp_path, monkeypatch):
    # The examples read the corpus from `c/` and fund the area PHYS.
    profile = GeneratorProfile(
        n_universities=8, sds_per_uda={"PHYS": 2, "MED": 2}, life_science_udas=("MED",), staff_per_unit=(5, 9), seed=3
    )
    write_corpus(generate(profile), tmp_path / "c", profile)
    monkeypatch.chdir(tmp_path)
    blocks = library_blocks()
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["census"].uda == "PHYS"
    assert len(namespace["remaining"]) < len(namespace["scores"])


def step_by_step_commands() -> list[list[str]]:
    """The `meritrank` command lines under "# Or step by step" in the README's `## Command line` section."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    steps = section.split("# Or step by step\n", 1)[1].split("\n\n", 1)[0].replace("\\\n", " ")
    return [shlex.split(line) for line in steps.splitlines()]


def test_readme_step_by_step_commands_run(tmp_path, monkeypatch):
    # `report-all --seed 7` and the default `calibrate` run at full scale and take seconds each, so
    # only the step-by-step lines run here, on a small profile with the SDS CHEM-03 and the area PHYS.
    profile = {
        "n_universities": 8, "sds_per_uda": {"PHYS": 2, "CHEM": 3, "MED": 2},
        "life_science_udas": ["MED"], "staff_per_unit": [5, 9],
    }
    (tmp_path / "profile.json").write_text(json.dumps(profile))
    monkeypatch.chdir(tmp_path)
    commands = step_by_step_commands()
    assert [argv[:2] for argv in commands] == [
        ["meritrank", "gen"], ["meritrank", "indicators"], ["meritrank", "rank"],
        ["meritrank", "counterfactual"], ["meritrank", "fund"],
    ]
    for argv in commands:
        assert dispatch(argv[1:]) == 0, argv
        assert (tmp_path / argv[argv.index("--out") + 1]).exists(), argv
