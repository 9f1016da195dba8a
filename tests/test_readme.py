"""The README's library examples run against a small generated corpus."""

import re
from pathlib import Path

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
