"""Golden outputs: pinned SHA-256 digests and manifest config echoes of five CLI runs.

The runs use criterion 11's 12-university profile (seed 41): `report-all`
generates the corpus, and `indicators`, `rank`, `counterfactual` and `fund`
read the corpus it wrote. A refactor must reproduce every non-manifest byte
and every manifest `config` dict; a change that alters them on purpose
updates the pins here and says why in CHANGES.md.
"""

import hashlib
import json

from meritrank.cli import dispatch

PROFILE = {
    "n_universities": 12,
    "sds_per_uda": {"A": 3, "B": 2},
    "life_science_udas": ["B"],
    "staff_per_unit": [3, 9],
    "seed": 41,
}

GOLDEN_DIGESTS = {
    "counterfactual/cf.csv": "7a27dd320ed7d6496e7cae2608018bf28b2abb294858af8be09371161ea536ec",
    "counterfactual/scatter.svg": "643af35ab695cc881fb3244a73c25fc2c059a1741a7e3eefe8f0345ca9fe854e",
    "counterfactual/transition.csv": "7e3a6cc6699578227a064ba95a4680709ad4d6d9f921b5c3273fec9d20ed7e29",
    "fund/alloc.csv": "4ec0167cd01c219ae0c0f1e96c5308e8abad14d03fd108c60a8b442c8f804864",
    "fund/census.csv": "43bad6aa03cbe02846c7602d8b845fa715157e87ecd1fe5f120a70b10b7a3d1c",
    "fund/findings.json": "89b22ae144f58cd7a94833cbebf3ee8736a7cc2ada250ce90a571d58483ed236",
    "indicators/scores.csv": "00c870d6c60dfec08e84e0fb29fe983329200d9488ddd056e0cc594301dcd70c",
    "rank/rank.csv": "e0177b9e7124ceacc3682ae91c0b5f50bee0ebeace03cbaf67c19b81d632fea9",
    "rank/rank.json": "e834dea8427902a7abd74c5cb81f94d42214850870f89bbde1a5d62f41c5a81c",
    "report-all/concentration_sds.csv": "df40a9bd90b406220fa36aef0f2158f4e79705c6971bd62f74c9ab648bd06f91",
    "report-all/corpus/metadata.json": "babe2f08879778a8f0411549af1b3c307ee170a2bffa47fa8355ab7f99bea50f",
    "report-all/corpus/publications.jsonl": "e2cc734dea26fb64c03389bcc6bf192f62a0a9659a15494dacd8d8c09b007b39",
    "report-all/corpus/researchers.csv": "33f41f7bec251877bde2ff857b09221dc7868cc2aebd344d89a325acd53ffb0b",
    "report-all/corpus/taxonomy.csv": "c71d9295c2b8cb84dc6d414b9837ef10772c768135898c1ff73c18563e7cf1f6",
    "report-all/counterfactual_sds_summary.csv": "6aa54f4ab6970cba80ddcd908cdb9f598e495bff6e367a1830e02c3c6ad3b10a",
    "report-all/counterfactual_uda.csv": "f295a2128d185f082618445497006964dc201d9f9b372e851e3e2d36db8e3a98",
    "report-all/funding_census.csv": "d4dac0df59ba074d6ee5fcde00f3cbbc034f636aaa0c58037a08143433cfecbe",
    "report-all/paradoxes.json": "31e9e58ec230252e1ac8bc1afd8d7bf077f4bfd22f19550529fe086a82f94202",
    "report-all/productivity_uda.csv": "0c101230155534ceab10f9a4189d09944be8052e25110bb43efdc0e6c6bc82d7",
    "report-all/ranks_sds.csv": "7db378c08ff476af5078ef4a881dae6b7919f74d0e0a412c90ab2babf79c4f30",
    "report-all/ranks_uda.csv": "e0177b9e7124ceacc3682ae91c0b5f50bee0ebeace03cbaf67c19b81d632fea9",
    "report-all/scatter_A.svg": "643af35ab695cc881fb3244a73c25fc2c059a1741a7e3eefe8f0345ca9fe854e",
    "report-all/scatter_B.svg": "b2fe732545d9afd26d731fe154bf48c2d9b2be713fad8094e059d1fadd622b4d",
    "report-all/scores.csv": "00c870d6c60dfec08e84e0fb29fe983329200d9488ddd056e0cc594301dcd70c",
    "report-all/summary.json": "eb3ede97c9a07af74931f18ed8cfc6fd218e021d4094b767a254611f7583d5ea",
    "report-all/transition_A.csv": "7e3a6cc6699578227a064ba95a4680709ad4d6d9f921b5c3273fec9d20ed7e29",
    "report-all/transition_B.csv": "f6105de8526ada1a94f88a58f6f9b5488a404abb728f4e10918b16dc5b83967e",
}

GOLDEN_CONFIGS = {
    "counterfactual/cf.manifest.json": {
        "classes": 5,
        "corpus": "TMP/report-all/corpus",
        "credit": "equal",
        "extramural_discount": 1.0,
        "field": "A",
        "first_w": 2.0,
        "last_w": 2.0,
        "level": "uda",
        "middle_w": 1.0,
        "min_staff": 5,
        "out": "TMP/counterfactual/cf.csv",
        "pstar": "mean-of-units",
        "refit_pstar": False,
        "share": 0.2,
        "svg": "TMP/counterfactual/scatter.svg",
        "transition": "TMP/counterfactual/transition.csv",
        "window": [2004, 2008],
    },
    "fund/alloc.manifest.json": {
        "bottom_funded": False,
        "budget": "1000000",
        "census": "TMP/fund/census.csv",
        "classes": 4,
        "corpus": "TMP/report-all/corpus",
        "credit": "equal",
        "extramural_discount": 1.0,
        "findings": "TMP/fund/findings.json",
        "first_w": 2.0,
        "last_w": 2.0,
        "middle_w": 1.0,
        "min_staff": 5,
        "out": "TMP/fund/alloc.csv",
        "pstar": "mean-of-units",
        "ratio": "3",
        "share": 0.2,
        "uda": "A",
        "window": [2004, 2008],
    },
    "indicators/scores.manifest.json": {
        "corpus": "TMP/report-all/corpus",
        "credit": "equal",
        "extramural_discount": 1.0,
        "first_w": 2.0,
        "last_w": 2.0,
        "middle_w": 1.0,
        "min_staff": 5,
        "out": "TMP/indicators/scores.csv",
        "pstar": "mean-of-units",
        "window": [2004, 2008],
    },
    "rank/rank.manifest.json": {
        "corpus": "TMP/report-all/corpus",
        "credit": "equal",
        "extramural_discount": 1.0,
        "field": None,
        "first_w": 2.0,
        "json": "TMP/rank/rank.json",
        "last_w": 2.0,
        "level": "uda",
        "middle_w": 1.0,
        "min_staff": 5,
        "out": "TMP/rank/rank.csv",
        "pstar": "mean-of-units",
        "window": [2004, 2008],
    },
    "report-all/manifest.json": {
        "bottom_funded": False,
        "budget": "1000000",
        "classes": 4,
        "corpus": None,
        "credit": "equal",
        "extramural_discount": 1.0,
        "first_w": 2.0,
        "global_budget": None,
        "last_w": 2.0,
        "middle_w": 1.0,
        "min_staff": 5,
        "out": "TMP/report-all",
        "profile": "TMP/profile.json",
        "pstar": "mean-of-units",
        "ratio": "3",
        "seed": None,
        "share": 0.2,
        "transition_classes": 5,
        "window": [2004, 2008],
    },
}


def _runs(tmp):
    corpus = str(tmp / "report-all" / "corpus")
    return [
        ["report-all", "--profile", str(tmp / "profile.json"), "--out", str(tmp / "report-all")],
        ["indicators", "--corpus", corpus, "--out", str(tmp / "indicators" / "scores.csv")],
        [
            "rank", "--corpus", corpus, "--level", "uda",
            "--out", str(tmp / "rank" / "rank.csv"), "--json", str(tmp / "rank" / "rank.json"),
        ],
        [
            "counterfactual", "--corpus", corpus, "--level", "uda", "--field", "A",
            "--out", str(tmp / "counterfactual" / "cf.csv"),
            "--svg", str(tmp / "counterfactual" / "scatter.svg"),
            "--transition", str(tmp / "counterfactual" / "transition.csv"),
        ],
        [
            "fund", "--corpus", corpus, "--uda", "A",
            "--out", str(tmp / "fund" / "alloc.csv"),
            "--census", str(tmp / "fund" / "census.csv"),
            "--findings", str(tmp / "fund" / "findings.json"),
        ],
    ]


def run_golden(tmp):
    """Run the five commands under `tmp`; return (digests, manifest configs) keyed by relative path."""
    (tmp / "profile.json").write_text(json.dumps(PROFILE))
    for argv in _runs(tmp):
        assert dispatch(argv) == 0, argv[0]
    digests = {}
    configs = {}
    for path in sorted(p for p in tmp.rglob("*") if p.is_file() and p.name != "profile.json"):
        rel = path.relative_to(tmp).as_posix()
        if path.name.endswith("manifest.json"):
            config = json.loads(path.read_text())["config"]
            # Paths in the config echo differ per run directory; pin them relative to it.
            configs[rel] = json.loads(json.dumps(config).replace(str(tmp), "TMP"))
        else:
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests, configs


def test_golden_digests_and_manifest_configs(tmp_path):
    digests, configs = run_golden(tmp_path)
    assert digests == GOLDEN_DIGESTS
    assert configs == GOLDEN_CONFIGS
