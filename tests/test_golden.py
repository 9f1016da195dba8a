"""Golden outputs: pinned SHA-256 digests and manifest echoes of thirteen CLI runs.

The runs use criterion 11's 12-university profile (seed 41): `report-all`
and `gen` generate the corpus from it, `calibrate` tunes it (it converges),
`calibrate --tolerance 0` cannot converge (so it exits 1 and still writes a
best-effort profile and a manifest), and `indicators` (with equal and with positional
credit), `rank`, `counterfactual` (at UDA level; at SDS level with pooled
national averages, which no SDS unit reads; at UDA level with pooled
national averages refitted after a 25% removal; and for one SDS in three
classes, with its scatter and its asymmetric transition matrix), `fund` and `report-all --corpus` (with
positional credit, as the benchmark's corpus workload runs it) read the
corpus `report-all` wrote. A refactor must reproduce every non-manifest byte and every
manifest's `command`, `config` and `inputs`; a change that alters them on
purpose updates the pins here and says why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

from meritrank.cli import dispatch

PROFILE = {
    "n_universities": 12,
    "sds_per_uda": {"A": 3, "B": 2},
    "life_science_udas": ["B"],
    "staff_per_unit": [3, 9],
    "seed": 41,
}

GOLDEN_DIGESTS = {
    "calibrate/profile.json": "ebbee66219272c4036c619f1629927ad3f98b648b0feaac7cb58f7b80bcaafc2",
    "calibrate-tolerance-0/profile.json": "c622c4e2ffb5fb4cb1ce8ed8b3b6aa9b08c25fb2c3250e2e780605f6ea8e686f",
    "counterfactual/cf.csv": "7a27dd320ed7d6496e7cae2608018bf28b2abb294858af8be09371161ea536ec",
    "counterfactual/scatter.svg": "643af35ab695cc881fb3244a73c25fc2c059a1741a7e3eefe8f0345ca9fe854e",
    "counterfactual/transition.csv": "7e3a6cc6699578227a064ba95a4680709ad4d6d9f921b5c3273fec9d20ed7e29",
    "counterfactual-sds-pooled/cf.csv": "79b19c20eee2b4a92de55fab81a513002d997d1f935f86a2e99cf3e695c38ee4",
    "counterfactual-sds-k3/cf.csv": "f43271806d5fd78a2893cb3546388b0a475961750f5a2c47ca3c4dc4fd40189d",
    "counterfactual-sds-k3/scatter.svg": "65e680e65e515462d134ecfc09e455246edfdb73a77dbad6f8c650a250138453",
    "counterfactual-sds-k3/transition.csv": "ba810a2c11097959a364fcb0f12bede46726055f2cd26d3801d4905767eedabd",
    "counterfactual-uda-pooled/cf.csv": "1a04e6776c67fde4f872bdd51f75ae870381417fbe310977e40da3e37f1bc455",
    "fund/alloc.csv": "4ec0167cd01c219ae0c0f1e96c5308e8abad14d03fd108c60a8b442c8f804864",
    "fund/census.csv": "43bad6aa03cbe02846c7602d8b845fa715157e87ecd1fe5f120a70b10b7a3d1c",
    "fund/findings.json": "89b22ae144f58cd7a94833cbebf3ee8736a7cc2ada250ce90a571d58483ed236",
    "gen/metadata.json": "babe2f08879778a8f0411549af1b3c307ee170a2bffa47fa8355ab7f99bea50f",
    "gen/publications.jsonl": "e2cc734dea26fb64c03389bcc6bf192f62a0a9659a15494dacd8d8c09b007b39",
    "gen/researchers.csv": "33f41f7bec251877bde2ff857b09221dc7868cc2aebd344d89a325acd53ffb0b",
    "gen/taxonomy.csv": "c71d9295c2b8cb84dc6d414b9837ef10772c768135898c1ff73c18563e7cf1f6",
    "indicators/scores.csv": "00c870d6c60dfec08e84e0fb29fe983329200d9488ddd056e0cc594301dcd70c",
    "indicators-positional/scores.csv": "74a5cd68d4b85bc5800fceab2b23a15187446af0262b582c261435429d3a5f01",
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
    "report-all-corpus/concentration_sds.csv": "c281eeecf3145cf4ad9d38a7ef0064f060d1fb83ee25a28a0e0572248166e795",
    "report-all-corpus/counterfactual_sds_summary.csv": "c980bf16d672000756781b6c250862415a6d751fdcfd19f13c31852dc4472cc5",
    "report-all-corpus/counterfactual_uda.csv": "a6c88f88e29c65e8ac7c6eaca07755c2d51339f6a5913ce121cda294f9cb763f",
    "report-all-corpus/funding_census.csv": "f9923fd824dfd727ca2f52e685b7a22931c77edfb466fdf46e30dbea06df7a9b",
    "report-all-corpus/paradoxes.json": "8295b6d8cd368b8cf2345905b40d898833952b5a088774a2d9551372d837762d",
    "report-all-corpus/productivity_uda.csv": "0c101230155534ceab10f9a4189d09944be8052e25110bb43efdc0e6c6bc82d7",
    "report-all-corpus/ranks_sds.csv": "9aea92339d0e6b046875c2bb6c02e1481d6caae5d61bb0ab96e95d5cc688a204",
    "report-all-corpus/ranks_uda.csv": "15885ce81b759f838f2a166931a0de8ecf2950580ac43f6e07b4c65d033826fa",
    "report-all-corpus/scatter_A.svg": "643af35ab695cc881fb3244a73c25fc2c059a1741a7e3eefe8f0345ca9fe854e",
    "report-all-corpus/scatter_B.svg": "a334cbcdfbc587c1d2abf84a4f87acb49564f5f124471f13a1ae237150a575d4",
    "report-all-corpus/scores.csv": "74a5cd68d4b85bc5800fceab2b23a15187446af0262b582c261435429d3a5f01",
    "report-all-corpus/summary.json": "65fde0c88b0b02c507b5c3f92499381a19ba5f9fffd566ac9dc3b8b26510d835",
    "report-all-corpus/transition_A.csv": "7e3a6cc6699578227a064ba95a4680709ad4d6d9f921b5c3273fec9d20ed7e29",
    "report-all-corpus/transition_B.csv": "524bdb942aa1b66cf088638f628f05bacbfeeed70919ddaa050f24dce4a92ad9",
}

GOLDEN_CONFIGS = {
    "calibrate/profile.manifest.json": {
        "out": "TMP/calibrate/profile.json",
        "profile": "TMP/profile.json",
        "seed": None,
        "target_nil_impact": 0.25,
        "target_non_productive": 0.17,
        "target_top20_share": 0.77,
        "tolerance": 0.03,
    },
    "calibrate-tolerance-0/profile.manifest.json": {
        "out": "TMP/calibrate-tolerance-0/profile.json",
        "profile": "TMP/profile.json",
        "seed": None,
        "target_nil_impact": 0.25,
        "target_non_productive": 0.17,
        "target_top20_share": 0.77,
        "tolerance": 0.0,
    },
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
    "counterfactual-sds-pooled/cf.manifest.json": {
        "classes": 5,
        "corpus": "TMP/report-all/corpus",
        "credit": "equal",
        "extramural_discount": 1.0,
        "field": None,
        "first_w": 2.0,
        "last_w": 2.0,
        "level": "sds",
        "middle_w": 1.0,
        "min_staff": 5,
        "out": "TMP/counterfactual-sds-pooled/cf.csv",
        "pstar": "pooled",
        "refit_pstar": False,
        "share": 0.25,
        "svg": None,
        "transition": None,
        "window": [2004, 2008],
    },
    "counterfactual-sds-k3/cf.manifest.json": {
        "classes": 3,
        "corpus": "TMP/report-all/corpus",
        "credit": "equal",
        "extramural_discount": 1.0,
        "field": "A-02",
        "first_w": 2.0,
        "last_w": 2.0,
        "level": "sds",
        "middle_w": 1.0,
        "min_staff": 5,
        "out": "TMP/counterfactual-sds-k3/cf.csv",
        "pstar": "mean-of-units",
        "refit_pstar": False,
        "share": 0.2,
        "svg": "TMP/counterfactual-sds-k3/scatter.svg",
        "transition": "TMP/counterfactual-sds-k3/transition.csv",
        "window": [2004, 2008],
    },
    "counterfactual-uda-pooled/cf.manifest.json": {
        "classes": 5,
        "corpus": "TMP/report-all/corpus",
        "credit": "equal",
        "extramural_discount": 1.0,
        "field": None,
        "first_w": 2.0,
        "last_w": 2.0,
        "level": "uda",
        "middle_w": 1.0,
        "min_staff": 5,
        "out": "TMP/counterfactual-uda-pooled/cf.csv",
        "pstar": "pooled",
        "refit_pstar": True,
        "share": 0.25,
        "svg": None,
        "transition": None,
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
    "gen/manifest.json": {"out": "TMP/gen", "profile": "TMP/profile.json", "seed": None},
    "indicators/scores.manifest.json": {
        "corpus": "TMP/report-all/corpus",
        "credit": "equal",
        "extramural_discount": 1.0,
        "first_w": 2.0,
        "last_w": 2.0,
        "middle_w": 1.0,
        "out": "TMP/indicators/scores.csv",
        "window": [2004, 2008],
    },
    "indicators-positional/scores.manifest.json": {
        "corpus": "TMP/report-all/corpus",
        "credit": "positional",
        "extramural_discount": 0.5,
        "first_w": 2.0,
        "last_w": 2.0,
        "middle_w": 1.0,
        "out": "TMP/indicators-positional/scores.csv",
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
    "report-all-corpus/manifest.json": {
        "bottom_funded": False,
        "budget": "1000000",
        "classes": 4,
        "corpus": "TMP/report-all/corpus",
        "credit": "positional",
        "extramural_discount": 0.5,
        "first_w": 2.0,
        "global_budget": None,
        "last_w": 2.0,
        "middle_w": 1.0,
        "min_staff": 5,
        "out": "TMP/report-all-corpus",
        "profile": None,
        "pstar": "mean-of-units",
        "ratio": "3",
        "seed": None,
        "share": 0.2,
        "transition_classes": 5,
        "window": [2004, 2008],
    },
}

PROFILE_INPUT = {"profile.json": "e13762eef27dc640c8bb1489b92cde66f6e180efba65cac9c9b09c35b958ab64"}
CORPUS_INPUTS = {
    "report-all/corpus/publications.jsonl": "e2cc734dea26fb64c03389bcc6bf192f62a0a9659a15494dacd8d8c09b007b39",
    "report-all/corpus/researchers.csv": "33f41f7bec251877bde2ff857b09221dc7868cc2aebd344d89a325acd53ffb0b",
    "report-all/corpus/taxonomy.csv": "c71d9295c2b8cb84dc6d414b9837ef10772c768135898c1ff73c18563e7cf1f6",
}

GOLDEN_MANIFEST_SOURCES = {
    "calibrate/profile.manifest.json": {"command": "calibrate", "inputs": PROFILE_INPUT},
    "calibrate-tolerance-0/profile.manifest.json": {"command": "calibrate", "inputs": PROFILE_INPUT},
    "counterfactual/cf.manifest.json": {"command": "counterfactual", "inputs": CORPUS_INPUTS},
    "counterfactual-sds-pooled/cf.manifest.json": {"command": "counterfactual", "inputs": CORPUS_INPUTS},
    "counterfactual-sds-k3/cf.manifest.json": {"command": "counterfactual", "inputs": CORPUS_INPUTS},
    "counterfactual-uda-pooled/cf.manifest.json": {"command": "counterfactual", "inputs": CORPUS_INPUTS},
    "fund/alloc.manifest.json": {"command": "fund", "inputs": CORPUS_INPUTS},
    "gen/manifest.json": {"command": "gen", "inputs": PROFILE_INPUT},
    "indicators/scores.manifest.json": {"command": "indicators", "inputs": CORPUS_INPUTS},
    "indicators-positional/scores.manifest.json": {"command": "indicators", "inputs": CORPUS_INPUTS},
    "rank/rank.manifest.json": {"command": "rank", "inputs": CORPUS_INPUTS},
    "report-all/manifest.json": {"command": "report-all", "inputs": PROFILE_INPUT},
    "report-all-corpus/manifest.json": {"command": "report-all", "inputs": CORPUS_INPUTS},
}


def _runs(tmp):
    """(argv, expected exit code) per run."""
    corpus = str(tmp / "report-all" / "corpus")
    profile = str(tmp / "profile.json")
    runs = [
        ["report-all", "--profile", profile, "--out", str(tmp / "report-all")],
        ["gen", "--profile", profile, "--out", str(tmp / "gen")],
        ["indicators", "--corpus", corpus, "--out", str(tmp / "indicators" / "scores.csv")],
        [
            "indicators", "--corpus", corpus, "--credit", "positional", "--extramural-discount", "0.5",
            "--out", str(tmp / "indicators-positional" / "scores.csv"),
        ],
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
            "counterfactual", "--corpus", corpus, "--level", "sds", "--pstar", "pooled",
            "--share", "0.25", "--out", str(tmp / "counterfactual-sds-pooled" / "cf.csv"),
        ],
        [
            "counterfactual", "--corpus", corpus, "--level", "sds", "--classes", "3", "--field", "A-02",
            "--out", str(tmp / "counterfactual-sds-k3" / "cf.csv"),
            "--svg", str(tmp / "counterfactual-sds-k3" / "scatter.svg"),
            "--transition", str(tmp / "counterfactual-sds-k3" / "transition.csv"),
        ],
        [
            "counterfactual", "--corpus", corpus, "--level", "uda", "--pstar", "pooled", "--refit-pstar",
            "--share", "0.25", "--out", str(tmp / "counterfactual-uda-pooled" / "cf.csv"),
        ],
        [
            "fund", "--corpus", corpus, "--uda", "A",
            "--out", str(tmp / "fund" / "alloc.csv"),
            "--census", str(tmp / "fund" / "census.csv"),
            "--findings", str(tmp / "fund" / "findings.json"),
        ],
        [
            "report-all", "--corpus", corpus, "--credit", "positional", "--extramural-discount", "0.5",
            "--out", str(tmp / "report-all-corpus"),
        ],
    ]
    calibrate = ["calibrate", "--profile", profile, "--out", str(tmp / "calibrate" / "profile.json")]
    unreachable = [
        "calibrate", "--profile", profile, "--tolerance", "0",
        "--out", str(tmp / "calibrate-tolerance-0" / "profile.json"),
    ]
    return [(argv, 0) for argv in runs + [calibrate]] + [(unreachable, 1)]


def run_golden(tmp):
    """Run the thirteen commands under `tmp`.

    Returns (digests, manifest configs, manifest commands and inputs), each
    keyed by path relative to `tmp`.
    """
    (tmp / "profile.json").write_text(json.dumps(PROFILE))
    for argv, code in _runs(tmp):
        assert dispatch(argv) == code, argv[0]
    digests = {}
    configs = {}
    sources = {}
    for path in sorted(p for p in tmp.rglob("*") if p.is_file()):
        rel = path.relative_to(tmp).as_posix()
        if rel == "profile.json":
            continue
        if path.name.endswith("manifest.json"):
            manifest = json.loads(path.read_text())
            # Paths in the config echo differ per run directory; pin them relative to it.
            configs[rel] = json.loads(json.dumps(manifest["config"]).replace(str(tmp), "TMP"))
            inputs = {Path(p).relative_to(tmp).as_posix(): d for p, d in manifest["inputs"].items()}
            sources[rel] = {"command": manifest["command"], "inputs": inputs}
        else:
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests, configs, sources


def test_golden_digests_and_manifest_configs(tmp_path):
    digests, configs, sources = run_golden(tmp_path)
    assert digests == GOLDEN_DIGESTS
    assert configs == GOLDEN_CONFIGS
    assert sources == GOLDEN_MANIFEST_SOURCES
