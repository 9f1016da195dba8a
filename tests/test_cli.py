"""CLI dispatch, exit codes, config merging, and report files."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import pytest

import meritrank
from meritrank import cli, reports, scenario
from meritrank.cli import dispatch
from meritrank.synth import GeneratorProfile

PROFILE = {
    "n_universities": 10,
    "sds_per_uda": {"A": 2, "B": 2},
    "life_science_udas": ["B"],
    "staff_per_unit": [3, 9],
    "seed": 21,
}


# Acceptance criterion 11's profile: area A ranks 11 universities and area B 10.
CRITERION_11_PROFILE = {
    "n_universities": 12,
    "sds_per_uda": {"A": 3, "B": 2},
    "life_science_udas": ["B"],
    "staff_per_unit": [3, 9],
    "seed": 41,
}


@pytest.fixture(scope="module")
def criterion_11_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("criterion_11")
    profile_path = root / "profile.json"
    profile_path.write_text(json.dumps(CRITERION_11_PROFILE))
    out = root / "corpus"
    assert dispatch(["gen", "--profile", str(profile_path), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    profile_path = root / "profile.json"
    profile_path.write_text(json.dumps(PROFILE))
    out = root / "corpus"
    assert dispatch(["gen", "--profile", str(profile_path), "--out", str(out)]) == 0
    return out


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_cli_import_and_gen_leave_scipy_unloaded(tmp_path):
    """scipy loads at the first t-approximation p-value, so neither importing the CLI nor `gen` loads it."""
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(PROFILE))
    argv = ["gen", "--profile", str(profile), "--out", str(tmp_path / "corpus")]
    program = (
        "import sys\n"
        "import meritrank.cli\n"
        "assert 'scipy' not in sys.modules, 'import meritrank.cli loaded scipy'\n"
        f"assert meritrank.cli.main({argv!r}) == 0\n"
        "assert 'scipy' not in sys.modules, 'gen loaded scipy'\n"
    )
    src = str(Path(meritrank.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr


class TestGen:
    def test_writes_corpus_and_manifest(self, corpus_dir):
        for name in ("publications.jsonl", "researchers.csv", "taxonomy.csv", "metadata.json", "manifest.json"):
            assert (corpus_dir / name).exists()
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["tool"] == "meritrank"
        assert "created_utc" in manifest

    def test_seed_flag_overrides_profile(self, tmp_path):
        profile_path = tmp_path / "p.json"
        profile_path.write_text(json.dumps(PROFILE))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert dispatch(["gen", "--profile", str(profile_path), "--seed", "99", "--out", str(out_a)]) == 0
        assert dispatch(["gen", "--profile", str(profile_path), "--seed", "99", "--out", str(out_b)]) == 0
        assert (out_a / "publications.jsonl").read_bytes() == (out_b / "publications.jsonl").read_bytes()
        meta = json.loads((out_a / "metadata.json").read_text())
        assert meta["profile"]["seed"] == 99


class TestExitCodes:
    def test_missing_taxonomy_is_io_error(self, corpus_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "publications.jsonl").write_bytes((corpus_dir / "publications.jsonl").read_bytes())
        (broken / "researchers.csv").write_bytes((corpus_dir / "researchers.csv").read_bytes())
        code = dispatch(["indicators", "--corpus", str(broken), "--out", str(tmp_path / "s.csv")])
        assert code == 3
        assert "taxonomy.csv" in capsys.readouterr().err

    def test_unknown_flag_is_validation_error(self):
        assert dispatch(["rank", "--no-such-flag"]) == 1

    def test_unknown_command_is_validation_error(self):
        assert dispatch(["frobnicate"]) == 1

    def test_no_command_prints_help(self, capsys):
        assert dispatch([]) == 1
        assert "meritrank" in capsys.readouterr().out

    def test_help_exits_zero(self):
        assert dispatch(["--help"]) == 0

    def test_report_all_help_ties_window_to_corpus(self, capsys):
        assert dispatch(["report-all", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "default (2004, 2008); only with --corpus, as a generated corpus spans its profile's window" in text

    def test_missing_required_flag(self, capsys):
        assert dispatch(["indicators"]) == 1
        err = capsys.readouterr().err
        assert "is required" in err and "--" in err  # names the missing flag

    def test_undefined_statistic_exit_code(self, corpus_dir, tmp_path, capsys):
        # 4 classes cannot be told apart with --classes larger than the roster.
        code = dispatch(
            [
                "counterfactual",
                "--corpus",
                str(corpus_dir),
                "--level",
                "uda",
                "--field",
                "A",
                "--classes",
                "40",
                "--out",
                str(tmp_path / "cf.csv"),
                "--transition",
                str(tmp_path / "tr.csv"),
            ]
        )
        assert code == 2
        assert "classes" in capsys.readouterr().err
        assert not (tmp_path / "cf.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fund", "--uda", "A", "--budget", "1/0"],
            ["fund", "--uda", "A", "--ratio", "1/0"],
            ["report-all", "--global-budget", "1/0"],
        ],
        ids=["budget", "ratio", "global-budget"],
    )
    def test_zero_denominator_flag_rejected(self, corpus_dir, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert dispatch(argv + ["--corpus", str(corpus_dir), "--out", str(out)]) == 1
        assert f"{argv[-2]} needs an exact rational number, got '1/0'" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_denominator_config_ratio_rejected(self, corpus_dir, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"corpus": str(corpus_dir), "ratio": "1/0"}))
        out = tmp_path / "a.csv"
        assert dispatch(["fund", "--config", str(config_path), "--uda", "A", "--out", str(out)]) == 1
        assert "config key 'ratio' needs an exact rational number" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_transition_classes_rejected(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = dispatch(
            ["report-all", "--corpus", str(corpus_dir), "--transition-classes", "0", "--out", str(out)]
        )
        assert code == 1
        assert "error: need at least one quantile class, got --transition-classes '0'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--first-w", "nan"), ("--middle-w", "nan"), ("--last-w", "inf")]
    )
    def test_non_finite_credit_weight_rejected(self, corpus_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "s.csv"
        argv = ["indicators", "--corpus", str(corpus_dir), "--credit", "positional", flag, value]
        assert dispatch(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: positional weights must be finite and positive")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["rank", "--level", "uda"], ["counterfactual", "--level", "uda"], ["fund", "--uda", "A"], ["report-all"]],
        ids=["rank", "counterfactual", "fund", "report-all"],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_min_staff_rejected_before_reading(self, tmp_path, capsys, argv, source):
        # The corpus directory does not exist: reading it would exit 3.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"min_staff": -3} if source == "config" else {}))
        flags = ["--min-staff", "-3"] if source == "flag" else []
        out = tmp_path / "out"
        argv = [*argv, "--corpus", str(tmp_path / "missing"), "--config", str(config_path), *flags, "--out", str(out)]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--min-staff" in err and "-3" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("first_w", "0", "positional weights must be finite and positive"),
            ("middle_w", "-1.5", "positional weights must be finite and positive"),
            ("last_w", "nan", "positional weights must be finite and positive"),
            ("extramural_discount", "0", "extramural discount must be in (0, 1]"),
            ("extramural_discount", "1.5", "extramural discount must be in (0, 1]"),
            ("extramural_discount", "inf", "extramural discount must be in (0, 1]"),
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_credit_option_out_of_range_names_its_flag(self, tmp_path, capsys, key, value, message, source):
        flag = "--" + key.replace("_", "-")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({key: value} if source == "config" else {}))
        flags = [flag, value] if source == "flag" else []
        out = tmp_path / "s.csv"
        argv = ["indicators", "--corpus", str(tmp_path / "missing"), "--config", str(config_path), *flags]
        assert dispatch([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and flag in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, config", [(["--window", "2008", "2004"], {}), ([], {"window": [2008, 2004]})],
        ids=["flag", "config"],
    )
    def test_reversed_window_rejected_before_reading(
        self, corpus_dir, tmp_path, capsys, caplog, flags, config
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"corpus": str(corpus_dir), **config}))
        out = tmp_path / "s.csv"
        assert dispatch(["indicators", "--config", str(config_path), *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: empty window (2008, 2004)" in err
        assert "capped" not in err and not any("capped" in r.message for r in caplog.records)
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, first_row, message",
        [
            ("taxonomy.csv", None, ": not UTF-8 text: 'utf-8' codec"),
            ("researchers.csv", lambda row: row + ",extra", " line 2: expected 5 fields, got 6"),
            ("researchers.csv", lambda row: row.rsplit(",", 1)[0], " line 2: expected 5 fields, got 4"),
            ("taxonomy.csv", lambda row: row + ",extra", " line 2: expected 4 fields, got 5"),
            ("taxonomy.csv", lambda row: row.rsplit(",", 1)[0], " line 2: expected 4 fields, got 3"),
        ],
        ids=[
            "non-utf8", "researchers-extra-field", "researchers-short-row", "taxonomy-extra-field", "taxonomy-short-row"
        ],
    )
    def test_unreadable_input_is_validation_error(self, corpus_dir, tmp_path, capsys, name, first_row, message):
        broken = tmp_path / "broken"
        broken.mkdir()
        for file in ("publications.jsonl", "researchers.csv", "taxonomy.csv"):
            (broken / file).write_bytes((corpus_dir / file).read_bytes())
        if first_row is None:
            (broken / name).write_bytes(b"\xff\xfe not text\n")
        else:
            header, row, *rest = (broken / name).read_text().split("\n")
            (broken / name).write_text("\n".join([header, first_row(row), *rest]))
        code = dispatch(["indicators", "--corpus", str(broken), "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert f"{broken / name}{message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--config", "--profile"])
    def test_non_utf8_config_or_profile_names_the_file(self, tmp_path, capsys, flag):
        path = tmp_path / "input.json"
        path.write_bytes(b'{"seed": 1}\xff\n')
        assert dispatch(["gen", flag, str(path), "--out", str(tmp_path / "corpus")]) == 1
        err = capsys.readouterr().err
        assert "utf-8" in err
        assert str(path) in err
        assert not (tmp_path / "corpus").exists()

    def test_internal_value_error_is_not_reported_as_user_error(self, corpus_dir, tmp_path, monkeypatch):
        def broken_scoring(*args, **kwargs):
            raise ValueError("internal bug")

        monkeypatch.setattr(cli, "score_corpus", broken_scoring)
        with pytest.raises(ValueError, match="internal bug"):
            dispatch(["indicators", "--corpus", str(corpus_dir), "--out", str(tmp_path / "s.csv")])

    def test_internal_error_exits_4_with_its_traceback(self, tmp_path, monkeypatch, capsys):
        def broken_handler(cfg):
            raise RuntimeError("internal bug")

        monkeypatch.setattr(cli, "cmd_gen", broken_handler)
        assert cli.main(["gen", "--out", str(tmp_path / "corpus")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("Traceback")
        assert "RuntimeError: internal bug" in err

    @pytest.mark.parametrize("field, low", [("coauthor_range", 1), ("staff_per_unit", 3), ("window", 2004)])
    def test_profile_range_beyond_int64_rejected(self, tmp_path, capsys, field, low):
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps({**CRITERION_11_PROFILE, field: [low, 10**20]}))
        out = tmp_path / "corpus"
        assert dispatch(["gen", "--profile", str(profile_path), "--out", str(out)]) == 1
        assert f"error: profile: {field} ({low}, {10**20}) does not fit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--budget", "0"], "budget must be positive"),
            (["--global-budget", "-5"], "budget must be positive"),
            (["--classes", "1"], "funding needs at least 2 classes"),
            (["--ratio", "1"], "adjacent class ratio must exceed 1"),
            (["--ratio", "1/2"], "adjacent class ratio must exceed 1"),
        ],
        ids=["budget", "global-budget", "classes", "ratio-1", "ratio-half"],
    )
    def test_invalid_funding_option_rejected_before_reading(
        self, criterion_11_corpus, tmp_path, capsys, flags, message
    ):
        out = tmp_path / "run"
        argv = ["report-all", "--corpus", str(criterion_11_corpus), *flags, "--out", str(out)]
        assert dispatch(argv) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (out / "scores.csv").exists()


class TestIndicators:
    def test_scores_csv_schema(self, corpus_dir, tmp_path):
        out = tmp_path / "scores.csv"
        assert dispatch(["indicators", "--corpus", str(corpus_dir), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["researcher_id", "university_id", "sds", "ss", "percentile", "non_productive", "nil_impact"]
        assert len(rows) > 10
        assert (tmp_path / "scores.manifest.json").exists()


class TestRank:
    def test_rank_uda_writes_csv(self, corpus_dir, tmp_path):
        out = tmp_path / "rank.csv"
        assert dispatch(["rank", "--corpus", str(corpus_dir), "--level", "uda", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["field", "rank", "university_id", "score", "staff"]

    def test_single_field_schema_and_json_equivalence(self, corpus_dir, tmp_path):
        out = tmp_path / "rank.csv"
        out_json = tmp_path / "rank.json"
        code = dispatch(
            [
                "rank",
                "--corpus",
                str(corpus_dir),
                "--level",
                "sds",
                "--field",
                "A-01",
                "--out",
                str(out),
                "--json",
                str(out_json),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["rank", "university_id", "score", "staff"]
        payload = json.loads(out_json.read_text())
        assert len(payload) == len(rows) - 1
        for row, obj in zip(rows[1:], payload):
            assert row == [str(obj["rank"]), obj["university_id"], repr(obj["score"]), str(obj["staff"])]

    def test_unknown_field_rejected(self, corpus_dir, tmp_path):
        code = dispatch(
            ["rank", "--corpus", str(corpus_dir), "--level", "sds", "--field", "Z-99", "--out", str(tmp_path / "r.csv")]
        )
        assert code == 1


class TestConfigFile:
    def test_config_supplies_flags(self, corpus_dir, tmp_path):
        config = {"corpus": str(corpus_dir), "out": str(tmp_path / "scores.csv")}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert dispatch(["indicators", "--config", str(config_path)]) == 0
        assert (tmp_path / "scores.csv").exists()

    def test_flags_override_config(self, corpus_dir, tmp_path):
        config = {"corpus": str(corpus_dir), "out": str(tmp_path / "from_config.csv")}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "from_flag.csv"
        assert dispatch(["indicators", "--config", str(config_path), "--out", str(out)]) == 0
        assert out.exists()
        assert not (tmp_path / "from_config.csv").exists()

    def test_unknown_config_key_rejected(self, corpus_dir, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"corpus": str(corpus_dir), "bogus_key": 1}))
        assert dispatch(["indicators", "--config", str(config_path), "--out", str(tmp_path / "s.csv")]) == 1
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "window", [None, 2004, [2004], ["a", "b"]], ids=["null", "scalar", "one-year", "non-integer"]
    )
    def test_bad_config_window_rejected(self, corpus_dir, tmp_path, capsys, window):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"corpus": str(corpus_dir), "window": window}))
        out = tmp_path / "s.csv"
        assert dispatch(["indicators", "--config", str(config_path), "--out", str(out)]) == 1
        assert "'window'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["counterfactual", "--level", "uda"], {"share": [1]}),
            (["rank", "--level", "uda"], {"min_staff": [1]}),
            (["fund", "--uda", "A"], {"classes": 2.5}),
            (["rank", "--level", "uda"], {"min_staff": 2.5}),
            (["counterfactual", "--level", "uda"], {"share": True}),
            (["rank"], {"level": "bogus"}),
        ],
        ids=["share-list", "min-staff-list", "classes-float", "min-staff-float", "share-bool", "level-choice"],
    )
    def test_config_value_parsed_like_its_flag(self, corpus_dir, tmp_path, capsys, argv, config):
        (key,) = config
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"corpus": str(corpus_dir), **config}))
        out = tmp_path / "out.csv"
        assert dispatch(argv + ["--config", str(config_path), "--out", str(out)]) == 1
        assert f"config key {key!r} needs" in capsys.readouterr().err
        assert not out.exists()

    SHARE_RANGE = "selection share must be in [0, 1]"
    CLASS_COUNT = "need at least one quantile class"

    @pytest.mark.parametrize(
        "argv, config, requirement",
        [
            (["counterfactual", "--level", "uda"], {"share": 2}, f"--share accepts ({SHARE_RANGE})"),
            (["fund", "--uda", "A"], {"share": "nan"}, f"--share accepts ({SHARE_RANGE})"),
            (["counterfactual", "--level", "uda"], {"classes": 0}, f"--classes accepts ({CLASS_COUNT})"),
            (["report-all"], {"transition_classes": 0}, f"--transition-classes accepts ({CLASS_COUNT})"),
        ],
        ids=["share-2", "share-nan", "classes-0", "transition-classes-0"],
    )
    def test_config_value_out_of_range_names_its_flag(self, corpus_dir, tmp_path, capsys, argv, config, requirement):
        ((key, value),) = config.items()
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"corpus": str(corpus_dir), **config}))
        out = tmp_path / "out"
        assert dispatch(argv + ["--config", str(config_path), "--out", str(out)]) == 1
        assert f"error: config key {key!r} needs a value {requirement}, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_values_match_flag_values(self, corpus_dir, tmp_path):
        config = {"corpus": str(corpus_dir), "window": [2004, 2008], "ratio": "5/2", "min_staff": "3",
                  "budget": 1000, "bottom_funded": True, "share": 0.25, "pstar": "pooled",
                  "census": None}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        flags = ["--corpus", str(corpus_dir), "--window", "2004", "2008", "--ratio", "5/2", "--min-staff", "3",
                 "--budget", "1000", "--bottom-funded", "--share", "0.25", "--pstar", "pooled"]
        from_config = tmp_path / "config" / "alloc.csv"
        from_flags = tmp_path / "flags" / "alloc.csv"
        assert dispatch(["fund", "--uda", "A", "--config", str(config_path), "--out", str(from_config)]) == 0
        assert dispatch(["fund", "--uda", "A", *flags, "--out", str(from_flags)]) == 0
        assert from_config.read_bytes() == from_flags.read_bytes()
        manifests = [json.loads(p.with_name("alloc.manifest.json").read_text()) for p in (from_config, from_flags)]
        configs = [{k: v for k, v in m["config"].items() if k != "out"} for m in manifests]
        assert configs[0] == configs[1]


class TestCounterfactual:
    def test_single_field_csv_has_six_columns(self, corpus_dir, tmp_path):
        out = tmp_path / "cf.csv"
        svg = tmp_path / "cf.svg"
        code = dispatch(
            [
                "counterfactual",
                "--corpus",
                str(corpus_dir),
                "--level",
                "uda",
                "--field",
                "A",
                "--share",
                "0.2",
                "--out",
                str(out),
                "--svg",
                str(svg),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["university", "observed_rank", "hypothetical_rank", "sign", "delta", "gini"]
        assert all(len(row) == 6 for row in rows)
        assert all(row[3] in "+-=" for row in rows[1:])
        text = svg.read_text()
        assert text.count("<line") == 1
        assert text.count("<circle") == len(rows) - 1
        assert "rank shift" in text and "Gini" in text
        assert 'viewBox="0 0 800 600"' in text

    def test_refit_pstar_flag_changes_report(self, corpus_dir, tmp_path):
        frozen = tmp_path / "frozen.csv"
        refit = tmp_path / "refit.csv"
        base = ["counterfactual", "--corpus", str(corpus_dir), "--level", "uda"]
        assert dispatch(base + ["--out", str(frozen)]) == 0
        assert dispatch(base + ["--refit-pstar", "--out", str(refit)]) == 0
        assert read_csv(frozen)[0] == read_csv(refit)[0]  # same schema either way

    def test_svg_without_field_rejected(self, corpus_dir, tmp_path):
        code = dispatch(
            [
                "counterfactual",
                "--corpus",
                str(corpus_dir),
                "--level",
                "uda",
                "--out",
                str(tmp_path / "cf.csv"),
                "--svg",
                str(tmp_path / "cf.svg"),
            ]
        )
        assert code == 1
        assert not (tmp_path / "cf.csv").exists()

    def test_transition_without_field_rejected(self, corpus_dir, tmp_path):
        out = tmp_path / "cf.csv"
        code = dispatch(
            [
                "counterfactual",
                "--corpus",
                str(corpus_dir),
                "--level",
                "uda",
                "--out",
                str(out),
                "--transition",
                str(tmp_path / "tr.csv"),
            ]
        )
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--share", "2"], "selection share must be in [0, 1], got --share '2'"),
            (["--classes", "0"], "need at least one quantile class, got --classes '0'"),
            (["--refit-pstar"], "--refit-pstar applies only at --level uda"),
        ],
        ids=["share-2", "classes-0", "refit-pstar-at-sds"],
    )
    def test_invalid_scenario_option_rejected_before_reading(self, tmp_path, capsys, flags, message):
        out = tmp_path / "cf.csv"
        argv = ["counterfactual", "--level", "sds", "--corpus", str(tmp_path / "missing"), *flags]
        assert dispatch(argv + ["--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_transition_marginals_match_class_sizes(self, corpus_dir, tmp_path):
        out = tmp_path / "cf.csv"
        tr = tmp_path / "tr.csv"
        code = dispatch(
            [
                "counterfactual",
                "--corpus",
                str(corpus_dir),
                "--level",
                "uda",
                "--field",
                "A",
                "--classes",
                "4",
                "--out",
                str(out),
                "--transition",
                str(tr),
            ]
        )
        assert code == 0
        rows = read_csv(tr)
        k = 4
        body = rows[1 : 1 + k]
        n_units = len(read_csv(out)) - 1
        row_totals = [int(r[-1]) for r in body]
        col_totals = [int(v) for v in rows[-1][1:-1]]
        assert sum(row_totals) == n_units
        assert row_totals == col_totals[:]  # same roster split on both axes


class TestFund:
    def test_allocation_and_census(self, corpus_dir, tmp_path):
        alloc = tmp_path / "alloc.csv"
        census = tmp_path / "census.csv"
        findings = tmp_path / "findings.json"
        code = dispatch(
            [
                "fund",
                "--corpus",
                str(corpus_dir),
                "--uda",
                "A",
                "--budget",
                "130",
                "--out",
                str(alloc),
                "--census",
                str(census),
                "--findings",
                str(findings),
            ]
        )
        assert code == 0
        rows = read_csv(alloc)
        assert rows[0] == ["university_id", "class", "staff", "amount", "per_capita"]
        total = sum(float(r[3]) for r in rows[1:])
        assert total == pytest.approx(130.0, rel=1e-9)
        census_rows = read_csv(census)
        assert census_rows[0] == ["university_id", "class", "staff", "top_count", "incidence", "amount"]
        payload = json.loads(findings.read_text())
        assert payload[0]["uda"] == "A"

    def test_invalid_share_rejected_before_reading(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        argv = ["fund", "--uda", "A", "--corpus", str(tmp_path / "missing"), "--share", "2", "--out", str(out)]
        assert dispatch(argv) == 1
        assert "error: selection share must be in [0, 1], got --share '2'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_uda(self, corpus_dir, tmp_path):
        code = dispatch(
            ["fund", "--corpus", str(corpus_dir), "--uda", "Z", "--out", str(tmp_path / "a.csv")]
        )
        assert code == 1


class TestReportAll:
    def test_full_directory_from_profile(self, tmp_path):
        profile_path = tmp_path / "p.json"
        profile_path.write_text(json.dumps(PROFILE))
        out = tmp_path / "run"
        code = dispatch(
            ["report-all", "--profile", str(profile_path), "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        expected = [
            "corpus/publications.jsonl",
            "corpus/researchers.csv",
            "corpus/taxonomy.csv",
            "scores.csv",
            "productivity_uda.csv",
            "concentration_sds.csv",
            "ranks_sds.csv",
            "ranks_uda.csv",
            "counterfactual_uda.csv",
            "counterfactual_sds_summary.csv",
            "funding_census.csv",
            "paradoxes.json",
            "summary.json",
            "manifest.json",
        ]
        for name in expected:
            assert (out / name).exists(), name
        svgs = list(out.glob("scatter_*.svg"))
        assert svgs, "expected at least one scatter"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["researchers"] > 0
        assert 0 <= summary["nil_impact_share"] <= 1

    def test_works_on_existing_corpus(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        assert dispatch(["report-all", "--corpus", str(corpus_dir), "--out", str(out)]) == 0
        assert (out / "scores.csv").exists()
        assert not (out / "corpus").exists()

    def test_observed_unit_scores_are_computed_once(self, corpus_dir, tmp_path, monkeypatch):
        calls = []
        count = calls.append
        real = cli.sds_unit_scores
        monkeypatch.setattr(cli, "sds_unit_scores", lambda scores: count("observed") or real(scores))
        monkeypatch.setattr(
            scenario, "sds_unit_scores", lambda scores, kept: count("hypothetical") or real(scores, kept)
        )
        assert dispatch(["report-all", "--corpus", str(corpus_dir), "--out", str(tmp_path / "run")]) == 0
        # The rankings' aggregation feeds both counterfactual levels, which add one hypothetical each.
        assert calls == ["observed", "hypothetical", "hypothetical"]

    @pytest.mark.parametrize(
        "argv, calls",
        [
            (["rank", "--level", "sds", "--out", "rank.csv"], ["rank.csv"]),
            (["report-all", "--out", "run"], ["ranks_sds.csv", "national_averages", "ranks_uda.csv"]),
        ],
        ids=["rank-sds", "report-all"],
    )
    def test_national_averages_taken_only_for_uda_rankings(self, corpus_dir, tmp_path, monkeypatch, argv, calls):
        taken = []
        real_averages, real_write = cli.national_averages, reports.write_ranking_csv
        monkeypatch.setattr(cli, "national_averages", lambda *a: taken.append("national_averages") or real_averages(*a))
        monkeypatch.setattr(
            reports, "write_ranking_csv", lambda path, *a: taken.append(Path(path).name) or real_write(path, *a)
        )
        argv = [*argv[:-1], str(tmp_path / argv[-1]), "--corpus", str(corpus_dir)]
        assert dispatch(argv) == 0
        assert taken == calls

    def test_global_budget_splits_across_areas(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        code = dispatch(
            [
                "report-all",
                "--corpus",
                str(corpus_dir),
                "--global-budget",
                "5000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out / "funding_census.csv")
        total = sum(float(r[6]) for r in rows[1:])
        assert total == pytest.approx(5000.0, rel=1e-9)

    def test_scatter_title_is_escaped(self, tmp_path):
        profile_path = tmp_path / "p.json"
        profile_path.write_text(json.dumps(dict(CRITERION_11_PROFILE, sds_per_uda={"R&D": 3, "B": 2})))
        out = tmp_path / "run"
        assert dispatch(["report-all", "--profile", str(profile_path), "--out", str(out)]) == 0
        title = minidom.parse(str(out / "scatter_R&D.svg")).getElementsByTagName("text")[0]
        assert title.firstChild.data == "R&D"

    def test_uda_code_that_cannot_name_a_file_exits_1(self, tmp_path, capsys):
        profile_path = tmp_path / "p.json"
        profile_path.write_text(json.dumps(dict(CRITERION_11_PROFILE, sds_per_uda={"x/../../..": 3, "B": 2})))
        out = tmp_path / "a" / "run"
        assert dispatch(["report-all", "--profile", str(profile_path), "--out", str(out)]) == 1
        assert "sds_per_uda: UDA code 'x/../../..'" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--share", "2"], "selection share must be in [0, 1], got --share '2'"),
            (["--share", "nan"], "selection share must be in [0, 1], got --share 'nan'"),
            (["--transition-classes", "0"], "need at least one quantile class, got --transition-classes '0'"),
        ],
        ids=["share-2", "share-nan", "transition-classes-0"],
    )
    def test_invalid_scenario_option_leaves_no_file(self, tmp_path, capsys, flags, message):
        profile_path = tmp_path / "p.json"
        profile_path.write_text(json.dumps(CRITERION_11_PROFILE))
        out = tmp_path / "run"
        assert dispatch(["report-all", "--profile", str(profile_path), *flags, "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, config", [(["--window", "2006", "2007"], {}), ([], {"window": [2006, 2007]})], ids=["flag", "config"]
    )
    def test_window_without_corpus_rejected(self, tmp_path, capsys, flags, config):
        # A generated corpus spans its profile's window, which --window would not change.
        profile_path = tmp_path / "p.json"
        profile_path.write_text(json.dumps(CRITERION_11_PROFILE))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "run"
        argv = ["report-all", "--profile", str(profile_path), "--config", str(config_path), *flags]
        assert dispatch(argv + ["--out", str(out)]) == 1
        assert "error: --window needs --corpus" in capsys.readouterr().err
        assert not out.exists()

    def test_corpus_window_is_echoed(self, criterion_11_corpus, tmp_path):
        out = tmp_path / "run"
        argv = ["report-all", "--corpus", str(criterion_11_corpus), "--window", "2003", "2009", "--out", str(out)]
        assert dispatch(argv) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["window"] == [2003, 2009]

    @pytest.mark.parametrize("flags", [["--profile", "absent.json"], ["--seed", "3"]], ids=["profile", "seed"])
    def test_corpus_with_a_generator_option_rejected(self, criterion_11_corpus, tmp_path, capsys, flags):
        out = tmp_path / "run"
        argv = ["report-all", "--corpus", str(criterion_11_corpus), *flags, "--out", str(out)]
        assert dispatch(argv) == 1
        assert "error: --corpus cannot be combined with --profile or --seed" in capsys.readouterr().err
        assert not out.exists()

    def test_areas_with_fewer_universities_than_classes_are_skipped(self, criterion_11_corpus, tmp_path):
        out = tmp_path / "run"
        argv = ["report-all", "--corpus", str(criterion_11_corpus), "--classes", "50", "--out", str(out)]
        assert dispatch(argv) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["skipped_udas"] == [
            {"uda": "A", "reason": "cannot split 11 units into 50 classes"},
            {"uda": "B", "reason": "cannot split 10 units into 50 classes"},
        ]
        assert summary["total_top_scientists"] == 0
        assert read_csv(out / "funding_census.csv") == [["uda", *reports.CENSUS_COLUMNS]]
