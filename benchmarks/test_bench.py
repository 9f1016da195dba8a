"""Self-tests of the benchmark harness: ``python3 -m pytest benchmarks``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import tracer

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "run_id": "t"}


def test_self_times_subtract_the_union_of_child_intervals():
    spans = [
        _span("cli.dispatch", 0.0, 10.0, None),
        _span("synth.generate", 1.0, 5.0, 0),
        _span("corpus.validate", 4.0, 4.5, 1),
        _span("stats.gini", 6.0, 7.0, 0),
        _span("stats.gini", 6.5, 7.5, 0),  # overlaps its sibling: covered once
        _span("reports.write_scores_csv", 8.0, 8.25, 0),
        _span("reports.write_manifest", 9.0, 9.5, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([10 - 4 - 1.5 - 0.75, 3.5, 0.5, 1.0, 1.0, 0.25, 0.5])

    metrics = tracer.layer_metrics({"spans": spans, "counts": {}, "import_s": 0.4, "dispatch_s": 10.0})
    assert metrics["cli.dispatch.self_s"] == (pytest.approx(3.75), "s")
    assert metrics["synth.generate.self_s"] == (pytest.approx(3.5), "s")
    assert metrics["stats.gini.self_s"] == (pytest.approx(2.0), "s")
    assert metrics["reports.write.self_s"] == (pytest.approx(0.75), "s")
    assert metrics["stats.gini.calls"] == (2, "count")
    assert metrics["corpus.load_corpus.self_s"] == (0.0, "s")

    stages = tracer.stage_sums(spans)
    assert stages["generate"] == pytest.approx(4.0)
    assert stages["report writing"] == pytest.approx(0.75)
    assert stages["load"] == 0.0


def test_digest_check_rejects_one_changed_byte(tmp_path):
    (tmp_path / "scores.csv").write_bytes(b"id,ss\nR1,0.5\n")
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "taxonomy.csv").write_bytes(b"sds,uda\n")
    (tmp_path / "manifest.json").write_text('{"created_utc": "t1"}')
    reference = bench.digests(tmp_path)
    assert sorted(reference) == ["corpus/taxonomy.csv", "scores.csv"]

    (tmp_path / "manifest.json").write_text('{"created_utc": "t2"}')
    assert bench.compare_digests(reference, bench.digests(tmp_path), "ref") == []

    data = bytearray((tmp_path / "scores.csv").read_bytes())
    data[-2] ^= 0x01
    (tmp_path / "scores.csv").write_bytes(bytes(data))
    assert bench.compare_digests(reference, bench.digests(tmp_path), "ref") == ["ref: scores.csv differs"]


def _run_bench(*args) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(bench.__file__)), "--workload", "report-all-smoke", "--seconds", "0", *args],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_workload_end_to_end_and_traced():
    declared = json.loads(BENCHMARK_JSON.read_text())

    result = _run_bench("--trace", "0")  # reference seed: digests are checked too
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= bench.MIN_RUNS
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert result["metrics"]["success_rate"]["value"] == 1.0

    traced = _run_bench("--seed", "3", "--trace", "1")
    assert traced["correct"] and traced["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: metric["unit"] for name, metric in traced["metrics"].items()
    }
    metrics = {name: metric["value"] for name, metric in traced["metrics"].items()}
    assert metrics["synth.generate.calls"] == 1
    assert metrics["corpus.validate.calls"] == 1
    assert metrics["reports.files"] > 10
    assert metrics["synth.generate.self_s"] > 0


def test_missing_sources_exit_without_a_result(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for name in ("bench.py", "tracer.py"):
        (tmp_path / "benchmarks" / name).write_bytes((Path(bench.__file__).parent / name).read_bytes())
    done = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", "report-all-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
