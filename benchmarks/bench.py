"""meritrank benchmark: batch workloads, each run as fresh ``meritrank`` CLI processes.

    python3 benchmarks/bench.py --workload report-all-paper --seed 7 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is taken from
``src/`` next to this directory, never from an installed copy. This one
process starts one child at a time and adds no threads.

With ``--trace 0`` it prints the end-to-end metrics: the median wall time,
CPU time and peak RSS of the CLI processes, the set-up time and the share of
runs whose outputs passed every check. With ``--trace 1`` it runs the same
command in-process under ``tracer.py`` and prints the per-layer metrics.
Every run's outputs are checked: runs must agree byte for byte, match the
committed reference digests at the workload's default seed, and satisfy the
workload's summary invariants. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-reference`` rewrites the workload's reference digests from one
run at its default seed; use it only when a change to the outputs is
intended and explained.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "meritrank"
WORK = ROOT / ".bench_run"
REFERENCE_FILE = HERE / "reference_digests.json"
TRACER = HERE / "tracer.py"

# A run must exit within 180 s; children are killed past this budget.
RUN_BUDGET_S = 170.0
MIN_RUNS = 2
# Set-up repeats until this long has passed, and at least twice, so that its
# median spans the shared host's short slowdowns instead of sitting in one.
SETUP_MIN_S = 5.0
MIN_SETUPS = 2

PAPER_SUMMARY = {"universities": 77, "active_sds": 183, "min_researchers": 30_000}
# Criterion 11's profile, for the harness self-test only.
SMOKE_PROFILE = {
    "n_universities": 12,
    "sds_per_uda": {"A": 3, "B": 2},
    "life_science_udas": ["B"],
    "staff_per_unit": [3, 9],
    "seed": 41,
}
SMOKE_SUMMARY = {"universities": 12, "active_sds": 5, "min_researchers": 100}


class BenchError(Exception):
    """Set-up failed, so no run could be measured."""


@dataclass(frozen=True)
class Workload:
    default_seed: int
    prepare: Callable[[int, Path, float], None]  # (seed, inputs dir, deadline)
    command: Callable[[int, Path, Path], list[str]]  # (seed, inputs dir, out dir)
    summary: dict  # invariants of the run's summary.json


def _cli(*args) -> list[str]:
    return [sys.executable, "-m", "meritrank.cli", *map(str, args)]


def _write_smoke_profile(seed: int, inputs: Path, deadline: float) -> None:
    (inputs / "profile.json").write_text(json.dumps(SMOKE_PROFILE, sort_keys=True) + "\n")


def _no_inputs(seed: int, inputs: Path, deadline: float) -> None:
    pass


def _generate_corpus(seed: int, inputs: Path, deadline: float) -> None:
    child = run_child(_cli("gen", "--seed", seed, "--out", inputs / "corpus"), inputs / "gen.log", deadline)
    if child.returncode != 0:
        raise BenchError(f"meritrank gen exited {child.returncode}: {child.log[-2000:]}")


def check_summary(out: Path, expected: dict) -> list[str]:
    try:
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"]
    problems = []
    for key in ("universities", "active_sds"):
        if summary.get(key) != expected[key]:
            problems.append(f"summary {key} {summary.get(key)} != {expected[key]}")
    if not summary.get("researchers", 0) > expected["min_researchers"]:
        problems.append(f"summary researchers {summary.get('researchers')} <= {expected['min_researchers']}")
    return problems


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "report-all-paper": Workload(
        default_seed=7,
        prepare=_no_inputs,
        command=lambda seed, inputs, out: _cli("report-all", "--seed", seed, "--out", out),
        summary=PAPER_SUMMARY,
    ),
    "report-all-corpus": Workload(
        default_seed=7,
        prepare=_generate_corpus,
        command=lambda seed, inputs, out: _cli(
            "report-all", "--corpus", inputs / "corpus", "--credit", "positional",
            "--extramural-discount", "0.5", "--out", out,
        ),
        summary=PAPER_SUMMARY,
    ),
    # Not in BENCHMARK.json: a seconds-long pass for the harness self-test.
    "report-all-smoke": Workload(
        default_seed=41,
        prepare=_write_smoke_profile,
        command=lambda seed, inputs, out: _cli(
            "report-all", "--profile", inputs / "profile.json", "--seed", seed, "--out", out,
        ),
        summary=SMOKE_SUMMARY,
    ),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "success_rate": "ratio",
}


# --- child processes -------------------------------------------------------


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: str


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], log_path: Path, deadline: float) -> Child:
    """Run one process to completion; wall, CPU and RSS come from its own wait4 rusage."""
    status = None
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT
        )
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.monotonic()))
            finally:
                os.close(pidfd)
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall_s = time.perf_counter() - started
        finally:
            if status is None:
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        returncode=proc.returncode,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        log=log_path.read_text(encoding="utf-8", errors="replace"),
    )


# --- output digests --------------------------------------------------------


def digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every file under ``directory`` except run manifests, which hold timestamps."""
    result = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        if path.name.endswith("manifest.json") or path.suffix == ".log":
            continue
        result[path.relative_to(directory).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return result


def compare_digests(expected: dict[str, str], actual: dict[str, str], what: str) -> list[str]:
    problems = [f"{what}: missing {name}" for name in sorted(set(expected) - set(actual))]
    problems += [f"{what}: unexpected {name}" for name in sorted(set(actual) - set(expected))]
    problems += [
        f"{what}: {name} differs"
        for name in sorted(set(expected) & set(actual))
        if expected[name] != actual[name]
    ]
    return problems


def load_reference(workload: str) -> dict | None:
    if not REFERENCE_FILE.exists():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(workload)


# --- set-up and runs -------------------------------------------------------


def set_up(name: str, seed: int, deadline: float) -> tuple[Path, list[float], dict[str, str]]:
    """Byte-compile the package and prepare the inputs, repeatedly; keep the first copy.

    Returns the inputs directory, each repetition's seconds, and the input digests.
    """
    workload = WORKLOADS[name]
    times: list[float] = []
    first = None
    began = time.monotonic()
    while len(times) < MIN_SETUPS or time.monotonic() - began < SETUP_MIN_S:
        inputs = WORK / f"inputs-{len(times)}"
        started = time.perf_counter()
        if not compileall.compile_dir(PACKAGE, quiet=1, force=True):
            raise BenchError(f"byte-compiling {PACKAGE} failed")
        inputs.mkdir(parents=True)
        workload.prepare(seed, inputs, deadline)
        times.append(time.perf_counter() - started)
        copy = digests(inputs)
        if first is None:
            first = copy
            continue
        problems = compare_digests(first, copy, f"set-up copy {len(times) - 1}")
        if problems:
            raise BenchError("; ".join(problems))
        shutil.rmtree(inputs)
    return WORK / "inputs-0", times, first


@dataclass
class Run:
    child: Child
    problems: list[str]
    trace: dict | None = None


class Checker:
    """Checks each run's outputs against the first run and the committed reference."""

    def __init__(self, name: str, seed: int, reference: dict | None):
        self.workload = WORKLOADS[name]
        self.first: dict[str, str] | None = None
        self.reference = None
        if seed == self.workload.default_seed:
            self.reference = (reference or {}).get("outputs", {})

    def check(self, child: Child, out: Path) -> list[str]:
        if child.returncode != 0:
            return [f"exit code {child.returncode}: {child.log[-2000:]}"]
        problems = check_summary(out, self.workload.summary)
        actual = digests(out)
        if self.first is None:
            self.first = actual
        else:
            problems += compare_digests(self.first, actual, "rerun vs first run")
        if self.reference is not None:
            problems += compare_digests(self.reference, actual, "reference digests")
        return problems


def measure(name: str, seed: int, seconds: float, inputs: Path, checker: Checker, deadline: float,
            traced_runs: bool) -> list[Run]:
    """Run the workload until ``seconds`` have passed (at least MIN_RUNS times).

    With ``traced_runs`` the runs go through tracer.py untraced, then one more
    run is traced.
    """
    workload = WORKLOADS[name]
    runs: list[Run] = []
    started = time.monotonic()

    def one(index: int, traced: bool) -> Run:
        out = WORK / f"run-{index}"
        out.mkdir()
        argv = workload.command(seed, inputs, out)
        trace_path = WORK / f"trace-{index}.json"
        if traced_runs:
            flags = ["--run-id", f"{name}-{seed}-{index}"] if traced else ["--off"]
            argv = [sys.executable, str(TRACER), "--out", str(trace_path), *flags, "--", *argv[3:]]
        child = run_child(argv, WORK / f"run-{index}.log", deadline)
        problems = checker.check(child, out)
        trace = None
        if traced_runs and child.returncode == 0:
            trace = json.loads(trace_path.read_text())
            trace_path.unlink()
        shutil.rmtree(out)
        for problem in problems:
            print(f"run {index} FAILED: {problem}", file=sys.stderr)
        return Run(child, problems, trace)

    while len(runs) < MIN_RUNS or time.monotonic() - started < seconds:
        if runs and time.monotonic() + max(r.child.wall_s for r in runs) > deadline:
            break
        runs.append(one(len(runs), traced=False))
    if traced_runs:
        runs.append(one(len(runs), traced=True))
    return runs


# --- metrics ---------------------------------------------------------------


def end_to_end_metrics(runs: list[Run], setup_times: list[float]) -> dict[str, tuple[float, str]]:
    failed = sum(1 for r in runs if r.problems)
    values = {
        "wall_s": statistics.median(r.child.wall_s for r in runs),
        "cpu_s": statistics.median(r.child.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.child.peak_rss_mb for r in runs),
        "setup_s": statistics.median(setup_times),
        "success_rate": (len(runs) - failed) / len(runs),
    }
    return {key: (value, END_TO_END_UNITS[key]) for key, value in values.items()}


def per_layer_metrics(runs: list[Run]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics of the traced run, its stage sums, and reconciliation problems."""
    import tracer

    traced = runs[-1].trace
    untraced = [r.trace["dispatch_s"] for r in runs[:-1] if r.trace is not None]
    if traced is None or not untraced:
        return {}, ["traced run produced no trace"]
    metrics = tracer.layer_metrics(traced)
    imports = [r.trace["import_s"] for r in runs if r.trace is not None]
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["trace.overhead_s"] = (traced["dispatch_s"] - statistics.median(untraced), "s")

    for stage, total in tracer.stage_sums(traced["spans"]).items():
        print(f"stage {stage}: {total:.4f} s")
    self_sum = sum(value for key, (value, _) in metrics.items() if key.endswith(".self_s"))
    wall = traced["dispatch_s"]
    share = abs(self_sum - wall) / wall
    print(f"self times sum to {self_sum:.4f} s of {wall:.4f} s traced dispatch ({share:.2%} apart)")
    problems = [] if share <= 0.03 else [f"self times off traced wall by {share:.2%}"]
    return metrics, problems


def print_metrics(metrics: dict[str, tuple[float, str]], runs: list[Run]) -> None:
    for key, (value, unit) in metrics.items():
        print(f"{key}: {value:.6g} {unit}")
    walls = ", ".join(f"{r.child.wall_s:.3f}" for r in runs)
    print(f"{len(runs)} runs, wall s each: {walls}; no tail percentile has ten samples beyond it")


# --- entry point -----------------------------------------------------------


def record_reference(name: str) -> None:
    workload = WORKLOADS[name]
    deadline = time.monotonic() + RUN_BUDGET_S
    inputs, _, input_digests = set_up(name, workload.default_seed, deadline)
    out = WORK / "run-0"
    out.mkdir()
    child = run_child(workload.command(workload.default_seed, inputs, out), WORK / "run-0.log", deadline)
    problems = [f"exit code {child.returncode}"] if child.returncode else check_summary(out, workload.summary)
    if problems:
        raise BenchError("; ".join(problems))
    references = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    references[name] = {"seed": workload.default_seed, "inputs": input_digests, "outputs": digests(out)}
    REFERENCE_FILE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(references[name]['outputs'])} output digests for {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's reference seed)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measure for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    parser.add_argument("--record-reference", action="store_true", help="rewrite reference digests")
    args = parser.parse_args(argv)

    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no meritrank sources at {PACKAGE}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        if args.record_reference:
            record_reference(args.workload)
            return 0
        deadline = time.monotonic() + RUN_BUDGET_S
        reference = load_reference(args.workload)
        inputs, setup_times, input_digests = set_up(args.workload, seed, deadline)
        problems = []
        if seed == workload.default_seed:
            expected = (reference or {}).get("inputs", {})
            if reference is None:
                problems.append(f"no reference digests recorded for {args.workload}")
            problems += compare_digests(expected, input_digests, "reference input digests")
        checker = Checker(args.workload, seed, reference)
        runs = measure(args.workload, seed, args.seconds, inputs, checker, deadline, bool(args.trace))
        if args.trace:
            metrics, trace_problems = per_layer_metrics(runs)
            problems += trace_problems
        else:
            metrics = end_to_end_metrics(runs, setup_times)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    failed = sum(1 for r in runs if r.problems)
    print_metrics(metrics, runs)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
