"""Out-of-program tracing for the meritrank benchmark.

Run as a script, this imports meritrank, wraps the public functions of each
module in timing spans (unless ``--off``), runs one ``meritrank`` command
in-process through ``cli.dispatch`` and writes the spans and counts as JSON:

    python3 benchmarks/tracer.py --out trace.json [--off] -- report-all --seed 7 --out DIR

The program itself is not changed. Each wrapper replaces its function
wherever a module looks the name up: in the defining module and at every
``from .x import f`` site, because those sites hold their own reference.
``Corpus.validate`` and the ``Corpus.slots_by_researcher`` cached property
are patched on the class. Counts are taken from the objects the wrapped
functions return, never from wrappers around per-item helpers such as
``standardize`` or ``credit_shares``, which would cost more than they
measure.

Spans are kept in memory and written out once the command has finished.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

# Public functions wrapped in spans, by module. Per-item helpers are left
# out on purpose: their time lands in the caller's self time.
TRACED_FUNCTIONS = {
    "synth": ("generate", "write_corpus"),
    "corpus": (
        "load_taxonomy",
        "load_researchers",
        "load_publications",
        "load_corpus",
        "active_sds_filter",
    ),
    "normalization": ("compute_baselines",),
    "indicators": ("researcher_ss", "percentile_ranks", "productivity_stats", "score_corpus"),
    "aggregation": ("sds_unit_scores", "national_averages", "uda_unit_scores", "rank_units"),
    "stats": ("gini", "spearman", "bottom_top_ratio"),
    "scenario": ("select_top", "counterfactual_rankings", "shift_gini_scatter"),
    "funding": ("allocate", "national_top_census", "paradox_report"),
}
# Every reports.write_* function is traced; their self times add up to one metric.
REPORT_WRITER_PREFIX = "write_"
ROOT_SPAN = "cli.dispatch"

# ROADMAP stage names, each the set of spans whose outermost occurrences it sums.
STAGES = {
    "generate": ("synth.generate",),
    "write": ("synth.write_corpus",),
    "load": ("corpus.load_corpus",),
    "score": ("indicators.score_corpus", "indicators.productivity_stats"),
    "rank": tuple(f"aggregation.{name}" for name in TRACED_FUNCTIONS["aggregation"]),
    "counterfactual": tuple(f"scenario.{name}" for name in TRACED_FUNCTIONS["scenario"]),
    "funding+census": tuple(f"funding.{name}" for name in TRACED_FUNCTIONS["funding"]),
    "report writing": ("reports.write",),
}

# Per-layer metrics taken from span counts: metric name -> span name.
CALL_COUNTS = {
    "synth.generate.calls": "synth.generate",
    "corpus.validate.calls": "corpus.validate",
    "stats.gini.calls": "stats.gini",
    "stats.spearman.calls": "stats.spearman",
    "scenario.counterfactual_rankings.calls": "scenario.counterfactual_rankings",
}
# Per-layer metrics the hooks count from returned objects: name -> unit.
OBJECT_COUNTS = {
    "synth.write_corpus.bytes": "bytes",
    "corpus.publications": "count",
    "corpus.authorships": "count",
    "corpus.researchers": "count",
    "normalization.strata": "count",
    "indicators.scored_researchers": "count",
    "aggregation.ranked_units": "count",
    "stats.spearman.exact_calls": "count",
    "funding.udas_funded": "count",
    "reports.files": "count",
    "reports.bytes": "bytes",
}


class Tracer:
    """Records nested spans (name, start, end, parent) and named counts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` timed as span ``name``; ``on_return(tracer, args, result)`` runs after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    def to_json(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "run_id": self.run_id}
            for name, start, end, parent in self.spans
        ]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(index)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for child in sorted(children[index], key=lambda c: spans[c]["start"]):
            lo = max(spans[child]["start"], span["start"])
            hi = min(spans[child]["end"], span["end"])
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        result.append(span["end"] - span["start"] - covered)
    return result


def _layer_of(name: str) -> str:
    """Span name -> the metric prefix its self time is reported under."""
    if name.startswith("reports." + REPORT_WRITER_PREFIX):
        return "reports.write"
    return name


def self_time_metric_names() -> list[str]:
    names = [f"{module}.{fn}.self_s" for module, fns in TRACED_FUNCTIONS.items() for fn in fns]
    names += ["corpus.validate.self_s", "corpus.slots_by_researcher.self_s"]
    names += ["reports.write.self_s", f"{ROOT_SPAN}.self_s"]
    return names


def stage_sums(spans: list[dict]) -> dict[str, float]:
    """Inclusive time per ROADMAP stage, counting only a stage's outermost spans."""
    stage_of = {}
    for stage, members in STAGES.items():
        for member in members:
            stage_of[member] = stage
    sums = dict.fromkeys(STAGES, 0.0)
    for span in spans:
        stage = stage_of.get(_layer_of(span["name"]))
        if stage is None:
            continue
        parent = span["parent"]
        nested = False
        while parent is not None:
            if stage_of.get(_layer_of(spans[parent]["name"])) == stage:
                nested = True
                break
            parent = spans[parent]["parent"]
        if not nested:
            sums[stage] += span["end"] - span["start"]
    return sums


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from one traced run's JSON."""
    spans = trace["spans"]
    own = self_times(spans)
    by_layer: Counter = Counter()
    calls: Counter = Counter()
    for span, seconds in zip(spans, own):
        by_layer[_layer_of(span["name"])] += seconds
        calls[span["name"]] += 1
    metrics: dict[str, tuple[float, str]] = {}
    for name in self_time_metric_names():
        metrics[name] = (float(by_layer[name[: -len(".self_s")]]), "s")
    for name, span_name in CALL_COUNTS.items():
        metrics[name] = (calls[span_name], "count")
    for name, unit in OBJECT_COUNTS.items():
        metrics[name] = (trace["counts"].get(name, 0), unit)
    metrics["cli.import_s"] = (trace["import_s"], "s")
    metrics["trace.dispatch_s"] = (trace["dispatch_s"], "s")
    metrics["trace.spans"] = (len(spans), "count")
    return metrics


# --- hooks: counts from returned objects -----------------------------------


def _count_corpus(tracer, args, corpus):
    tracer.counts["corpus.publications"] += len(corpus.publications)
    tracer.counts["corpus.authorships"] += sum(len(pub.authors) for pub in corpus.publications)
    tracer.counts["corpus.researchers"] += len(corpus.researchers)


def _count_corpus_bytes(tracer, args, paths):
    tracer.counts["synth.write_corpus.bytes"] += sum(os.path.getsize(p) for p in paths.values())


def _count_strata(tracer, args, baselines):
    tracer.counts["normalization.strata"] += len(baselines)


def _count_scored(tracer, args, scored):
    tracer.counts["indicators.scored_researchers"] += len(scored.scores)


def _count_ranked(tracer, args, rankings):
    tracer.counts["aggregation.ranked_units"] += sum(len(r) for r in rankings.values())


def _count_exact_spearman(tracer, args, result):
    from meritrank.stats import EXACT_PERMUTATION_MAX_N

    if result.n <= EXACT_PERMUTATION_MAX_N:
        tracer.counts["stats.spearman.exact_calls"] += 1


def _count_funded(tracer, args, allocation):
    tracer.counts["funding.udas_funded"] += 1


def _count_report(tracer, args, result):
    tracer.counts["reports.files"] += 1
    tracer.counts["reports.bytes"] += os.path.getsize(args[0])


HOOKS = {
    "synth.generate": _count_corpus,
    "corpus.load_corpus": _count_corpus,
    "synth.write_corpus": _count_corpus_bytes,
    "normalization.compute_baselines": _count_strata,
    "indicators.score_corpus": _count_scored,
    "aggregation.rank_units": _count_ranked,
    "stats.spearman": _count_exact_spearman,
    "funding.allocate": _count_funded,
}


def _replace_everywhere(modules, original, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of every meritrank module where they are looked up."""
    from functools import cached_property

    from meritrank.corpus import Corpus

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "meritrank"]
    for module_name, functions in TRACED_FUNCTIONS.items():
        module = importlib.import_module(f"meritrank.{module_name}")
        for fn_name in functions:
            name = f"{module_name}.{fn_name}"
            original = getattr(module, fn_name)
            _replace_everywhere(modules, original, tracer.wrap(name, original, HOOKS.get(name)))
    reports = importlib.import_module("meritrank.reports")
    for fn_name, original in list(vars(reports).items()):
        if fn_name.startswith(REPORT_WRITER_PREFIX) and callable(original):
            wrapper = tracer.wrap(f"reports.{fn_name}", original, _count_report)
            _replace_everywhere(modules, original, wrapper)

    Corpus.validate = tracer.wrap("corpus.validate", Corpus.validate)
    lazy = Corpus.__dict__["slots_by_researcher"]
    traced_property = cached_property(tracer.wrap("corpus.slots_by_researcher", lazy.func))
    traced_property.__set_name__(Corpus, "slots_by_researcher")
    Corpus.slots_by_researcher = traced_property


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file for spans, counts and timings")
    parser.add_argument("--off", action="store_true", help="run untraced, timing only")
    parser.add_argument("--run-id", default="run", help="identifier stored in every span")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- then meritrank arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    started = time.perf_counter()
    cli = importlib.import_module("meritrank.cli")
    import_s = time.perf_counter() - started

    tracer = None
    dispatch = cli.dispatch
    if not args.off:
        tracer = Tracer(args.run_id)
        install(tracer)
        dispatch = tracer.wrap(ROOT_SPAN, cli.dispatch)
    started = time.perf_counter()
    code = dispatch(command)
    dispatch_s = time.perf_counter() - started

    result = {
        "returncode": code,
        "import_s": import_s,
        "dispatch_s": dispatch_s,
        "spans": tracer.to_json() if tracer else [],
        "counts": dict(tracer.counts) if tracer else {},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
