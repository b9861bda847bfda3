"""In-memory spans around the pipeline's public functions, from outside.

A Tracer replaces module and class attributes with timing wrappers for the
length of one execution and restores them afterwards; nothing under src/
changes. Each wrapper is installed at the attribute its caller looks the
function up through, so tridrive.fitness.trace and tridrive.pipeline.trace
are two call sites of one layer. A span is (name, start, end, parent index);
a layer's self time is its spans' durations minus their direct children's.
"""

from __future__ import annotations

import importlib
import inspect
import os
import resource
import time
from collections import Counter
from contextlib import contextmanager

ROOT_SPAN = "pipeline"


def _bound(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count_load(fn, args, kwargs, result, counts):
    counts["model.steps"] += sum(len(t.steps) for t in result.trajectories)
    counts.setdefault("model.load_rss_kb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _count_hash(fn, args, kwargs, result, counts):
    counts["pipeline.hash_bytes"] += os.stat(args[0]).st_size


def _count_candidates(fn, args, kwargs, result, counts):
    counts["pipeline.candidates_valid"] += len(result[0])
    counts["pipeline.candidates_requested"] += _bound(fn, args, kwargs, "n_candidates")


def _count_call(fn, args, kwargs, result, counts):
    counts["llm.calls"] += 1


def _count_trace(fn, args, kwargs, result, counts):
    counts["rewards.trace_calls"] += 1
    counts["rewards.steps"] += len(args[0].steps)


def _count_scored(fn, args, kwargs, result, counts):
    counts["fitness.specs_scored"] += len(result)
    counts["fitness.valid_rows"] += sum(1 for row in result if "error" not in row)


def _count_bootstrap(fn, args, kwargs, result, counts):
    counts["ope.resamples"] += _bound(fn, args, kwargs, "resamples")
    counts["ope.skipped"] += result.skipped_resamples


# (module, attribute, span name, counter run after the span closes)
TARGETS = [
    ("tridrive.pipeline", "load_dataset", "model.load", _count_load),
    ("tridrive.model", "dataset_from_json", "model.from_json", None),
    ("tridrive.model", "TrajectoryDataset.validate", "model.validate", None),
    ("tridrive.pipeline", "sha256_file", "pipeline.hash", _count_hash),
    ("tridrive.pipeline", "score_specs", "pipeline.score_specs", _count_scored),
    ("tridrive.pipeline", "generate_candidates", "pipeline.generate_candidates", _count_candidates),
    ("tridrive.pipeline", "compute_metadata", "features.metadata", None),
    ("tridrive.features", "compute_metadata", "features.metadata", None),
    ("tridrive.pipeline", "run_selection", "features.selection", None),
    ("tridrive.features", "build_feature_prompt", "features.prompt", None),
    ("tridrive.pipeline", "build_reward_prompt", "features.prompt", None),
    ("tridrive.features", "parse_selection_response", "features.parse", None),
    ("tridrive.pipeline", "parse_reward_response", "features.parse", None),
    ("tridrive.llm", "StubLlmClient.complete", "llm.complete", _count_call),
    ("tridrive.fitness", "trace", "rewards.trace", _count_trace),
    ("tridrive.pipeline", "trace", "rewards.trace", _count_trace),
    ("tridrive.fitness", "CompMetricConfig.prepare", "fitness.prepare", None),
    ("tridrive.fitness", "j_surv", "fitness.j_surv", None),
    ("tridrive.fitness", "j_conf", "fitness.j_conf", None),
    ("tridrive.fitness", "j_comp", "fitness.j_comp", None),
    ("tridrive.pipeline", "pareto_from_rows", "pareto.select", None),
    ("tridrive.pipeline", "load_prob_table", "ope.table_load", None),
    ("tridrive.pipeline", "bootstrap_ci", "ope.bootstrap", _count_bootstrap),
    ("tridrive.ope", "trajectory_weight", "ope.weights", None),
    ("tridrive.pipeline", "mortality_curve", "ope.mortality", None),
]


# Layer names in TARGETS order; each is reported as <name>_s.
LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


def call_site(module_name: str, attr: str) -> str:
    """The count key of the calls made through one patched attribute."""
    return f"calls {module_name}.{attr}"


SITES = tuple(call_site(module_name, attr) for module_name, attr, _, _ in TARGETS)


class Tracer:
    """Spans and counts of one traced execution."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _wrap(self, fn, name: str, site: str, counter):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])
            counts[site] += 1
            if counter is not None:
                counter(fn, args, kwargs, result, counts)
            return result

        return wrapper

    @contextmanager
    def patched(self):
        """Install every wrapper in TARGETS; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, counter in TARGETS:
                owner = importlib.import_module(module_name)
                *outer, leaf = attr.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if outer else getattr(owner, leaf)
                saved.append((owner, leaf, original))
                site = call_site(module_name, attr)
                setattr(owner, leaf, self._wrap(original, name, site, counter))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def self_seconds(self) -> Counter:
        """Self time summed per span name."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: Counter = Counter()
        for (name, *_), seconds in zip(self.spans, own):
            totals[name] += seconds
        return totals

    def top_level_seconds(self) -> float:
        """Wall time of the spans directly under the root span."""
        return sum(
            end - start for _, start, end, parent in self.spans
            if parent >= 0 and self.spans[parent][3] < 0
        )

    def uncalled(self, optional: set[str]) -> list[str]:
        """Patched call sites, other than the optional ones, that no call
        went through."""
        return [site for site in SITES if not self.counts[site] and site not in optional]

    def inclusive_seconds(self, name: str) -> float:
        """Wall time of the outermost spans called name."""
        total = 0.0
        for span_name, start, end, parent in self.spans:
            if span_name == name and (parent < 0 or self.spans[parent][0] != name):
                total += end - start
        return total

    def nesting_problems(self) -> list[str]:
        """Spans outside the one root span, outside their parent, or
        overlapping a sibling."""
        problems = []
        last_end: dict[int, float] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            if end < start:
                problems.append(f"span {name} ends before it starts")
            if parent < 0:
                if index or name != ROOT_SPAN:
                    problems.append(f"span {name} lies outside the {ROOT_SPAN} span")
                continue
            p_name, p_start, p_end, _ = self.spans[parent]
            if start < p_start or end > p_end:
                problems.append(f"span {name} lies outside its parent {p_name}")
            if start < last_end.get(parent, start):
                problems.append(f"span {name} overlaps a sibling under {p_name}")
            last_end[parent] = end
        return problems

    @classmethod
    def from_json(cls, doc: dict) -> "Tracer":
        tracer = cls()
        tracer.spans = [tuple(span) for span in doc["spans"]]
        tracer.counts = Counter(doc["counts"])
        return tracer

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent"],
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
        }
