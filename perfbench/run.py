"""Pipeline benchmark: one workload, closed loop, one execution at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The inputs are generated from the seed in
a child process (see workloads.py), then executions of the real pipeline
with the stub LLM client run, each execution in a fresh process of its own
(see execute.py), as a `tridrive pipeline` call would:

    fresh   PipelineRun(config, empty_dir).execute()    -> run_s
    resume  PipelineRun(config, same_dir).execute()     -> resume_s

Each fresh execution is followed by RESUMES resumes of its directory. These
cycles repeat, after the first two, for as long as each next execution is
expected to end within S seconds, and each metric is the median of its
samples. Every execution's outputs are checked; an execution that fails, or
whose outputs fail a check, counts as failed, and the command then exits 1.
Without the tridrive sources it exits 2 and prints no result.

With --trace 0 the last stdout line reports the end-to-end metrics. With
--trace 1 the first fresh execution and its first resume are traced instead
(spans around the public functions, see tracing.py) and the last line
reports per-layer metrics; the untraced executions after them give the
baseline of the tracing overhead. Earlier stdout lines give the run record
and a readable summary; the spans of the traced pair are written to
.perfbench-traces/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, ROOT_SPAN, Tracer, call_site  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK_ROOT = workloads.ROOT / ".perfbench-work"
TRACE_ROOT = workloads.ROOT / ".perfbench-traces"
SETUP_TIMEOUT_S = 170
EXECUTE_TIMEOUT_S = 170
MIN_CYCLES = 2
RESUMES = 2

# Per-layer self times reported for the traced resume as well as the fresh run.
RESUME_LAYERS = ("model.load", "model.from_json", "model.validate", "pipeline.hash", ROOT_SPAN)

# Traced call sites a fresh execution may leave uncalled: run_selection
# computes metadata itself only when the pipeline passes none, and tables
# load only when the workload has some.
OPTIONAL_SITE = call_site("tridrive.features", "compute_metadata")
TABLE_SITE = call_site("tridrive.pipeline", "load_prob_table")



class Measurement:
    """Samples, checks and failure counts of one benchmark run."""

    def __init__(self, name: str, seed: int, n_patients: int, inputs: Path, runs: Path):
        self.name = name
        self.seed = seed
        self.n_patients = n_patients
        self.inputs = inputs
        self.config = workloads.pipeline_config(name, seed, inputs)
        self.runs = runs
        self.maxrss_kb = 0
        self.reference = checks.load_references().get(
            checks.reference_key(name, n_patients, seed)
        )
        self.run_s: list[float] = []
        self.resume_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None
        self.traced: dict[str, Tracer] = {}
        self.traced_s: dict[str, float] = {}
        self.traced_stage_s: dict = {}

    def _execute(self, run_dir: Path, traced: bool) -> tuple[float, Tracer | None]:
        """One execution in a fresh process; its wall time and spans."""
        proc = subprocess.run(
            [sys.executable, "-B", str(HERE / "execute.py"), self.name, str(self.seed),
             str(self.inputs), str(run_dir), str(int(traced))],
            capture_output=True, text=True, timeout=EXECUTE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"execution exited {proc.returncode}:\n{proc.stderr}")
        doc = json.loads(proc.stdout.splitlines()[-1])
        self.maxrss_kb = max(self.maxrss_kb, doc["maxrss_kb"])
        return doc["seconds"], Tracer.from_json(doc) if traced else None

    def _attempt(self, what: str, action) -> bool:
        """Run one execution and its checks; count and report a failure."""
        self.attempted += 1
        try:
            problems = action()
        except Exception:  # any failure of the program is a failed execution
            traceback.print_exc()
            problems = [f"raised {sys.exc_info()[0].__name__}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
            return False
        return True

    def fresh(self, run_dir: Path, traced: bool) -> bool:
        def action():
            from tridrive.pipeline import run_digest

            seconds, tracer = self._execute(run_dir, traced)
            snap = checks.snapshot(run_dir)
            manifest = json.loads((run_dir / "manifest.json").read_text())
            problems = checks.consistency_problems(snap, manifest, self.config, self.n_patients)
            if self.reference is not None:
                problems += checks.differences(snap, self.reference, "reference")
            digest = run_digest(run_dir)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append("run_digest differs from the first fresh execution")
            if tracer is not None:
                problems += tracer.nesting_problems()
                optional = {OPTIONAL_SITE} | (set() if self.config.probs else {TABLE_SITE})
                problems += [f"{site}: 0, never called" for site in tracer.uncalled(optional)]
                self.traced["fresh"], self.traced_s["fresh"] = tracer, seconds
                # A fresh run's timing.json holds every stage; a resume rewrites
                # it with none, so stage timings are read here and never later.
                timing = json.loads((run_dir / "timing.json").read_text())
                self.traced_stage_s = timing["stage_seconds"]
            elif not problems:
                self.run_s.append(seconds)
            return problems

        return self._attempt(f"fresh {run_dir.name}", action)

    def resume(self, run_dir: Path, traced: bool) -> bool:
        def action():
            from tridrive.pipeline import run_digest

            manifest = (run_dir / "manifest.json").read_bytes()
            seconds, tracer = self._execute(run_dir, traced)
            problems = []
            if run_digest(run_dir) != self.digest:
                problems.append("resume changed run_digest")
            if (run_dir / "manifest.json").read_bytes() != manifest:
                problems.append("resume changed manifest.json")
            if tracer is not None:
                problems += tracer.nesting_problems()
                if tracer.counts["pipeline.candidates_requested"] or tracer.counts["llm.calls"]:
                    problems.append("resume re-ran a stage")
                self.traced["resume"], self.traced_s["resume"] = tracer, seconds
            elif not problems:
                self.resume_s.append(seconds)
            return problems

        return self._attempt(f"resume {run_dir.name}", action)

    def loop(self, seconds: float, trace: bool) -> None:
        """Cycles of one fresh execution and up to RESUMES resumes of its
        directory, so that the samples of both kinds spread over the whole
        window. After MIN_CYCLES whole cycles, an execution starts only if
        one of its kind, checks included, has so far fitted in what remains
        of the window on average."""
        clock = time.perf_counter
        start = clock()
        cost: dict[str, list[float]] = {"fresh": [], "resume": []}

        def attempt(kind: str, cycle: int, step) -> bool | None:
            if cycle >= MIN_CYCLES and (
                clock() - start + statistics.mean(cost[kind]) > seconds
            ):
                return None
            begun = clock()
            ok = step()
            cost[kind].append(clock() - begun)
            return ok

        cycle = 0
        while True:
            run_dir = self.runs / f"run_{cycle:03d}"
            traced = trace and cycle == 0
            if not attempt("fresh", cycle, lambda: self.fresh(run_dir, traced)):
                return
            for resume in range(RESUMES):
                first = traced and resume == 0
                if not attempt("resume", cycle, lambda: self.resume(run_dir, first)):
                    return
            cycle += 1
            shutil.rmtree(run_dir)


def setup(name: str, seed: int, n_patients: int, inputs: Path) -> dict:
    """Build the inputs in a fresh child process; median timings and sizes."""
    proc = subprocess.run(
        [sys.executable, "-B", str(HERE / "workloads.py"), name, str(seed),
         str(n_patients), str(inputs)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_record(name: str, seed: int, seconds: float, trace: bool, inputs: dict) -> dict:
    import numpy

    sha = None  # a checkout without git metadata
    if (workloads.ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((workloads.SRC / "tridrive").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": sha,
        "src_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "inputs": inputs,
    }


def end_to_end(m: Measurement, built: dict) -> dict:
    metrics = {"setup_s": (built["setup_s"], "s", len(built["setup_samples"]))}
    if m.run_s:
        metrics["run_s"] = (statistics.median(m.run_s), "s", len(m.run_s))
    if m.resume_s:
        metrics["resume_s"] = (statistics.median(m.resume_s), "s", len(m.resume_s))
    executions = len(m.run_s) + len(m.resume_s)
    metrics["peak_rss_mb"] = (m.maxrss_kb / 1024, "MB", executions)
    return metrics


def per_layer(m: Measurement, built: dict) -> dict:
    if "fresh" not in m.traced or "resume" not in m.traced or not m.run_s:
        return {}
    fresh, resume = m.traced["fresh"], m.traced["resume"]
    run_s, resume_s = m.traced_s["fresh"], m.traced_s["resume"]
    own, counts = fresh.self_seconds(), fresh.counts
    builds = len(built["setup_samples"])
    metrics = {
        "synth.generate_s": (built["generate_s"], "s", builds),
        "model.save_s": (built["save_s"], "s", builds),
        "ope.table_save_s": (built["table_save_s"], "s", builds),
    }
    for layer in LAYERS:
        metrics[f"{layer}_s"] = (own[layer], "s", 1)
    metrics["pipeline.self_s"] = (own[ROOT_SPAN], "s", 1)
    metrics["model.steps"] = (counts["model.steps"], "count", 1)
    metrics["model.load_rss_mb"] = (counts["model.load_rss_kb"] / 1024, "MB", 1)
    metrics["pipeline.hash_mb"] = (counts["pipeline.hash_bytes"] / 2**20, "MB", 1)
    metrics["pipeline.candidates_valid_ratio"] = (
        counts["pipeline.candidates_valid"] / counts["pipeline.candidates_requested"], "ratio", 1)
    metrics["llm.calls"] = (counts["llm.calls"], "count", 1)
    metrics["rewards.trace_calls"] = (counts["rewards.trace_calls"], "count", 1)
    metrics["rewards.steps_per_s"] = (counts["rewards.steps"] / own["rewards.trace"], "1/s", 1)
    metrics["fitness.specs_scored"] = (counts["fitness.specs_scored"], "count", 1)
    metrics["fitness.valid_ratio"] = (
        counts["fitness.valid_rows"] / counts["fitness.specs_scored"], "ratio", 1)
    metrics["ope.resamples"] = (counts["ope.resamples"], "count", 1)
    metrics["ope.skipped_ratio"] = (counts["ope.skipped"] / counts["ope.resamples"], "ratio", 1)
    resume_own = resume.self_seconds()
    for layer in RESUME_LAYERS:
        short = "pipeline.self" if layer == ROOT_SPAN else layer
        metrics[f"resume.{short}_s"] = (resume_own[layer], "s", 1)
    for stage, seconds in m.traced_stage_s.items():
        metrics[f"stage.{stage}_s"] = (seconds, "s", 1)
    untraced = statistics.median(m.run_s)
    metrics["bench.traced_run_s"] = (run_s, "s", 1)
    metrics["bench.traced_resume_s"] = (resume_s, "s", 1)
    metrics["bench.trace_overhead_s"] = (run_s - untraced, "s", len(m.run_s) + 1)
    metrics["bench.fitness_share_run"] = (m.traced_stage_s["fitness"] / run_s, "ratio", 1)
    metrics["bench.ope_share_run"] = (m.traced_stage_s["ope"] / run_s, "ratio", 1)
    metrics["bench.load_share_resume"] = (
        resume.inclusive_seconds("model.load") / resume_s, "ratio", 1)
    return metrics


def span_sums(m: Measurement) -> dict:
    """Top-level spans plus pipeline.self_s beside the traced wall time of
    each traced execution. They equal the root span by construction, so this
    shows where the time went and checks nothing."""
    sums = {}
    for phase, tracer in m.traced.items():
        sums[phase] = {
            "top_level_s": tracer.top_level_seconds(),
            "pipeline.self_s": tracer.self_seconds()[ROOT_SPAN],
            "traced_s": m.traced_s[phase],
        }
    return sums


def write_trace(m: Measurement, name: str, seed: int) -> Path:
    TRACE_ROOT.mkdir(exist_ok=True)
    path = TRACE_ROOT / f"{name}-n{m.n_patients}-seed{seed}.json"
    doc = {phase: tracer.to_json() for phase, tracer in m.traced.items()}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 n_patients: int | None = None) -> dict:
    """Set up, measure and check one workload; returns the result document
    with the run record, the metrics as (value, unit, samples) and the
    failures."""
    n_patients = n_patients or workloads.WORKLOADS[name].n_patients
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = work / "inputs"
        built = setup(name, seed, n_patients, inputs)
        m = Measurement(name, seed, n_patients, inputs, work / "runs")
        m.loop(seconds, trace)
        sums = {}
        if trace and m.traced:
            sums = span_sums(m)
            write_trace(m, name, seed)
        metrics = per_layer(m, built) if trace else end_to_end(m, built)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    sizes = {k: built[k] for k in ("patients", "steps", "dataset_mb", "table_rows")}
    record = run_record(name, seed, seconds, trace, sizes)
    record["samples"] = {key: n for key, (_, _, n) in metrics.items()}
    record["sample_values"] = {
        "setup_s": built["setup_samples"], "run_s": m.run_s, "resume_s": m.resume_s,
    }
    record["reference_checked"] = m.reference is not None
    if sums:
        record["span_sums"] = sums
    return {
        "record": record,
        "metrics": metrics,
        "attempted": m.attempted,
        "failed": m.failed,
        "problems": m.problems,
    }


def report(result: dict) -> str:
    """Readable summary lines, then the result line."""
    name = result["record"]["workload"]
    lines = [f"perfbench record {json.dumps(result['record'], sort_keys=True)}"]
    for key, (value, unit, n) in result["metrics"].items():
        lines.append(f"perfbench {name} {key} {value} {unit} (n={n})")
    error_rate = result["failed"] / result["attempted"]
    lines.append(
        f"perfbench {name} error_rate {error_rate} ratio "
        f"({result['failed']} failed of {result['attempted']} executions)"
    )
    lines.extend(f"perfbench {name} FAILED {p}" for p in result["problems"])
    final = {
        "correct": not result["failed"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit, _) in result["metrics"].items()
        },
    }
    lines.append(json.dumps(final))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads.import_tridrive()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(report(result), flush=True)
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
