"""One pipeline execution in a fresh process, as one `tridrive pipeline` call.

    python3 perfbench/execute.py WORKLOAD SEED INPUT_DIR RUN_DIR TRACE

Imports come first and are not timed; then it times
PipelineRun(config, RUN_DIR).execute() over the inputs in INPUT_DIR and
prints one JSON line: the wall time, the process's ru_maxrss and, with
TRACE=1, the spans and counts of tracing.Tracer. Every sample the benchmark
takes is an execution in a new process, so no sample inherits warm caches
or heap from an earlier one.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import workloads  # noqa: E402
from tracing import ROOT_SPAN, Tracer  # noqa: E402


def main() -> None:
    name, seed, inputs, run_dir, trace = sys.argv[1:6]
    workloads.import_tridrive()
    from tridrive.pipeline import PipelineRun

    config = workloads.pipeline_config(name, int(seed), Path(inputs))
    clock = time.perf_counter
    if trace == "1":
        tracer = Tracer()
        with tracer.patched():
            start = clock()
            with tracer.span(ROOT_SPAN):
                PipelineRun(config, run_dir).execute()
            seconds = clock() - start
    else:
        tracer = None
        start = clock()
        PipelineRun(config, run_dir).execute()
        seconds = clock() - start
    doc = {"seconds": seconds, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        doc.update(tracer.to_json())
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
