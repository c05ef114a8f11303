"""One benchmark job, or one set-up probe, in a fresh process.

    python3 benchmarks/child.py WORKLOAD SEED TRACE TMPDIR [--setup-only]

Prints one JSON line: the set-up time and, unless ``--setup-only``, the
job's measurements, its failed attempts and, when traced, the tracer's
table. TRACE is ``none`` (the job as a user runs it), ``off`` (the traced
run's in-process job without wrappers, the reference for tracing overhead),
``span`` or ``count``. The caller puts the repository's ``src`` on
PYTHONPATH.
"""

import sys
import time

# Only sys and time are loaded before the clock starts, so set-up time
# includes every module ``import nps2`` pulls in.


def run_job(name: str, seed: int, trace: str, tmp: str, setup_only: bool = False) -> dict:
    t0 = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if trace in ("span", "count"):
        import tracing

        tracer = tracing.Spans() if trace == "span" else tracing.Counts()
        with tracing.installed(tracer):
            state = workload.setup(seed, tmp)
            measured, output = workload.run(state, seed, tmp, in_process=True)
        measured["layers"] = tracer.table()
    else:
        state = workload.setup(seed, tmp)
        measured = {"setup_s": time.perf_counter() - t0}
        if setup_only:
            return measured
        job, output = workload.run(state, seed, tmp, in_process=trace == "off")
        measured.update(job)
    # checked after the wrappers are gone, so the check is neither timed nor counted
    measured["failed"] = workload.check(output, state, seed, tmp)
    return measured


if __name__ == "__main__":
    name, seed, trace, tmp, *rest = sys.argv[1:]
    result = run_job(name, int(seed), trace, tmp, setup_only=rest == ["--setup-only"])
    import json

    print(json.dumps(result))
