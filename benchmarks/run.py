"""Benchmark for nps2: verified sessions per second, set-up time and peak
memory on each workload, or per-layer timings and counts with ``--trace 1``.

    python3 benchmarks/run.py                       # every workload, untraced
    python3 benchmarks/run.py --workload sweep-i-n32 --seed 1 --seconds 30 --trace 0

Every job and every set-up probe runs in a fresh child process, one at a
time (the reference host has two cores). Each job's output is checked
against an independent oracle; a job that runs past JOB_CAP_S is stopped,
recorded as over cap and counted as failed.

For each workload stdout ends with a human summary of every metric and of
error_rate, a ``record`` line (seed, host facts, job times, error_rate and,
when traced, the full span and count tables), and last the result object
{"correct", "attempted", "failed", "metrics"}. error_rate is that object's
failed / attempted; it reads 0 on a correct program, so it is not a metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 15
JOB_CAP_S = 90.0
RUN_CAP_S = 170.0  # a run must end within 180 s

END_TO_END = (
    ("sessions_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


class Layers:
    """Per-layer figures from the span passes and one counting pass; span
    times are medians over the passes."""

    def __init__(self, spans: list[dict], counts: dict, overhead: float, bytes_written: int):
        self.spans = spans
        self.counted = counts.get("calls", {})
        self.distinct_keys = counts.get("distinct", {})
        self.overhead = overhead
        self.bytes_written = bytes_written

    def _span(self, name: str, key: str) -> float:
        return _median([table.get(name, {}).get(key, 0) for table in self.spans])

    def count(self, name: str) -> int:
        return self.counted.get(name, 0)

    def calls(self, name: str) -> int:
        return int(self._span(name, "calls"))

    def total_s(self, name: str) -> float:
        return self._span(name, "total_s")

    def self_s(self, *names: str) -> float:
        return sum(self._span(n, "self_s") for n in names)

    def useful_ratio(self, name: str) -> float:
        """Distinct inputs per call."""
        calls = self.count(name)
        return self.distinct_keys.get(name, 0) / calls if calls else 0.0


PER_LAYER = (
    ("field.add.calls", "count", "lower", lambda t: t.count("field.add")),
    ("field.mul.calls", "count", "lower", lambda t: t.count("field.mul")),
    ("field.inv.calls", "count", "lower", lambda t: t.count("field.inv")),
    ("field.spec_eq.calls", "count", "lower", lambda t: t.count("field.spec_eq")),
    ("field.tables_s", "s", "lower", lambda t: t.total_s("field.tables")),
    ("codec.encode_pair.calls", "count", "lower", lambda t: t.calls("codec.encode_pair")),
    ("codec.encode_pair.self_s", "s", "lower", lambda t: t.self_s("codec.encode_pair")),
    ("codec.encode_pair.useful_ratio", "ratio", "higher",
     lambda t: t.useful_ratio("codec.encode_pair")),
    ("codec.residualize.calls", "count", "lower", lambda t: t.calls("codec.residualize")),
    ("codec.residualize.self_s", "s", "lower", lambda t: t.self_s("codec.residualize")),
    ("codec.solve_one.calls", "count", "lower", lambda t: t.calls("codec.solve_one")),
    ("codec.solve_two.calls", "count", "lower", lambda t: t.calls("codec.solve_two")),
    ("codec.solve.self_s", "s", "lower",
     lambda t: t.self_s("codec.solve_one", "codec.solve_two")),
    ("schemes.build_schedule.calls", "count", "lower",
     lambda t: t.calls("schemes.build_schedule")),
    ("schemes.build_schedule.useful_ratio", "ratio", "higher",
     lambda t: t.useful_ratio("schemes.build_schedule")),
    ("schemes.build_schedule.self_s", "s", "lower",
     lambda t: t.self_s("schemes.build_schedule")),
    ("schemes.protected_slots.calls", "count", "lower",
     lambda t: t.calls("schemes.protected_slots")),
    ("schemes.protected_slots.self_s", "s", "lower",
     lambda t: t.self_s("schemes.protected_slots")),
    ("simnet.transmit_round.self_s", "s", "lower",
     lambda t: t.self_s("simnet.transmit_round")),
    ("simnet.recover_round.self_s", "s", "lower", lambda t: t.self_s("simnet.recover_round")),
    ("simnet.run_session.calls", "count", "lower", lambda t: t.calls("simnet.run_session")),
    ("simnet.run_session.self_s", "s", "lower", lambda t: t.self_s("simnet.run_session")),
    ("simnet.packets", "count", "lower", lambda t: t.count("simnet.packets")),
    ("simnet.generate_source_data.s", "s", "lower",
     lambda t: t.total_s("simnet.generate_source_data")),
    ("cli.bytes_written", "B", "lower", lambda t: t.bytes_written),
    ("bench.trace_overhead_ratio", "ratio", "lower", lambda t: t.overhead),
)

# Times of layers that some workload never enters, so they read 0 there on
# every run; they go to the record line, not to the result object.
RECORD_ONLY = (
    ("simnet.sweep_failures.self_s", "s", lambda t: t.self_s("simnet.sweep_failures")),
    ("simnet.trace_lines.s", "s", lambda t: t.total_s("simnet.trace_lines")),
    ("cli.parse_config.s", "s", lambda t: t.total_s("cli.parse_config")),
    ("cli.run.self_s", "s", lambda t: t.self_s("cli.run")),
)


def host_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def run_child(args: list[str], timeout: float) -> dict | None:
    """Run child.py in its own process group; None when it ran past
    ``timeout`` (it and everything it started are then killed)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, env=env, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child {args} exited {proc.returncode}:\n{err}")
    return json.loads(out.splitlines()[-1])


def run_job(workload, seed: int, trace: str, tmp: str, timeout: float) -> dict:
    result = run_child([workload.name, str(seed), trace, tmp], min(JOB_CAP_S, timeout))
    if result is None:
        return {"over_cap": True, "failed": workload.attempts_per_job}
    return result


def measure(workload, seed: int, seconds: int, tmp: str, deadline: float) -> tuple[dict, list]:
    """End-to-end metrics of one untraced run, plus the jobs it made.

    Set-up probes are spread over the run in proportion to elapsed time, so
    that their median does not rest on one moment of the host's load.
    """
    setup_args = [workload.name, str(seed), "none", tmp, "--setup-only"]
    setups, jobs = [], []
    start = time.monotonic()

    def probe_until(count: float) -> None:
        while len(setups) < count and (probe := run_child(setup_args, deadline - time.monotonic())):
            setups.append(probe["setup_s"])

    while not jobs or (time.monotonic() - start < seconds and time.monotonic() < deadline):
        probe_until(1 + (SETUP_PROBES - 1) * (time.monotonic() - start) / seconds)
        jobs.append(run_job(workload, seed, "none", tmp, deadline - time.monotonic()))
    probe_until(SETUP_PROBES)
    done = [j for j in jobs if "peak_rss_mb" in j]
    return {
        "sessions_per_s": _median([workload.sessions_per_job / j["job_s"] for j in done]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([j["peak_rss_mb"] for j in done]),
    }, jobs


def measure_traced(workload, seed: int, seconds: int, tmp: str,
                   deadline: float) -> tuple[dict, dict, list]:
    """Per-layer metrics, the record-only extras, and the jobs made.

    Pairs of an in-process untraced pass and a span pass run while one more
    pair is predicted to end within ``seconds``; then one counting pass.
    """
    jobs, offs, spans = [], [], []
    start = time.monotonic()
    while not offs or (elapsed := time.monotonic() - start) + elapsed / len(offs) < seconds:
        off, span = (run_job(workload, seed, trace, tmp, deadline - time.monotonic())
                     for trace in ("off", "span"))
        jobs += [off, span]
        if "job_s" not in off or "layers" not in span:
            break
        offs.append(off["job_s"])
        spans.append(span)
    count = run_job(workload, seed, "count", tmp, deadline - time.monotonic())
    jobs.append(count)
    layers = Layers(
        [span["layers"] for span in spans],
        count.get("layers", {}),
        overhead=_median([span["job_s"] for span in spans]) / _median(offs) if spans else 0.0,
        bytes_written=spans[0].get("bytes_written", 0) if spans else 0,
    )
    extra = {name: fn(layers) for name, _, fn in RECORD_ONLY}
    extra.update(spans=spans[0]["layers"] if spans else {}, counts=count.get("layers", {}))
    return {name: fn(layers) for name, _, _, fn in PER_LAYER}, extra, jobs


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def report(workload, seed: int, seconds: int, traced: bool) -> dict:
    """Measure one workload and print its summary, record and result lines."""
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=ROOT / ".bench_tmp")
    deadline = time.monotonic() + RUN_CAP_S
    try:
        # warm-up: writes the bytecode caches, so no timed process compiles
        run_child([workload.name, str(seed), "none", tmp, "--setup-only"], RUN_CAP_S)
        if traced:
            metrics, record_only, jobs = measure_traced(workload, seed, seconds, tmp, deadline)
        else:
            metrics, jobs = measure(workload, seed, seconds, tmp, deadline)
            record_only = {}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted = len(jobs) * workload.attempts_per_job
    failed = sum(j["failed"] for j in jobs)
    over_cap = sum(1 for j in jobs if j.get("over_cap"))
    units = ({n: u for n, u, _, _ in PER_LAYER} if traced
             else {n: u for n, u, _ in END_TO_END})
    kind = "invocations" if workload.attempts_per_job == 1 else "sessions"

    print(f"{workload.name} seed={seed} trace={int(traced)}: {len(jobs)} jobs, "
          f"{over_cap} over cap, {attempted} {kind} attempted")
    for name, value in metrics.items():
        shown = f"{value:<14}" if isinstance(value, int) else f"{value:<14.6g}"
        print(f"  {name:36} {shown} {units[name]}")
    print(f"  {'error_rate':36} {failed / attempted:<14.6g} {failed}/{attempted} {kind} failed")
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "host": host_facts(), "jobs": len(jobs), "over_cap": over_cap,
        "job_s": [j.get("job_s") for j in jobs],
        "error_rate": failed / attempted, "metrics": metrics, **record_only,
    }
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nps2" / "__init__.py").is_file():
        print(f"benchmark: no nps2 sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            report(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
