"""Tests of the benchmark's own code: tracing, output checks, time cap, and
agreement with BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import nps2  # noqa: E402
import nps2.cli  # noqa: E402
import nps2.simnet  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, CliRun, Sweep  # noqa: E402

SMALL_SWEEP = Sweep("sweep-i-n8", "nps2-i", 8)
SMALL_CLI = CliRun("cli-run-small", sessions=20)


def sweep_i_calls(n: int) -> dict:
    """Closed-form call counts of an exhaustive NPS2-I sweep of session 0,
    whose protection pair is paths 1 and 2 for all n rounds."""
    patterns = 1 + n + n * (n - 1) // 2
    w = n - 2  # working paths
    working_pairs = w * (w - 1) // 2
    return {
        "simnet.run_session": patterns,
        "schemes.build_schedule": patterns + 1,  # one more inside sweep_failures
        "codec.encode_pair": patterns * n,
        # per round: two residuals for a lost working path or pair with both
        # protection rows up, one when a protection path is lost as well
        "codec.residualize": 2 * n * w + n * 2 * w + 2 * n * working_pairs,
        "codec.solve_one": n * w + n * 2 * w,
        "codec.solve_two": n * working_pairs,
    }


def _run_small(workload, trace, tmp, seed=7):
    """One in-process job: (measurements, output, tracer table or None)."""
    state = workload.setup(seed, str(tmp))
    tracer = {"span": tracing.Spans, "count": tracing.Counts}.get(trace)
    if tracer is None:
        measured, output = workload.run(state, seed, str(tmp), in_process=True)
        return measured, output, None
    tracer = tracer()
    with tracing.installed(tracer):
        measured, output = workload.run(state, seed, str(tmp), in_process=True)
    return measured, output, tracer.table()


def sweep_digest(report):
    return [
        (sorted(r.failure.failed_paths), r.outcome.value, r.recovered_count,
         sorted((k, v.value) for k, v in r.delivered.items()))
        for r in report.results
    ]


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in run.PER_LAYER]
    layer_map = json.loads((HERE / "layers.json").read_text())
    assert set(layer_map) == {m["name"] for m in spec["per_layer"]} | {
        name for name, _, _ in run.RECORD_ONLY}


def snapshot():
    from nps2.field import FieldSpec

    return [dict(vars(nps2.simnet)), dict(vars(nps2.cli)), dict(vars(FieldSpec))]


@pytest.mark.parametrize("tracer_cls", [tracing.Spans, tracing.Counts])
def test_installed_restores_every_wrapper(tracer_cls, tmp_path):
    before = snapshot()
    _run_small(SMALL_SWEEP, "span" if tracer_cls is tracing.Spans else "count", tmp_path)
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer_cls()):
            assert nps2.simnet.encode_pair is not before[0]["encode_pair"]
            raise RuntimeError("traced code failed")
    after = snapshot()
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[k] is v for k, v in old.items())


def test_traced_sweep_outputs_match_untraced(tmp_path):
    _, plain, _ = _run_small(SMALL_SWEEP, "none", tmp_path)
    for trace in ("span", "count"):
        _, traced, _ = _run_small(SMALL_SWEEP, trace, tmp_path)
        assert sweep_digest(traced) == sweep_digest(plain)
        field = SMALL_SWEEP.setup(7, str(tmp_path))
        assert SMALL_SWEEP.check(traced, field, 7, str(tmp_path)) == 0


def test_traced_cli_outputs_match_untraced(tmp_path):
    outputs = {}
    for trace in ("none", "span", "count"):
        _, code, _ = _run_small(SMALL_CLI, trace, tmp_path)
        assert SMALL_CLI.check(code, None, 7, str(tmp_path)) == 0
        trace_path, report_path = SMALL_CLI.outputs(str(tmp_path))
        report = json.loads(Path(report_path).read_text())
        report.pop("generated_at")
        outputs[trace] = (Path(trace_path).read_bytes(), report)
    assert outputs["span"] == outputs["none"] == outputs["count"]


def test_counts_repeat_and_match_closed_forms(tmp_path):
    first = _run_small(SMALL_SWEEP, "span", tmp_path)[2]
    second = _run_small(SMALL_SWEEP, "span", tmp_path)[2]
    calls = {name: row["calls"] for name, row in first.items()}
    assert calls == {name: row["calls"] for name, row in second.items()}
    assert {k: calls[k] for k in sweep_i_calls(8)} == sweep_i_calls(8)

    counts = [_run_small(SMALL_SWEEP, "count", tmp_path)[2] for _ in range(2)]
    assert counts[0] == counts[1]
    assert counts[0]["distinct"]["codec.encode_pair"] == 8  # one per round
    assert counts[0]["calls"]["codec.encode_pair"] == sweep_i_calls(8)["codec.encode_pair"]
    assert counts[0]["calls"]["simnet.packets"] > 0
    assert counts[0]["calls"]["field.spec_eq"] > counts[0]["calls"]["field.mul"] > 0


def test_sweep_i_n32_counts_match_closed_forms(tmp_path):
    assert sweep_i_calls(32) == {
        "simnet.run_session": 529,
        "schemes.build_schedule": 530,
        "codec.encode_pair": 16_928,
        "codec.residualize": 31_680,
        "codec.solve_one": 2_880,
        "codec.solve_two": 13_920,
    }
    result = child.run_job("sweep-i-n32", 1, "span", str(tmp_path))
    assert result["failed"] == 0
    assert {k: result["layers"][k]["calls"] for k in sweep_i_calls(32)} == sweep_i_calls(32)


def test_sweep_check_catches_wrong_and_missing_sessions(tmp_path):
    field = SMALL_SWEEP.setup(7, str(tmp_path))
    _, report = SMALL_SWEEP.run(field, 7, str(tmp_path), in_process=True)
    assert SMALL_SWEEP.check(report, field, 7, str(tmp_path)) == 0

    victim = report.results[-1]
    key = next(iter(victim.delivered))
    victim.delivered[key] = field.element(victim.delivered[key].value ^ 1)
    assert SMALL_SWEEP.check(report, field, 7, str(tmp_path)) == 1

    report.results = report.results[:-2]
    assert SMALL_SWEEP.check(report, field, 7, str(tmp_path)) == 2  # both missing
    assert SMALL_SWEEP.check(None, field, 7, str(tmp_path)) == SMALL_SWEEP.attempts_per_job


def test_cli_check_catches_a_wrong_payload(tmp_path):
    _, code, _ = _run_small(SMALL_CLI, "none", tmp_path)
    assert SMALL_CLI.check(code, None, 7, str(tmp_path)) == 0
    assert SMALL_CLI.check(1, None, 7, str(tmp_path)) == 1
    trace_path = Path(SMALL_CLI.outputs(str(tmp_path))[0])
    lines = trace_path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if '"kind":"working"' in line)
    rec = json.loads(lines[i])
    rec["payload_hex"] = f"{int(rec['payload_hex'], 16) ^ 1:04x}"
    lines[i] = json.dumps(rec)
    trace_path.write_text("\n".join(lines) + "\n")
    assert SMALL_CLI.check(code, None, 7, str(tmp_path)) == 1


def test_job_over_cap_is_failed_and_stopped(tmp_path):
    workload = WORKLOADS["sweep-i-n32"]
    t0 = time.monotonic()
    job = run.run_job(workload, 1, "none", str(tmp_path), timeout=0.5)
    assert time.monotonic() - t0 < 10
    assert job == {"over_cap": True, "failed": workload.attempts_per_job}


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sweep-ii-n32", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
