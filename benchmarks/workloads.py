"""The benchmark's workloads: set-up, one job, and an output check that does
not trust the program's own verdict.

A job process times its set-up from before it imports this module, so at
module level this imports only what ``import nps2`` loads anyway, and never
nps2 itself.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from dataclasses import dataclass

GF256 = (8, 0x11D, 0x2)
GF65536 = (16, 0x1100B, 0x2)


def _peak_rss_mb(children: bool = False) -> float:
    import resource

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


@dataclass(frozen=True)
class Sweep:
    """Exhaustive 0/1/2-failure sweep of one session through the library.

    Every pattern of a sweep shares one data tensor. A job holds every
    SessionResult, with all of its packets, until it is checked.
    """

    name: str
    scheme: str
    n: int
    field: tuple[int, int, int] = GF256

    @property
    def attempts_per_job(self) -> int:
        return 1 + self.n + self.n * (self.n - 1) // 2

    sessions_per_job = attempts_per_job

    def setup(self, seed: int, tmp: str):
        import nps2

        field = nps2.FieldSpec(*self.field)
        nps2.build_rows(self.n - 2, field)
        return field

    def run(self, field, seed: int, tmp: str, in_process: bool):
        """Time one sweep; return the measurements and the report (None if
        the sweep raised)."""
        import nps2.simnet
        from nps2 import Scheme

        t0 = time.perf_counter()
        try:
            report = nps2.simnet.sweep_failures(Scheme(self.scheme), self.n, field, seed=seed)
        except Exception as exc:  # a raising session is a failed one
            return {"job_s": time.perf_counter() - t0, "error": repr(exc)}, None
        return {"job_s": time.perf_counter() - t0, "peak_rss_mb": _peak_rss_mb()}, report

    def expected_keys(self) -> set[tuple[int, int]]:
        """(source, data_index) pairs session 0 emits, from the paper's layouts:
        NPS2-I protects on paths 1 and 2 for all n rounds; NPS2-II gives
        every path data units 1 .. n/2 - 1."""
        if self.scheme == "nps2-i":
            return {(p, d) for p in range(3, self.n + 1) for d in range(1, self.n + 1)}
        return {(p, d) for p in range(1, self.n + 1) for d in range(1, self.n // 2)}

    def check(self, report, field, seed: int, tmp: str) -> int:
        """Failed sessions: delivered symbols that differ from a regenerated
        source tensor, plus failure patterns missing from the sweep."""
        from nps2 import generate_source_data

        if report is None:
            return self.attempts_per_job
        rounds = self.n if self.scheme == "nps2-i" else self.n // 2
        source = generate_source_data(self.n, rounds, 1, seed, field)[0]
        keys = self.expected_keys()
        patterns = {frozenset(c) for k in (0, 1, 2)
                    for c in itertools.combinations(range(1, self.n + 1), k)}
        failed = 0
        for result in report.results:
            pattern = frozenset(result.failure.failed_paths)
            good = pattern in patterns and set(result.delivered) == keys and all(
                result.delivered[s, d].value == source[s - 1][d - 1].value for s, d in keys
            )
            patterns.discard(pattern)
            failed += not good
        return failed + len(patterns)


@dataclass(frozen=True)
class CliRun:
    """Closed loop of ``python -m nps2.cli run`` with random failures, a packet
    trace and a report; one invocation at a time."""

    name: str
    scheme: str = "nps2-ii"
    n: int = 8
    field: tuple[int, int, int] = GF65536
    sessions: int = 500
    fail_random: int = 2

    attempts_per_job = 1  # invocations

    @property
    def sessions_per_job(self) -> int:
        return self.sessions

    def argv(self, seed: int, tmp: str) -> list[str]:
        m, poly, gen = self.field
        trace_path, report_path = self.outputs(tmp)
        return [
            "run", "--scheme", self.scheme, "--n", str(self.n),
            "--field-m", str(m), "--field-poly", f"{poly:x}", "--field-gen", f"{gen:x}",
            "--sessions", str(self.sessions), "--fail-random", str(self.fail_random),
            "--seed", str(seed),
            "--trace", trace_path, "--report", report_path,
        ]

    def setup(self, seed: int, tmp: str):
        import nps2
        import nps2.cli

        config = nps2.cli.parse_config(self.argv(seed, tmp))
        nps2.build_rows(config.n - 2, config.field)

    def run(self, state, seed: int, tmp: str, in_process: bool):
        """Time one invocation, in this process or as a child; return the
        measurements and the exit status."""
        argv = self.argv(seed, tmp)
        for f in self.outputs(tmp):  # a failed run must not pass on an earlier run's files
            if os.path.exists(f):
                os.remove(f)
        t0 = time.perf_counter()
        if in_process:
            import nps2.cli

            try:
                nps2.cli.main(argv)
                code = 0
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback, as a child process would exit 1
                code = 1
            job_s = time.perf_counter() - t0
            peak = _peak_rss_mb()
        else:
            import subprocess

            code = subprocess.run(
                [sys.executable, "-m", "nps2.cli", *argv], capture_output=True
            ).returncode
            job_s = time.perf_counter() - t0
            peak = _peak_rss_mb(children=True)  # the CLI is the only child
        bytes_written = sum(os.path.getsize(f) for f in self.outputs(tmp) if os.path.exists(f))
        return {"job_s": job_s, "peak_rss_mb": peak, "bytes_written": bytes_written}, code

    @staticmethod
    def outputs(tmp: str) -> tuple[str, str]:
        return os.path.join(tmp, "trace.jsonl"), os.path.join(tmp, "report.json")

    def check(self, code, state, seed: int, tmp: str) -> int:
        """1 unless the exit status is 0, the report says all sessions
        completed with ``fail_random`` failed paths each, and the trace holds
        exactly the surviving packets, whose working payloads match a
        regenerated source tensor."""
        return int(code != 0 or not self._outputs_match(seed, tmp))

    def _outputs_match(self, seed: int, tmp: str) -> bool:
        from nps2 import FieldSpec, generate_source_data

        trace_path, report_path = self.outputs(tmp)
        try:
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
            with open(trace_path, encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh]
        except (OSError, ValueError):
            return False
        results = report["results"]
        if not (report["all_complete"] is True and len(results) == self.sessions
                and all(len(r["failed_paths"]) == self.fail_random for r in results)):
            return False
        rounds = self.n // 2
        if len(records) != self.sessions * rounds * (self.n - self.fail_random):
            return False
        source = generate_source_data(self.n, rounds, self.sessions, seed, FieldSpec(*self.field))
        for rec in records:
            if rec["kind"] != "working":
                continue
            path, rnd = rec["sender"], rec["round"]
            # NPS2-II: path p protects in round ceil(p/2) and sends unit r or r-1
            unit = rnd if rnd < (path + 1) // 2 else rnd - 1
            if int(rec["payload_hex"], 16) != source[rec["session"]][path - 1][unit - 1].value:
                return False
        return True


WORKLOADS = {
    w.name: w
    for w in (
        Sweep("sweep-i-n32", "nps2-i", 32),
        Sweep("sweep-ii-n32", "nps2-ii", 32),
        CliRun("cli-run-trace-gf16"),
    )
}
