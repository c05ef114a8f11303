"""Acceptance gate: exact reproduction of the closed-form capacity claim,
exhaustive recovery guarantees, and the CLI contract.

Each criterion prints one pass/fail line (run with -s to see them all);
stated runtime budgets are enforced.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from nps2.codec import (
    Row,
    build_rows,
    encode_pair,
    residualize,
    solve_one,
    solve_two,
)
from nps2.cli import parse_config, run
from nps2.field import FieldSpec
from nps2.schemes import Scheme, build_schedule, protected_slots, schedule_capacity
from nps2.simnet import (
    FailurePattern,
    all_patterns,
    generate_source_data,
    run_session,
    sweep_failures,
)

GF256 = FieldSpec()
GF8 = FieldSpec(3, 0b1011, 0b010)
GF2 = FieldSpec(1, 0b11, 0b1)

SMALL_FIELDS = {
    1: GF2,
    2: FieldSpec(2, 0b111, 0b10),
    3: GF8,
    4: FieldSpec(4, 0b10011, 0b0010),
}
CERTIFICATE_FIELDS = {3: GF8, 4: SMALL_FIELDS[4], 8: GF256, 16: FieldSpec(16, 0x1100B, 0b10)}


@contextmanager
def criterion(num: int, description: str, budget: float | None = None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"criterion {num} took {elapsed:.2f}s, budget {budget}s"
            )
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {num} [{status}] {description} ({elapsed:.2f}s)")


def test_criterion_1_capacity_claim():
    with criterion(1, "normalized capacity is exactly (n-2)/n for both schemes", 1.0):
        for n in (4, 6, 8, 10, 12):
            for scheme in Scheme:
                sched = build_schedule(scheme, n)
                assert schedule_capacity(sched) == Fraction(n - 2, n)


def test_criterion_2_two_failure_recovery_guarantee():
    with criterion(
        2, "every 0/1/2-failure pattern recovers exactly, all n and seeds", 10.0
    ):
        for n in (4, 6, 8, 10):
            for scheme in Scheme:
                for seed in (1, 2, 3):
                    report = sweep_failures(scheme, n, GF256, seed=seed)
                    assert report.complete_rate == 1.0, (scheme, n, seed)
                    rounds = build_schedule(scheme, n).rounds
                    tensor = generate_source_data(n, rounds, 1, seed, GF256)[0]
                    for result in report.results:
                        for (src, d), value in result.delivered.items():
                            assert value == tensor[src - 1][d - 1]


def test_criterion_3_decode_matrix_invertibility():
    with criterion(3, "all C(255,2) decode minors are invertible in GF(2^8)", 5.0):
        rows = build_rows(255, GF256)
        values = [e.value for e in rows.row_weighted]
        assert len(set(values)) == 255
        for v1, v2 in itertools.combinations(values, 2):
            assert v1 ^ v2 != 0


def test_criterion_4_binary_single_failure_mode():
    with criterion(4, "m=1 sum-row parity recovers all single failures, n in {4,8}"):
        for scheme in Scheme:
            for n in (4, 8):
                for p in range(1, n + 1):
                    result = run_session(
                        scheme, n, GF2, FailurePattern({p}), seed=17, sum_only=True
                    )
                    assert result.complete, (scheme, n, p)


def test_criterion_5_field_correctness():
    with criterion(
        5, "field axioms exhaustive m<=4, 1e5 random triples m=8, inv round trip", 5.0
    ):
        for gf in SMALL_FIELDS.values():
            elems = list(gf.elements())
            for a in elems:
                for b in elems:
                    assert a + b == b + a
                    assert a * b == b * a
                    for c in elems:
                        assert (a + b) + c == a + (b + c)
                        assert (a * b) * c == a * (b * c)
                        assert a * (b + c) == a * b + a * c
        rng = random.Random(0xACCE97)
        for _ in range(100_000):
            a, b, c = (GF256.element(rng.randrange(256)) for _ in range(3))
            assert a * (b + c) == a * b + a * c
        for v in range(1, 256):
            e = GF256.element(v)
            assert e * e.inverse() == 1


def test_criterion_6_codec_oracle_equivalence():
    with criterion(
        6, "solve_one/solve_two match exhaustive substitution, width<=3 over GF(8)", 10.0
    ):
        for width in (1, 2, 3):
            rows = build_rows(width, GF8)
            erasures = [(t,) for t in range(width)]
            erasures += list(itertools.combinations(range(width), 2))
            for data in itertools.product(GF8.elements(), repeat=width):
                y_sum, y_weighted = encode_pair(list(data), rows)
                for erased in erasures:
                    known = [(r, d) for r, d in enumerate(data) if r not in erased]
                    rs = residualize(y_sum, known, Row.SUM, rows)
                    rw = residualize(y_weighted, known, Row.WEIGHTED, rows)
                    if len(erased) == 1:
                        solved = (solve_one(erased[0], rs, rw, rows),)
                    else:
                        solved = solve_two(erased, rs, rw, rows)
                    matches = []
                    for candidate in itertools.product(
                        GF8.elements(), repeat=len(erased)
                    ):
                        trial = list(data)
                        for rank, value in zip(erased, candidate):
                            trial[rank] = value
                        if encode_pair(trial, rows) == (y_sum, y_weighted):
                            matches.append(candidate)
                    assert matches == [solved]
                    assert solved == tuple(data[t] for t in erased)


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "identical config+seed gives identical trace and report"):
        reports, traces = [], []
        for tag in ("a", "b"):
            report_path = tmp_path / f"report-{tag}.json"
            trace_path = tmp_path / f"trace-{tag}.jsonl"
            cfg = parse_config(
                [
                    "run", "--scheme", "nps2-ii", "--n", "8", "--fail-random", "2",
                    "--sessions", "3", "--seed", "99",
                    "--report", str(report_path), "--trace", str(trace_path),
                ]
            )
            assert run(cfg) == 0
            reports.append(json.loads(report_path.read_text()))
            traces.append(trace_path.read_bytes())
        assert traces[0] == traces[1]
        for r in reports:
            r.pop("generated_at")
        assert reports[0] == reports[1]

        sweep_reports = []
        for tag in ("a", "b"):
            path = tmp_path / f"sweep-{tag}.json"
            cfg = parse_config(["sweep", "--n", "6", "--seed", "4", "--report", str(path)])
            assert run(cfg) == 0
            loaded = json.loads(path.read_text())
            loaded.pop("generated_at")
            sweep_reports.append(loaded)
        assert sweep_reports[0] == sweep_reports[1]


def test_criterion_8_negative_path(tmp_path):
    with criterion(8, "a 3-failure pattern is unrecoverable with nonzero exit"):
        report_path = tmp_path / "report.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "nps2.cli", "run", "--n", "6",
                "--fail", "1,2,5", "--report", str(report_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode != 0
        report = json.loads(report_path.read_text())
        assert report["all_complete"] is False
        assert all(r["outcome"] == "unrecoverable" for r in report["results"])


def test_criterion_9_linearity_certificate():
    # Under a fixed pattern the decode is GF(2)-linear in the data (the premise,
    # checked by test_simnet_properties.py::test_decode_is_linear_over_gf2), and
    # each round decodes alone: so one session per bit b < m and rank t < n-2,
    # bit b set on each round's rank-t working symbol and zero elsewhere, proves
    # exact recovery of every data tensor under that pattern
    with criterion(9, "every bit-basis tensor recovers exactly under every 0/1/2 "
                   "pattern, n in {4,6,8} x m in {3,4,8,16} and n=16 at m=8", 40.0):
        for n, m in [(n, m) for n in (4, 6, 8) for m in (3, 4, 8, 16)] + [(16, 8)]:
            field = CERTIFICATE_FIELDS[m]
            zero = field.element(0)
            for scheme in Scheme:
                schedule = build_schedule(scheme, n)
                slots = [protected_slots(schedule, r) for r in range(1, schedule.rounds + 1)]
                for t, b in itertools.product(range(n - 2), range(m)):
                    rows = [[zero] * schedule.rounds for _ in range(n)]
                    for p, d in (round_slots[t] for round_slots in slots):
                        rows[p - 1][d - 1] = field.element(1 << b)
                    data = tuple(map(tuple, rows))
                    for pattern in all_patterns(n):
                        result = run_session(scheme, n, field, pattern, data=data)
                        erased = {(p, d): data[p - 1][d - 1]
                                  for round_slots in slots for p, d in round_slots if p in pattern}
                        assert result.recovered == erased, (scheme, n, m, t, b, pattern)
