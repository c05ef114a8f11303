"""A wire oracle: decode a CLI run from its trace file and report alone.

The trace is what the collector receives, every surviving packet with its
round, path, slot kind and payload. `check_run` reads only a run's trace
and report text. It takes the schedule from the echoed config by the
paper's rule, rebuilds each round's erasure system from the lines that
arrived, and solves it with `test_oracle`'s Gaussian elimination, so no
codec or engine code takes part. It regenerates the source data, by the
CLI's documented draw rule, only to judge what arrived and what was
solved. Any disagreement is an AssertionError.
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from nps2.cli import parse_config, run
from nps2.field import FieldSpec
from nps2.schemes import Scheme
from test_codec_properties import PRIMITIVE_POLYS
from test_oracle import dot, generator_rows, rounds, solve

SEVERITY = ["no-failure", "protection-only", "single-working", "double-working", "excess-loss"]
CARRIER_KINDS = ("protection-sum", "protection-weighted")


def schedule(scheme, n, session):
    """Session ``session``'s schedule by the paper's rule: NPS2-I's n rounds on
    the pair (2d mod n, 2d+1 mod n), 1-based, NPS2-II's pair (2L-1, 2L) in round L."""
    if scheme == "nps2-ii":
        pairs = [(2 * ell - 1, 2 * ell) for ell in range(1, n // 2 + 1)]
    else:
        pairs = [(2 * session % n + 1, (2 * session + 1) % n + 1)] * n
    return SimpleNamespace(n=n, pairs=pairs)


def patterns(config):
    """Each session's failed paths as the report must list them, ascending
    whatever order the config echoes, or None where a random draw picks them."""
    n, failure = config["n"], config["failure"]
    if "sweep" in failure:
        paths = range(1, n + 1)
        return [[], *([p] for p in paths), *([a, b] for a in paths for b in paths if a < b)]
    return [sorted(failure["paths"]) if "paths" in failure else None]


def round_tag(missing, alive):
    if missing > alive:
        return "excess-loss"
    if missing:
        return SEVERITY[1 + missing]
    return SEVERITY[0] if alive == 2 else SEVERITY[1]


def check_session(entry, lines, config, field, source, session):
    """Check one report entry against its trace lines, consumed from the
    iterator ``lines``; return (complete, recovered count, scenario)."""
    n, width = config["n"], (field.m + 3) // 4
    failed = entry["failed_paths"]
    live = [p for p in range(1, n + 1) if p not in failed]
    recovered, lost, tags = {}, [], {}
    for r, (pair, cells) in enumerate(rounds(schedule(config["scheme"], n, session)), 1):
        arrived = {}
        for p in live:
            line = next(lines)
            packet = json.loads(line)
            assert line == json.dumps(packet, sort_keys=True, separators=(",", ":"))
            assert (packet["session"], packet["round"], packet["path"]) == (session, r, p)
            assert packet["sender"] == p and len(packet["payload_hex"]) == width
            arrived[p] = packet["kind"], field.element(int(packet["payload_hex"], 16))
        x = [field.element(source[p - 1][d - 1]) for p, d in cells]  # to judge only
        rows = generator_rows(field, len(cells), False)
        for t, (p, _) in enumerate(cells):
            assert arrived.get(p, ("working", x[t])) == ("working", x[t])
        for row, p, kind in zip(rows, pair, CARRIER_KINDS):
            if p in arrived:
                assert arrived[p] == (kind, dot(field, row, x))
        # the erasure system, from what arrived alone
        erased = [t for t, (p, _) in enumerate(cells) if p not in arrived]
        known = [(t, arrived[p][1]) for t, (p, _) in enumerate(cells) if p in arrived]
        live_rows = [(row, arrived[p][1]) for row, p in zip(rows, pair) if p in arrived]
        tags[str(r)] = round_tag(len(erased), len(live_rows))
        if not erased:
            continue
        rhs = []
        for row, y in live_rows:
            for t, v in known:
                y = field.add(y, field.mul(row[t], v))
            rhs.append(y)
        u = solve(field, [[row[t] for t in erased] for row, _ in live_rows], rhs, len(erased))
        if u is None:
            lost.append(f"round {r}: failed paths {[cells[t][0] for t in erased]}")
        else:
            recovered.update(zip((cells[t] for t in erased), u))
    exact = all(v == field.element(source[p - 1][d - 1]) for (p, d), v in recovered.items())
    complete = exact and not lost
    scenario = max(tags.values(), key=SEVERITY.index)
    assert entry == {
        "detail": "; ".join(lost) or None,
        "failed_paths": failed,
        "normalized_capacity": f"{n - len(failed)}/{n}",
        "outcome": "complete" if complete else "unrecoverable",
        "recovered_count": len(recovered),
        "round_scenarios": tags,
        "scenario": scenario,
        "session": session,
    }
    return complete, len(recovered), scenario


def check_run(trace, report):
    """Decode a run's ``trace`` text against its ``report`` text."""
    report = json.loads(report)
    config = report["config"]
    n, failure = config["n"], config["failure"]
    field = FieldSpec(config["field"]["m"], int(config["field"]["reduction_poly"], 16),
                      int(config["field"]["generator"], 16))
    rounds_per_session = n if config["scheme"] == "nps2-i" else n // 2
    rng, q = random.Random(config["seed"]), field.q
    entries, lines = iter(report["results"]), iter(trace.splitlines())
    sessions = []
    for session in range(config["sessions"]):
        source = [[rng.randrange(q) for _ in range(rounds_per_session)] for _ in range(n)]
        for failed in patterns(config):
            entry = next(entries)
            if failed is None:
                failed = entry["failed_paths"]
                assert len(failed) == failure["random"] and failed == sorted(set(failed))
                assert all(1 <= p <= n for p in failed)
            assert entry["failed_paths"] == failed
            sessions.append(check_session(entry, lines, config, field, source, session))
    assert next(entries, None) is None and next(lines, None) is None
    complete = sum(c for c, _, _ in sessions)
    histogram = {}
    for _, _, scenario in sessions:
        histogram[scenario] = histogram.get(scenario, 0) + 1
    assert report["schedule_capacity"] == f"{n - 2}/{n}"
    assert report["scenario_histogram"] == histogram
    assert report["recovered_count_total"] == sum(k for _, k, _ in sessions)
    assert report["complete_rate"] == complete / len(sessions)
    assert report["all_complete"] is (complete == len(sessions))
    return report["all_complete"]


GF8, GF65536 = ["--field-m", "3", "--field-poly", "b"], ["--field-m", "16", "--field-poly", "1100b"]
ARGV = {
    "sweep-ii-gf8": ["sweep", "--n", "6", "--sessions", "2", "--seed", "4", *GF8],
    "sweep-i-gf256": ["sweep", "--scheme", "nps2-i", "--n", "5", "--sessions", "2"],
    "sweep-i-gf65536": ["sweep", "--scheme", "nps2-i", "--n", "6", *GF65536],
    "run-ii-gf256-none": ["run", "--n", "4", "--sessions", "2"],
    "run-i-gf8-one": ["run", "--scheme", "nps2-i", "--n", "6", "--sessions", "6", "--fail", "1",
                      *GF8],
    "run-ii-gf65536-two": ["run", "--n", "8", "--sessions", "5", "--fail-random", "2",
                           "--seed", "3", *GF65536],
    "run-i-gf256-three": ["run", "--scheme", "nps2-i", "--n", "7", "--sessions", "4",
                          "--fail", "2,4,6"],
    "run-ii-gf8-three": ["run", "--n", "6", "--sessions", "4", "--fail-random", "3", "--seed", "1",
                         *GF8],
}
EXITS = {"run-i-gf256-three": 1, "run-ii-gf8-three": 1}


def cli_run(argv, tmp_path):
    """A CLI run's exit status, trace text and report text."""
    trace, report = tmp_path / "t.jsonl", tmp_path / "r.json"
    code = run(parse_config(argv + ["--trace", str(trace), "--report", str(report)]))
    return code, trace.read_text(), report.read_text()


@pytest.mark.parametrize("name", ARGV)
def test_a_run_decodes_from_its_trace_alone(name, tmp_path, capsys):
    code, trace, report = cli_run(ARGV[name], tmp_path)
    assert code == EXITS.get(name, 0)
    assert check_run(trace, report) is (code == 0)


@st.composite
def argvs(draw):
    """CLI argv of a run or a sweep: either scheme, GF(2^m) for m in {3, 8, 16}
    with the table's polynomials, a small n valid for the scheme, for a run
    no failure flag, --fail with 0-3 paths in any order or --fail-random K,
    and 1-3 sessions and a seed."""
    mode, scheme = draw(st.sampled_from(["run", "sweep"])), draw(st.sampled_from(Scheme))
    m = draw(st.sampled_from([3, 8, 16]))
    n = draw(st.integers(2, 4)) * 2 if scheme is Scheme.NPS2_II else draw(st.integers(3, 8))
    argv = [mode, "--scheme", scheme.value, "--n", str(n), "--field-m", str(m),
            "--field-poly", f"{PRIMITIVE_POLYS[m]:x}", "--sessions", str(draw(st.integers(1, 3))),
            "--seed", str(draw(st.integers(0, 2**32)))]
    failure = draw(st.sampled_from(["none", "fail", "fail-random"])) if mode == "run" else "none"
    if failure == "fail":
        paths = draw(st.permutations(range(1, n + 1)))[:draw(st.integers(0, 3))]
        argv += ["--fail", ",".join(map(str, paths))]
    elif failure == "fail-random":
        argv += ["--fail-random", str(draw(st.integers(0, 3)))]
    return argv


@settings(max_examples=60, deadline=None)
@given(argvs())
def test_any_run_decodes_from_its_trace_alone(argv):
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        code, trace, report = cli_run(argv, Path(tmp))
    assert code in (0, 1)
    assert check_run(trace, report) is (code == 0)


def flip_a_digit(trace, report):
    lines = trace.splitlines(True)
    i = len(lines) // 2
    digit = lines[i].index('","round"') - 1  # the payload's last hex digit
    lines[i] = lines[i][:digit] + f"{int(lines[i][digit], 16) ^ 1:x}" + lines[i][digit + 1:]
    return "".join(lines), report


def drop_a_line(trace, report):
    lines = trace.splitlines(True)
    del lines[len(lines) // 2]
    return "".join(lines), report


def miscount(trace, report):
    loaded = json.loads(report)
    loaded["results"][-1]["recovered_count"] += 1
    return trace, json.dumps(loaded)


@pytest.mark.parametrize("name", ["run-ii-gf65536-two", "sweep-ii-gf8", "run-i-gf256-three"])
@pytest.mark.parametrize("corrupt", [flip_a_digit, drop_a_line, miscount])
def test_the_oracle_catches_a_corrupted_run(corrupt, name, tmp_path, capsys):
    _, trace, report = cli_run(ARGV[name], tmp_path)
    check_run(trace, report)
    with pytest.raises(AssertionError):
        check_run(*corrupt(trace, report))
