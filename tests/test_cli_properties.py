"""The CLI's exit contract over drawn configs: parse_config plus run ends in
status 0, 1 or 2 for every input, 2 always comes with an ``nps2: error:``
line, and a run that ends in 2 leaves no report, trace or temp file. The
streamed run and sweep write the bytes of an eager reference, and the
CLI's JSON writer and its report entries write those of json.dumps."""

import contextlib
import io
import json
import os
import random
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from nps2.cli import CONFIG_KEYS, MODES, _entry, _json, parse_config, run
from nps2.field import FieldSpec
from nps2.schemes import Scheme, build_schedule
from nps2.simnet import (
    NO_FAILURES,
    FailurePattern,
    SessionResult,
    SweepReport,
    generate_source_data,
    run_session,
    sweep_failures,
    trace_lines,
)
from test_codec_properties import PRIMITIVE_POLYS

# no digits, so no drawn string can name an n above the bound
JUNK = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.booleans(), st.none(),
    st.text(alphabet="xyab,.- ", max_size=4), st.lists(st.integers(0, 9), max_size=3),
)
# (m, reduction polynomial, generator) of valid fields
FIELDS = [(1, 0x3, 1), (3, 0xB, 2), (4, 0x13, 2), (8, 0x11D, 2)]


def mostly(good, bad, odds: int):
    """``bad`` one time in ``odds``, else ``good``."""
    return st.integers(1, odds).flatmap(lambda k: bad if k == 1 else good)


def values(good):
    """A good value, or one time in twenty a junk one."""
    return mostly(good, JUNK, 20)


def ints(lo: int, hi: int):
    return st.integers(lo, hi) | st.integers(lo, hi).map(str)


def hexes(valid: int):
    forms = st.sampled_from([valid, f"{valid:x}", hex(valid)])
    return mostly(forms, st.sampled_from(["zz", -valid]) | st.integers(0, 1 << 17), 5)


OUTPUT_NAMES = ("out.json", "out.jsonl", "missing/out.json", "")
# keys no config file may hold: the report's echoes, a flag's spelling, a typo
UNKNOWN_KEYS = ("field", "failure", "field-m", "sesions")


@st.composite
def configs(draw):
    """A config dict and the names of the outputs it asks for under the
    example's directory; n is at most 16 and sessions at most 3."""
    m, poly, gen = draw(st.sampled_from(FIELDS))
    keys = {
        "scheme": values(st.sampled_from(["nps2-i", "nps2-ii"])),
        "n": values(ints(-1, 16)),
        "field_m": values(mostly(st.just(m), ints(0, 17), 5)),
        "field_poly": values(hexes(poly)),
        "field_gen": values(hexes(gen)),
        "sessions": values(ints(-1, 3)),
        "seed": values(ints(-5, 1 << 40)),
        "fail": values(
            st.lists(st.integers(0, 17), max_size=4)
            | st.lists(st.integers(1, 6), max_size=4).map(lambda ps: ",".join(map(str, ps)))
        ),
        "fail_random": values(ints(-1, 5)),
        "mode": values(st.sampled_from(MODES)),
    }
    cfg = draw(st.fixed_dictionaries({}, optional=keys))
    if {"fail", "fail_random"} <= cfg.keys() and draw(mostly(st.just(True), st.just(False), 5)):
        del cfg[draw(st.sampled_from(["fail", "fail_random"]))]
    if draw(mostly(st.just(False), st.just(True), 10)):
        cfg[draw(st.sampled_from(UNKNOWN_KEYS))] = draw(JUNK)
    outputs = {}
    for key in ("trace", "report"):
        kind = draw(st.sampled_from(["absent", "absent", "path", "path", "path", "other"]))
        if kind == "other":
            cfg[key] = draw(JUNK.filter(lambda v: not isinstance(v, str)))
        elif kind == "path":
            outputs[key] = draw(st.sampled_from(OUTPUT_NAMES))
    return cfg, outputs


def _files(root: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(d, f), root)
        for d, _, files in os.walk(root) for f in files
    }


@settings(max_examples=300, deadline=None)
@given(configs())
def test_exit_status_is_total(case):
    cfg, outputs = case
    with tempfile.TemporaryDirectory() as root:
        for key, name in outputs.items():
            cfg[key] = os.path.join(root, name)
        config_path = os.path.join(root, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                config = parse_config(["--config", config_path])
                code = run(config)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)
        if cfg.keys() - CONFIG_KEYS.keys():
            assert code == 2
        if str(cfg.get("mode")).startswith("dump-") and (
                cfg.get("trace") is not None or cfg.get("report") is not None):
            assert code == 2  # a dump writes neither file
        left = _files(root) - {"config.json"}
        if code == 2:
            assert "nps2: error:" in err.getvalue()
            assert not left
        elif config.mode in ("run", "sweep"):  # the dumps write no files
            assert left == set(outputs.values())
        else:
            assert not left


BAD_CONFIGS = [
    {"n": "abc"},
    {"field": {"m": "x"}},
    {"sessions": "x"},
    {"seed": "x"},
    {"n": 4.5},
    {"sessions": 2.5},
    {"seed": 1.9},
    {"fail_random": True},
    {"n": True},
    {"trace": 5},
    {"report": 7},
    {"field_poly": -0x11D},
    # int() would read these as 10, 8 and 0x11d
    {"n": "1_0"},
    {"n": "\u0668"},
    {"field_poly": "1_1d"},
    # an empty path would write no trace, and the report to stdout
    {"trace": ""},
    {"report": ""},
]


@pytest.mark.parametrize("cfg", BAD_CONFIGS, ids=json.dumps)
def test_malformed_config_value_exits_2(cfg, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        parse_config(["--config", str(path)])
    assert exc.value.code == 2
    assert "nps2: error:" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b'\xff\xfe{"n": 8}', b'{"n": 1%s}' % (b"0" * 5000)],
                         ids=["not-utf8", "long-int"])
def test_unparsable_config_file_exits_2(content, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        parse_config(["--config", str(path)])
    assert exc.value.code == 2
    assert "nps2: error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--n", "4.5"], ["--seed", "1.9"], ["--sessions", "x"],
                                  ["--n", "1_0"], ["--n", "\u0668"], ["--field-poly", "1_1d"],
                                  ["--fail", "1,\u0663"], ["--trace", ""], ["--report", ""]])
def test_malformed_flag_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse_config(argv)
    assert exc.value.code == 2
    assert "nps2: error:" in capsys.readouterr().err


def test_null_counts_as_absent(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": None, "field_m": None, "seed": None}))
    cfg = parse_config(["--config", str(path)])
    assert (cfg.n, cfg.field.m, cfg.seed) == (8, 8, 0)


@pytest.mark.parametrize("report", ["nodir/r.json", "."])
def test_failed_write_leaves_no_output(report, tmp_path, capsys, monkeypatch):
    # both fail when the report is opened, before any session runs
    monkeypatch.chdir(tmp_path)
    cfg = parse_config(["sweep", "--n", "4", "--trace", "t.jsonl", "--report", report])
    assert run(cfg) == 2
    out, err = capsys.readouterr()
    assert "written" not in out
    assert f"nps2: error: cannot write {report}" in err
    assert os.listdir(tmp_path) == []


def test_outputs_follow_symlinks_and_devices(tmp_path, capsys):
    # a symlinked report is written through the link; /dev/null stays a device
    real = tmp_path / "real.json"
    real.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    cfg = parse_config(["sweep", "--n", "4", "--trace", os.devnull, "--report", str(link)])
    assert run(cfg) == 0
    assert link.is_symlink() and json.loads(real.read_text())["all_complete"] is True
    assert not os.path.isfile(os.devnull)
    assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]


@pytest.mark.parametrize("outputs, flags", [
    pytest.param(["--trace", "same.json", "--report", "same.json"], "--trace and --report",
                 id="same.json"),
    pytest.param(["--trace", "link.json", "--report", "same.json"], "--trace and --report",
                 id="link.json"),
    pytest.param(["--config", "c.json", "--trace", "c.json"], "--trace and --config",
                 id="config-trace"),
    pytest.param(["--config", "c.json", "--report", "c.json"], "--report and --config",
                 id="config-report"),
    pytest.param(["--config", "c.json", "--trace", "c-link.json"], "--trace and --config",
                 id="config-link"),
    pytest.param(["--config", "self.json"], "--report and --config", id="config-key"),
])
def test_trace_and_report_naming_one_file_exit_2(outputs, flags, tmp_path, capsys, monkeypatch):
    # an output would replace the other output or the config file, so the run
    # is refused before it starts, and every file is left as it was
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link.json").symlink_to(tmp_path / "same.json")
    (tmp_path / "c.json").write_text('{"seed": 1}\n')
    (tmp_path / "c-link.json").symlink_to(tmp_path / "c.json")
    (tmp_path / "self.json").write_text('{"report": "self.json"}\n')
    before = {p.name: p.read_text() for p in tmp_path.iterdir() if p.exists()}
    with pytest.raises(SystemExit) as exc:
        parse_config(["run", "--n", "6", "--fail", "2", *outputs])
    assert exc.value.code == 2
    assert f"nps2: error: {flags} name the same file" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["c-link.json", "c.json", "link.json", "self.json"]
    assert {p.name: p.read_text() for p in tmp_path.iterdir() if p.exists()} == before


def test_trace_and_report_may_share_a_device(capsys):
    cfg = parse_config(["run", "--n", "6", "--fail", "2",
                        "--trace", os.devnull, "--report", os.devnull])
    assert run(cfg) == 0
    assert "report written" in capsys.readouterr().out
    assert not os.path.isfile(os.devnull)


@st.composite
def streamed(draw):
    """The argv of a small run or sweep over GF(2^m), m in 1..16, with 1-4
    sessions, and whether it asks for a trace and a report."""
    mode = draw(st.sampled_from(["run", "sweep"]))
    m = draw(st.integers(1, 16))
    ns = {scheme: [n for n in range(3, 9) if n - 2 < 1 << m and (
        scheme is Scheme.NPS2_I or n % 2 == 0 and n >= 4)] for scheme in Scheme}
    scheme = draw(st.sampled_from([s for s in Scheme if ns[s]]))
    n = draw(st.sampled_from(ns[scheme]))
    argv = [mode, "--scheme", scheme.value, "--n", str(n), "--field-m", str(m),
            "--field-poly", f"{PRIMITIVE_POLYS[m]:x}", "--field-gen", "1" if m == 1 else "2",
            "--sessions", str(draw(st.integers(1, 4))), "--seed", str(draw(st.integers(0, 2**32)))]
    if mode == "run":
        failure = draw(st.sampled_from(["none", "fail", "fail-random"]))
        if failure == "fail":
            paths = draw(st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True))
            argv += ["--fail", ",".join(map(str, paths))]
        elif failure == "fail-random":
            argv += ["--fail-random", str(draw(st.integers(0, min(n, 3))))]
    return argv, draw(st.booleans()), draw(st.booleans())


def _session_entry(result: SessionResult) -> dict:
    """A session's report entry as JSON data: what the CLI's entry text must
    read as, once json.dumps lays it out."""
    n = result.schedule.n
    return {
        "session": result.session_index,
        "failed_paths": sorted(result.failure.failed_paths),
        "outcome": result.outcome.value,
        "scenario": result.scenario.value,
        "round_scenarios": {
            str(r): s.value for r, s in sorted(result.round_scenarios.items())
        },
        "recovered_count": result.recovered_count,
        "normalized_capacity": f"{n - len(result.failure)}/{n}",
        "detail": result.detail,
    }


@st.composite
def sessions(draw):
    """A session of either scheme on 3..34 paths over GF(2^8), so NPS2-I runs
    up to 34 rounds and NPS2-II up to 17, with 0-3 failed paths."""
    scheme = draw(st.sampled_from(list(Scheme)))
    n = draw(st.integers(3, 34) if scheme is Scheme.NPS2_I
             else st.integers(2, 17).map(lambda k: 2 * k))
    failed = draw(st.lists(st.integers(1, n), max_size=3, unique=True))
    return scheme, n, failed, draw(st.integers(0, 40)), draw(st.integers(0, 2**32))


GF256 = FieldSpec()


@settings(max_examples=150, deadline=None)
@given(sessions())
@example((Scheme.NPS2_I, 34, [], 5, 1))  # 34 rounds, detail null
@example((Scheme.NPS2_I, 12, [3, 4, 5], 0, 1))  # every round lost, detail set
@example((Scheme.NPS2_II, 24, [1, 5, 9], 3, 1))  # 12 rounds, some lost
def test_entry_text_is_json_dumps_of_the_entry(case):
    scheme, n, failed, idx, seed = case
    result = run_session(scheme, n, GF256, FailurePattern(failed), session_index=idx,
                         data=generate_source_data(n, n, 1, seed, GF256)[0])
    expect = json.dumps(_session_entry(result), indent=2, sort_keys=True)
    assert _entry(result, result.scenario.value) == expect.replace("\n", "\n    ")
    assert (result.detail is None) == result.complete


def eager(config) -> tuple[list, dict]:
    """Every session's result of a run or sweep, from the whole data tensor
    drawn at once, and the report built from the list of results."""
    n, field, count = config.n, config.field, config.sessions
    rounds = build_schedule(config.scheme, n).rounds
    tensor = generate_source_data(n, rounds, count, config.seed, field)
    if config.mode == "sweep":
        results = [r for idx in range(count) for r in sweep_failures(
            config.scheme, n, field, session_index=idx, data=tensor[idx]).results]
    else:
        rng = random.Random(config.seed)
        results = []
        for idx in range(count):
            if config.fail is not None:
                pattern = FailurePattern(config.fail)
            elif config.fail_random is not None:
                pattern = FailurePattern(rng.sample(range(1, n + 1), config.fail_random))
            else:
                pattern = NO_FAILURES
            results.append(run_session(config.scheme, n, field, pattern, session_index=idx,
                                       data=tensor[idx]))
    batch = SweepReport(tuple(results))
    return results, {
        "generated_at": "",
        "config": config.echo(),
        "schedule_capacity": f"{n - 2}/{n}",
        "results": [_session_entry(r) for r in results],
        "scenario_histogram": batch.scenario_histogram,
        "recovered_count_total": batch.recovered_total,
        "complete_rate": batch.complete_rate,
        "all_complete": batch.complete_count == batch.session_count,
    }


def scrub(text: str) -> list[str]:
    return [line for line in text.splitlines(True) if '"generated_at"' not in line]


@settings(max_examples=60, deadline=None)
@given(streamed())
def test_streamed_outputs_match_an_eager_reference(case):
    argv, traced, reported = case
    with tempfile.TemporaryDirectory() as root:
        trace, report = os.path.join(root, "t.jsonl"), os.path.join(root, "r.json")
        argv = argv + ["--trace", trace] * traced + ["--report", report] * reported
        config = parse_config(argv)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(config)
        results, expect = eager(config)
        text = json.dumps(expect, indent=2, sort_keys=True) + "\n"
        assert code == (0 if expect["all_complete"] else 1)
        if reported:
            with open(report, encoding="utf-8") as fh:
                assert scrub(fh.read()) == scrub(text)
            total, completed = len(results), sum(r.complete for r in results)
            assert out.getvalue() == (
                f"{config.mode}: {completed}/{total} sessions complete, "
                f"schedule capacity {expect['schedule_capacity']}, report written to {report}\n")
        else:
            assert scrub(out.getvalue()) == scrub(text)
        if traced:
            with open(trace, encoding="utf-8") as fh:
                assert fh.read() == "".join(line + "\n" for r in results for line in trace_lines(r))
        asked = [name for name, wanted in (("r.json", reported), ("t.jsonl", traced)) if wanted]
        assert sorted(os.listdir(root)) == asked


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(JSON)
def test_json_writer_matches_json_dumps(obj):
    assert _json(obj) == json.dumps(obj, indent=2, sort_keys=True)
