import errno
import functools
import gc
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from datetime import datetime, timezone

import pytest

import nps2.cli
import nps2.simnet
from nps2.cli import CONFIG_KEYS, RunConfig, _build_parser, _staged, main, parse_config, run
from nps2.schemes import Scheme, build_schedule
from nps2.simnet import Outcome, run_session


def _report(config):
    code = run(config)
    return code


def test_defaults():
    cfg = parse_config([])
    assert cfg.mode == "sweep"
    assert cfg.scheme is Scheme.NPS2_II
    assert cfg.n == 8
    assert cfg.field.m == 8
    assert cfg.field.reduction_poly == 0x11D
    assert cfg.field.generator == 0x02
    assert cfg.sessions == 1
    assert cfg.seed == 0


def test_odd_n_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_config(["--scheme", "nps2-ii", "--n", "7"])
    assert exc.value.code == 2
    assert "even" in capsys.readouterr().err


def test_field_capacity_rejected(capsys):
    with pytest.raises(SystemExit):
        parse_config(["--scheme", "nps2-i", "--n", "300", "--field-m", "8"])
    assert "255" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--scheme", "nps2-ii", "--n", "1000000"], "width 999998 exceeds the 255 distinct"),
    (["--scheme", "nps2-i", "--n", "1000001", "--field-m", "16", "--field-poly", "1100b"],
     "width 999999 exceeds the 65535 distinct"),
])
def test_a_path_count_beyond_the_field_fails_before_any_schedule(argv, message, capsys,
                                                                 monkeypatch):
    # the O(1) capacity check caps n at 2^m + 1 first, so an n the field cannot serve
    # costs no schedule, however large
    def refuse(scheme, n, session_index=0):
        raise AssertionError(f"built a schedule for n={n} before the capacity check")
    monkeypatch.setattr(nps2.cli, "build_schedule", refuse)
    with pytest.raises(SystemExit) as exc:
        parse_config(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"nps2: error: {message}")


def test_checking_n_builds_no_working_paths():
    # parse_config checks n with build_schedule; NPS2-II's working tuples are O(n^2),
    # about 17 GB at n = 65536, so they are built only when a run reads them
    argv = ["dump-rows", "--n", "1002", "--field-m", "16", "--field-poly", "1100b"]
    assert parse_config(argv).n == 1002
    assert "working" not in vars(build_schedule(Scheme.NPS2_II, 1002))


def test_malformed_hex_rejected(capsys):
    with pytest.raises(SystemExit):
        parse_config(["--field-poly", "0xzz"])
    assert "malformed hex" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["dump-rows", "--field-gen", "-1"], "generator -0x1 is outside GF(2^8)"),
    (["dump-rows", "--field-gen", "100"], "generator 0x100 is outside GF(2^8)"),
    (["--field-poly=-11d"], "reduction polynomial -0x11d does not have degree 8"),
])
def test_a_negative_field_value_prints_with_its_sign(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        parse_config(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"nps2: error: {message}\n")


def test_fail_flag_validation(capsys):
    cfg = parse_config(["--fail", "1,3"])
    assert cfg.mode == "run"
    assert cfg.fail == (1, 3)
    with pytest.raises(SystemExit):
        parse_config(["--fail", "1,99"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        parse_config(["--fail", "2,2"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        parse_config(["--fail", "1", "--fail-random", "2"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        parse_config(["--fail-random", "9", "--n", "4"])


def test_env_seed_fallback(monkeypatch):
    monkeypatch.setenv("NPS2_SEED", "12345")
    assert parse_config([]).seed == 12345
    assert parse_config(["--seed", "6"]).seed == 6
    monkeypatch.setenv("NPS2_SEED", "bogus")
    with pytest.raises(SystemExit):
        parse_config([])


def test_config_file_precedence(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scheme": "nps2-i", "n": 6, "seed": 9}))
    cfg = parse_config(["--config", str(path)])
    assert cfg.scheme is Scheme.NPS2_I
    assert cfg.n == 6
    assert cfg.seed == 9
    cfg = parse_config(["--config", str(path), "--n", "4"])
    assert cfg.n == 4  # flag wins


def test_config_file_field_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 4, "field_m": 3, "field_poly": "b", "field_gen": "3"}))
    cfg = parse_config(["--config", str(path)])
    assert (cfg.field.m, cfg.field.reduction_poly, cfg.field.generator) == (3, 0xB, 3)
    cfg = parse_config(["--config", str(path), "--field-m", "4", "--field-poly",
                        "13", "--field-gen", "2"])
    assert (cfg.field.m, cfg.field.reduction_poly, cfg.field.generator) == (4, 0x13, 2)


def test_each_setting_has_one_flag_one_key_and_one_field():
    # a key's flag is --key-with-dashes, but mode's is the command; a parsed
    # config's attributes are the keys, with field_m, field_poly and field_gen in field
    flags = {s for action in _build_parser()._actions for s in action.option_strings}
    keyed = {"--" + key.replace("_", "-") for key in CONFIG_KEYS.keys() - {"mode"}}
    assert flags == {"-h", "--help", "--config", "--json"} | keyed
    config = parse_config([])
    assert type(config) is RunConfig
    names = set(vars(config))
    assert names == (CONFIG_KEYS.keys() - {"field_m", "field_poly", "field_gen"}) | {
        "field", "as_json"}


@pytest.mark.parametrize("cfg", [
    {"mode": "run", "scheme": "nps2-i", "n": 6, "field_m": 4, "field_poly": "13",
     "field_gen": "3", "sessions": 3, "fail": [2, 5], "fail_random": None, "seed": 7,
     "trace": "t.jsonl", "report": "r.json"},
    {"mode": "run", "scheme": "nps2-ii", "n": 8, "field_m": 16, "field_poly": "1100b",
     "field_gen": "2", "sessions": 50, "fail": None, "fail_random": 2, "seed": 3,
     "trace": "t.jsonl", "report": "r.json"},
], ids=["fail", "fail-random"])
def test_config_file_with_every_key_equals_its_flags(cfg, tmp_path):
    assert cfg.keys() == CONFIG_KEYS.keys()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = [cfg["mode"]]
    for key, value in cfg.items():
        if key != "mode" and value is not None:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            argv += ["--" + key.replace("_", "-"), text]
    from_file = parse_config(["--config", str(path)])
    assert from_file == parse_config(argv) != parse_config([])
    assert (from_file.trace, from_file.report) == ("t.jsonl", "r.json")


@pytest.mark.parametrize("cfg, key", [({"field": {"m": 3}}, "field"),
                                      ({"failure": {"paths": [2]}}, "failure")],
                         ids=["field", "failure"])
def test_config_file_unknown_key_exits_2(cfg, key, tmp_path, capsys):
    # the report's nested "field" and "failure" echoes are not config keys
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        parse_config(["--config", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "nps2: error:" in err and repr(key) in err


def test_sweep_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    cfg = parse_config(["sweep", "--n", "8", "--report", str(report_path)])
    assert run(cfg) == 0
    report = json.loads(report_path.read_text())
    assert report["schedule_capacity"] == "6/8"
    assert report["complete_rate"] == 1.0
    assert report["all_complete"] is True
    assert len(report["results"]) == 1 + 8 + 28
    assert report["config"]["scheme"] == "nps2-ii"
    assert sum(report["scenario_histogram"].values()) == 37


def test_sweep_report_to_stdout(capsys):
    cfg = parse_config(["sweep", "--n", "4"])
    assert run(cfg) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_complete"] is True


def test_sweep_draws_each_session_tensor_once(tmp_path, monkeypatch):
    import nps2.cli
    import nps2.simnet

    original = nps2.simnet.generate_source_data
    drawn = []  # sessions per draw

    def counting(n, rounds, sessions, seed, field):
        drawn.append(sessions)
        return original(n, rounds, sessions, seed, field)

    monkeypatch.setattr(nps2.cli, "generate_source_data", counting)
    monkeypatch.setattr(nps2.simnet, "generate_source_data", counting)
    trace = tmp_path / "trace.jsonl"
    cfg = parse_config(["sweep", "--scheme", "nps2-i", "--n", "5", "--sessions", "5",
                        "--seed", "8", "--trace", str(trace), "--report", str(tmp_path / "r")])
    assert run(cfg) == 0
    assert sum(drawn) == 5  # S session tensors, not S(S+1)/2
    # each session sees the data a sweep drawing its own idx + 1 sessions sees
    own = [line + "\n" for idx in range(5)
           for r in nps2.simnet.sweep_failures(Scheme.NPS2_I, 5, cfg.field, seed=8,
                                               session_index=idx).results
           for line in nps2.simnet.trace_lines(r)]
    assert trace.read_text().splitlines(keepends=True) == own


def test_run_three_failures_nonzero_exit(tmp_path):
    report_path = tmp_path / "report.json"
    cfg = parse_config(
        ["run", "--n", "4", "--fail", "1,2,3", "--report", str(report_path)]
    )
    assert run(cfg) == 1
    report = json.loads(report_path.read_text())
    assert report["all_complete"] is False
    assert report["results"][0]["outcome"] == "unrecoverable"
    assert report["results"][0]["detail"]


def test_run_random_failures_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        cfg = parse_config(
            ["run", "--fail-random", "2", "--sessions", "3", "--seed", "5",
             "--report", str(out)]
        )
        assert run(cfg) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("generated_at"), b.pop("generated_at")
    assert a == b


def test_generated_at_is_utc_now_in_seconds(tmp_path):
    # every byte comparison scrubs this line, so its shape and value are checked here
    out = tmp_path / "r.json"
    assert run(parse_config(["run", "--n", "6", "--fail", "2", "--report", str(out)])) == 0
    stamp = json.loads(out.read_text())["generated_at"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp), stamp
    now = datetime.now(timezone.utc)
    assert abs((datetime.fromisoformat(stamp) - now).total_seconds()) < 5


def test_trace_ordering_and_stability(tmp_path):
    t1, t2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
    for t in (t1, t2):
        cfg = parse_config(
            ["run", "--n", "6", "--fail", "2", "--sessions", "2", "--seed", "3",
             "--trace", str(t)]
        )
        run(cfg)
    assert t1.read_bytes() == t2.read_bytes()
    records = [json.loads(line) for line in t1.read_text().splitlines()]
    keys = [(r["session"], r["round"], r["path"]) for r in records]
    assert keys == sorted(keys)
    assert all(r["path"] != 2 for r in records)
    assert set(records[0]) == {"session", "round", "sender", "path", "kind", "payload_hex"}


def test_dump_schedule_text(capsys):
    cfg = parse_config(["dump-schedule", "--scheme", "nps2-ii", "--n", "4"])
    assert run(cfg) == 0
    lines = capsys.readouterr().out.splitlines()
    body = [line for line in lines if "->" in line]
    round1 = [line.split("|")[1].split()[0] for line in body]
    assert round1 == ["y_1^1", "y_2^1", "x_3^1", "x_4^1"]


def test_dump_schedule_json(capsys):
    cfg = parse_config(["dump-schedule", "--scheme", "nps2-i", "--n", "4", "--json"])
    assert run(cfg) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["rounds"] == 4
    assert dump["matrix"][0] == ["y_1^1", "y_1^2", "y_1^3", "y_1^4"]
    assert dump["matrix"][2] == ["x_3^1", "x_3^2", "x_3^3", "x_3^4"]


def test_dump_rows(capsys):
    cfg = parse_config(
        ["dump-rows", "--n", "6", "--field-m", "3", "--field-poly", "b",
         "--field-gen", "2"]
    )
    assert run(cfg) == 0
    out = capsys.readouterr().out
    assert "row_sum:      1 1 1 1" in out
    assert "row_weighted: 1 2 4 3" in out


def test_dump_rows_json(capsys):
    cfg = parse_config(["dump-rows", "--n", "10", "--json"])
    assert run(cfg) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["width"] == 8
    assert dump["row_weighted"] == ["01", "02", "04", "08", "10", "20", "40", "80"]


def test_mode_flags_without_command(capsys):
    # the command is the only way to pick an action, bar --fail implying run
    for flag in ("--sweep", "--dump-schedule", "--dump-rows"):
        with pytest.raises(SystemExit) as exc:
            parse_config([flag])
        assert exc.value.code == 2
    assert parse_config(["--fail-random", "1"]).mode == "run"


@pytest.mark.parametrize("argv", [["sweep", "--n", "4", "--fail", "2"],
                                  ["dump-rows", "--fail-random", "1"]])
def test_failures_outside_run_exit_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        parse_config(argv + ["--trace", "t.jsonl", "--report", "r.json"])
    assert exc.value.code == 2
    assert "nps2: error:" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_config_mode_with_failures_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "sweep", "fail": [2]}))
    with pytest.raises(SystemExit) as exc:
        parse_config(["--config", str(path)])
    assert exc.value.code == 2
    assert "nps2: error:" in capsys.readouterr().err
    assert parse_config(["run", "--config", str(path)]).mode == "run"


def test_file_mode_is_read_only_without_a_command(tmp_path, capsys):
    # as a flag hides its key's file value, the command hides the file's mode
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "bogus"}))
    for argv, code in ((["dump-rows"], 0), ([], 2)):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(path)])
        assert exc.value.code == code
    assert "nps2: error: mode: unknown mode 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, cfg", [
    (["dump-rows", "--n", "6", "--report", "r.json", "--trace", "t.jsonl"], None),
    (["dump-schedule", "--trace", "t.jsonl"], None),
    (["dump-rows"], {"report": "r.json"}),
    ([], {"mode": "dump-schedule", "trace": "t.jsonl"}),
    (["run", "--n", "4", "--json"], None),
    (["--json"], {"mode": "sweep"}),
], ids=["dump-rows-flags", "dump-schedule-flag", "dump-rows-file", "file-dump-schedule",
        "run-json", "file-sweep-json"])
def test_options_the_action_never_reads_exit_2(argv, cfg, tmp_path, capsys, monkeypatch):
    # a dump writes no trace or report, and only a dump reads --json
    monkeypatch.chdir(tmp_path)
    if cfg is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv = argv + ["--config", "cfg.json"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "nps2: error:" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ([] if cfg is None else ["cfg.json"])


def test_unwritable_report_names_path(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "report.json"
    cfg = parse_config(["sweep", "--n", "4", "--report", str(missing)])
    assert run(cfg) == 2
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_staged_cleans_up_on_any_exception(error, tmp_path):
    paths = str(tmp_path / "t.jsonl"), None, str(tmp_path / "r.json")
    with pytest.raises(error, match="stopped mid-write"):
        with _staged(*paths) as ((trace, absent, report), _):
            assert absent is None
            trace("done\n")
            report("partial")
            raise error("stopped mid-write")
    assert os.listdir(tmp_path) == []


def test_unopenable_report_fails_before_any_session(tmp_path, capsys, monkeypatch):
    import nps2.cli

    calls = []
    original = nps2.cli.run_session

    def counting(*args, **kwargs):
        calls.append(kwargs["session_index"])
        return original(*args, **kwargs)

    monkeypatch.setattr(nps2.cli, "run_session", counting)
    monkeypatch.chdir(tmp_path)
    cfg = parse_config(["run", "--n", "8", "--sessions", "50", "--fail-random", "2",
                        "--trace", "t.jsonl", "--report", "nodir/r.json"])
    assert run(cfg) == 2
    assert calls == []
    assert "nps2: error: cannot write nodir/r.json" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("outputs", [["--trace", "t.jsonl"],
                                     ["--trace", "t.jsonl", "--report", "r.json"]],
                         ids=["report", "summary"])
def test_failed_stdout_leaves_no_output(outputs, tmp_path, capsys, monkeypatch):
    # the report or the summary line goes to stdout once the outputs are placed,
    # still inside the staged block, so its failure removes them; a stdout
    # report's spool comes from tempfile, routed to tmp_path too, and a file
    # report's is made beside it
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    with open("/dev/full", "w") as full:
        monkeypatch.setattr("sys.stdout", full)
        cfg = parse_config(["run", "--n", "6", "--fail", "2"] + outputs)
        assert run(cfg) == 2
    assert "nps2: error: cannot write standard output: No space left on device" in \
        capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("outputs", [
    ["--trace", "/dev/full"],
    ["--report", "/dev/full"],
    ["--trace", "/dev/full", "--report", "r.json"],
    ["--trace", "t.jsonl", "--report", "/dev/full"],
], ids=["trace", "report", "trace-with-report", "report-with-trace"])
def test_full_device_is_named(outputs, tmp_path, capsys, monkeypatch):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    monkeypatch.chdir(tmp_path)
    assert run(parse_config(["run", "--n", "6", "--fail", "2"] + outputs)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "nps2: error: cannot write /dev/full: No space left on device" in err
    assert os.listdir(tmp_path) == []


def test_streamed_report_keeps_its_format(tmp_path, capsys):
    argv = ["run", "--n", "6", "--fail-random", "2", "--sessions", "3", "--seed", "5"]
    path = tmp_path / "r.json"
    assert run(parse_config(argv + ["--report", str(path)])) == 0
    raw = path.read_bytes()
    assert raw == (json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n").encode()
    capsys.readouterr()
    assert run(parse_config(argv)) == 0

    def scrub(text):
        return [line for line in text.splitlines(True) if '"generated_at"' not in line]

    assert scrub(capsys.readouterr().out) == scrub(raw.decode())


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("outputs", [["--trace", "t.jsonl", "--report", "r.json"],
                                     ["--report", "r.json"], ["--trace", "t.jsonl"], []],
                         ids=["trace-report", "report", "trace", "stdout"])
def test_session_failing_mid_stream_leaves_nothing(error, outputs, tmp_path, capsys,
                                                   monkeypatch):
    # sessions 0-2 are written before session 3 raises; a file report's spool
    # is made beside it and tempfile's is routed to tmp_path too, so an empty
    # directory means no trace, report, spool or temp file
    original = nps2.cli.run_session

    def failing(*args, session_index, **kwargs):
        if session_index == 3:
            raise error("session 3 failed")
        return original(*args, session_index=session_index, **kwargs)

    monkeypatch.setattr(nps2.cli, "run_session", failing)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    cfg = parse_config(["run", "--n", "6", "--sessions", "6", "--fail-random", "1"] + outputs)
    with pytest.raises(error, match="session 3 failed"):
        run(cfg)
    assert os.listdir(tmp_path) == []
    assert capsys.readouterr().out == ""


def test_file_report_spools_beside_it_without_a_name(tmp_path, monkeypatch):
    # tempfile points nowhere, so a run that used it would fail; while the
    # sessions run, the report's directory holds only the two staged outputs
    seen = []
    original = nps2.cli.trace_lines

    def listing(result):
        seen.append(sorted(name.split(".")[0] for name in os.listdir(tmp_path)))
        return original(result)

    monkeypatch.setattr(nps2.cli, "trace_lines", listing)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    monkeypatch.chdir(tmp_path)
    cfg = parse_config(["run", "--n", "6", "--fail-random", "2", "--sessions", "3",
                        "--trace", "t.jsonl", "--report", "r.json"])
    assert run(cfg) == 0
    assert seen == [["r", "t"]] * 3
    assert sorted(os.listdir(tmp_path)) == ["r.json", "t.jsonl"]


def test_file_report_run_loads_no_tempfile(tmp_path):
    # without site, which may load tempfile itself, a run writing its report
    # to a file leaves tempfile, and the modules it would load, unimported
    code = (
        "import sys\n"
        "from nps2.cli import parse_config, run\n"
        "run(parse_config(['run', '--n', '8', '--field-m', '16', '--field-poly', '1100b',\n"
        "                  '--fail-random', '2', '--sessions', '20',\n"
        "                  '--trace', 't.jsonl', '--report', 'r.json']))\n"
        "loaded = {'tempfile', 'shutil'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(nps2.cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(tmp_path)) == ["r.json", "t.jsonl"]


@pytest.mark.parametrize("argv, message", [
    (["--config", "cfg"], "cannot read config file cfg: [Errno 21] Is a directory: 'cfg'"),
    (["--config", "array.json"], "config file array.json must hold a JSON object"),
    (["--sessions", "0"], "--sessions must be positive, got 0"),
], ids=["config-directory", "config-array", "sessions-0"])
def test_config_and_count_errors_exit_2_with_one_line(argv, message, tmp_path):
    # each ends in one error line after the usage, without a traceback, and
    # writes neither the trace nor the report it names
    (tmp_path / "cfg").mkdir()
    (tmp_path / "array.json").write_text("[1, 2]")
    src = os.path.dirname(os.path.dirname(nps2.cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nps2.cli", *argv, "--trace", "t.jsonl", "--report", "r.json"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert [line for line in proc.stderr.splitlines() if not line.startswith(("usage:", " "))] \
        == [f"nps2: error: {message}"]
    assert sorted(os.listdir(tmp_path)) == ["array.json", "cfg"]
    assert os.listdir(tmp_path / "cfg") == []


# the child starts with every stop signal at its default action, as a command
# typed at a terminal does, whatever its parent ignores
DEFAULT_STOPS = ("import signal, sys\n"
                 "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
                 "for signum in (signal.SIGTERM, signal.SIGHUP):\n"
                 "    signal.signal(signum, signal.SIG_DFL)\n")
STOPPABLE = DEFAULT_STOPS + "from nps2.cli import main\nmain(sys.argv[1:])\n"
# and this one sends itself SIGINT in its 4th session, then SIGTERM from inside the
# first os.remove of the cleanup that SIGINT starts; it fails unless it sent both
SIGNALLED_TWICE = DEFAULT_STOPS + (
    "import os\n"
    "import nps2.cli\n"
    "run_session, remove, sessions, stops = nps2.cli.run_session, os.remove, [], []\n"
    "def run_session_stopped_in_the_4th(*args, **kwargs):\n"
    "    sessions.append(args)\n"
    "    if len(sessions) == 4:\n"
    "        stops.append(signal.SIGINT)\n"
    "        os.kill(os.getpid(), signal.SIGINT)\n"
    "    return run_session(*args, **kwargs)\n"
    "def remove_stopped_again(path):\n"
    "    if stops == [signal.SIGINT]:\n"
    "        stops.append(signal.SIGTERM)\n"
    "        os.kill(os.getpid(), signal.SIGTERM)\n"
    "    remove(path)\n"
    "nps2.cli.run_session, os.remove = run_session_stopped_in_the_4th, remove_stopped_again\n"
    "try:\n"
    "    nps2.cli.main(sys.argv[1:])\n"
    "finally:\n"
    "    assert stops == [signal.SIGINT, signal.SIGTERM], stops\n")


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGHUP, signal.SIGINT],
                         ids=lambda signum: signum.name)
def test_a_signalled_run_exits_128_plus_signum_and_leaves_no_temp_file(signum, existing,
                                                                      tmp_path):
    # the child is signalled once its trace's temp file has grown, so mid-run: it
    # prints one line, leaves no temp file, and any old outputs byte for byte
    for name in ("t.jsonl", "r.json") if existing else ():
        (tmp_path / name).write_bytes(f"old {name}\n".encode())
    old = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    src = os.path.dirname(os.path.dirname(nps2.cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["run", "--n", "8", "--sessions", "2000000", "--fail-random", "2",
            "--trace", "t.jsonl", "--report", "r.json"]
    with subprocess.Popen([sys.executable, "-c", STOPPABLE, *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path}, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as child:
        try:
            deadline = time.monotonic() + 60
            while not any(tmp.stat().st_size for tmp in tmp_path.glob("t.jsonl.*.tmp")):
                assert child.poll() is None and time.monotonic() < deadline, child.returncode
                time.sleep(0.01)
            child.send_signal(signum)
            out, err = child.communicate(timeout=60)
        finally:
            child.kill()  # only if it is still running
    assert child.returncode == 128 + signum
    assert (out, err) == ("", f"nps2: interrupted by {signum.name}\n")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == old


def test_a_second_stop_signal_cannot_break_the_cleanup(tmp_path):
    # the second signal is ignored: the run exits as the first one stopped it,
    # names only that one, and its cleanup removes every temp file
    src = os.path.dirname(os.path.dirname(nps2.cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["run", "--n", "6", "--sessions", "10", "--fail-random", "2",
            "--trace", "t.jsonl", "--report", "r.json"]
    proc = subprocess.run([sys.executable, "-c", SIGNALLED_TWICE, *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) \
        == (130, "", "nps2: interrupted by SIGINT\n")
    assert os.listdir(tmp_path) == []


def test_main_sets_the_stop_handlers_for_the_run_only(monkeypatch, capsys):
    # during the run SIGINT and SIGTERM raise, an ignored SIGHUP stays ignored,
    # and all are put back after; off the main thread none is set
    seen = []
    stops = (signal.SIGINT, signal.SIGTERM, signal.SIGHUP)

    def run(config):
        seen.append(tuple(map(signal.getsignal, stops)))
        return 0

    monkeypatch.setattr(nps2.cli, "run", run)
    before = [signal.signal(signum, handler) for signum, handler in zip(
        stops, (signal.default_int_handler, signal.SIG_DFL, signal.SIG_IGN))]
    try:
        with pytest.raises(SystemExit) as exc:
            main(["dump-rows"])
        assert exc.value.code == 0
        assert seen == [(nps2.cli._interrupt, nps2.cli._interrupt, signal.SIG_IGN)]
        assert tuple(map(signal.getsignal, stops)) \
            == (signal.default_int_handler, signal.SIG_DFL, signal.SIG_IGN)
        codes = []

        def off_main():
            with pytest.raises(SystemExit) as exc:
                main(["dump-rows"])
            codes.append(exc.value.code)

        thread = threading.Thread(target=off_main)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and codes == [0]
        assert seen[1:] == [(signal.default_int_handler, signal.SIG_DFL, signal.SIG_IGN)]
    finally:
        for signum, handler in zip(stops, before):
            signal.signal(signum, handler)


def test_help_reads_the_terminal_width(monkeypatch, capsys):
    # the parser adds its arguments under a fixed width, but help wraps to
    # the terminal's, as argparse's default formatter does
    widths = []
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            parse_config(["--help"])
        widths.append(max(map(len, capsys.readouterr().out.splitlines())))
    assert widths[0] <= 58 < widths[1]


def test_trace_heads_and_round_lines_are_bounded(tmp_path):
    # trace heads are kept per (n, hex width), 3 a path (by kind, then path
    # from 1), whatever the pairs or the failures; entries' round lines once
    # per schedule's pairs, and an
    # NPS2-I run at n=34 cycles through 17 of them
    forms, round_lines = nps2.simnet._trace_forms, nps2.cli._round_lines
    forms.cache_clear()
    round_lines.cache_clear()
    outputs = ["--trace", str(tmp_path / "t.jsonl"), "--report", str(tmp_path / "r.json")]
    for argv in (["run", "--n", "8", "--field-m", "16", "--field-poly", "1100b",
                  "--sessions", "20", "--fail-random", "2"],
                 ["run", "--scheme", "nps2-i", "--n", "34", "--sessions", "40",
                  "--fail-random", "2"],
                 ["sweep", "--n", "32"]):
        assert run(parse_config(argv + outputs)) == 0
    assert forms.cache_info().currsize == 3
    heads = {key: {h for kind in forms(*key)[0] for h in kind[1:]}
             for key in [(8, 4), (34, 2), (32, 2)]}
    assert {key: len(h) for key, h in heads.items()} == {(8, 4): 24, (34, 2): 102, (32, 2): 96}
    assert forms.cache_info().currsize == 3  # the reads above were all hits
    assert round_lines.cache_info().currsize == 1 + 17 + 1
    # NPS2-I's pairs all give one template, which the 17 keys share
    shared = {id(round_lines(build_schedule(Scheme.NPS2_I, 34, d).pairs)) for d in range(17)}
    assert len(shared) == 1 and round_lines.cache_info().currsize == 19


def test_report_totals_equal_a_naive_count(tmp_path, monkeypatch):
    # on sum-only rows an NPS2-I session that loses two working paths is
    # unrecoverable, one that loses a carrier is complete; the report's totals
    # are those of its own entries and of the library's sessions
    monkeypatch.setattr(nps2.cli, "run_session", functools.partial(run_session, sum_only=True))
    path = tmp_path / "r.json"
    cfg = parse_config(["run", "--scheme", "nps2-i", "--n", "5", "--sessions", "40",
                        "--fail-random", "2", "--seed", "2", "--report", str(path)])
    assert run(cfg) == 1
    report = json.loads(path.read_text())
    entries = report["results"]
    complete = sum(e["outcome"] == "complete" for e in entries)
    assert 0 < complete < len(entries) == 40
    histogram = {}
    for entry in entries:
        histogram[entry["scenario"]] = histogram.get(entry["scenario"], 0) + 1
    assert report["scenario_histogram"] == histogram
    assert report["recovered_count_total"] == sum(e["recovered_count"] for e in entries) > 0
    assert report["complete_rate"] == complete / 40 and report["all_complete"] is False
    results = list(nps2.cli._sessions(cfg))
    assert report["recovered_count_total"] == sum(len(r.recovered) for r in results)
    assert complete == sum(r.outcome is Outcome.COMPLETE for r in results)


def test_spool_write_errors_name_the_report(tmp_path):
    # a file size limit stops the report's spool, a temp file beside it, well
    # before the sessions end; the error names the report, not stdout, and
    # leaves no report and no temp file behind
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, 100_000))

    src = os.path.dirname(os.path.dirname(nps2.cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nps2.cli", "run", "--n", "8", "--sessions", "2000",
         "--fail-random", "2", "--report", "r.json"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, preexec_fn=limit,
        capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "nps2: error: cannot write r.json: File too large" in proc.stderr
    assert "standard output" not in proc.stderr
    assert proc.stdout == ""
    assert os.listdir(tmp_path) == []


def test_memory_stays_flat_in_sessions(tmp_path):
    # a streamed run keeps only its totals, and a GF(2^16) spec caches only
    # the elements below 256, so 20x the sessions peaks no higher
    def config(sessions):
        return parse_config(["run", "--n", "8", "--field-m", "16", "--field-poly", "1100b",
                             "--fail-random", "2", "--sessions", str(sessions),
                             "--trace", str(tmp_path / "t.jsonl"),
                             "--report", str(tmp_path / "r.json")])

    def peak(cfg):
        tracemalloc.start()
        try:
            assert run(cfg) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # CPython keeps up to 2000 freed tuples of each size for reuse. A session
    # frees a few of sizes that later allocations do not take back, so these
    # lists fill over the first thousands of sessions, and tracemalloc counts
    # them. An untraced run fills them first; with the cycle collector off no
    # collection empties them again, and cyclic garbage counts as growth.
    gc.disable()
    try:
        assert run(config(2000)) == 0
        small = peak(config(50))
        cfg = config(1000)
        large = peak(cfg)
    finally:
        gc.enable()
    assert large - small <= 256 * 1024
    assert len(cfg.field._elements) <= 256


class _Faults:
    """Counts a run's I/O steps, the write, flush and close of each file cli
    opens and each os.replace, and makes the k-th raise ENOSPC; ``fired`` is
    that step's (open mode, method), or None while no fault has fired."""

    def __init__(self, k):
        self.k, self.count, self.fired = k, 0, None

    def step(self, where):
        self.count += 1
        if self.count == self.k:
            self.fired = where
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def install(self, monkeypatch):
        faults, real_open, real_replace = self, open, os.replace

        class File:
            def __init__(self, mode, file):
                self._mode, self._file = mode, file

            def __getattr__(self, name):
                return getattr(self._file, name)

            def write(self, text):
                faults.step((self._mode, "write"))
                return self._file.write(text)

            def flush(self):
                faults.step((self._mode, "flush"))
                self._file.flush()

            def close(self):
                try:
                    faults.step((self._mode, "close"))
                finally:  # a failed close still closes the file
                    self._file.close()

        def faulty_open(path, mode="r", **kwargs):
            return File(mode, real_open(path, mode, **kwargs))

        def faulty_replace(src, dst):
            faults.step(("replace", None))
            real_replace(src, dst)

        monkeypatch.setattr(nps2.cli, "open", faulty_open, raising=False)
        monkeypatch.setattr(nps2.cli, "os", _os_with(faulty_replace))


def _os_with(replace):
    """The os module as cli sees it, with ``replace`` in place of os.replace."""
    class Os:
        def __getattr__(self, name):
            return getattr(os, name)

    Os.replace = staticmethod(replace)
    return Os()


def _contents(directory):
    """Each file's text, a report's generated_at line dropped."""
    return {name: "".join(line for line in (directory / name).read_text().splitlines(True)
                          if '"generated_at"' not in line)
            for name in sorted(os.listdir(directory))}


def test_failed_placement_puts_the_old_outputs_back(tmp_path, capsys, monkeypatch):
    # the trace is placed, then placing the report fails: the trace's old
    # file comes back, so the pair on disk is still the previous run's
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.jsonl").write_text("old trace\n")
    (tmp_path / "r.json").write_text("old report\n")
    cfg = parse_config(["run", "--n", "6", "--fail", "2", "--trace", "t.jsonl",
                        "--report", "r.json"])
    replaces = []

    def second_fails(src, dst):
        replaces.append(dst)
        if len(replaces) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        os.replace(src, dst)

    monkeypatch.setattr(nps2.cli, "os", _os_with(second_fails))
    assert run(cfg) == 2
    assert "nps2: error: cannot write r.json: No space left on device" in capsys.readouterr().err
    assert _contents(tmp_path) == {"r.json": "old report\n", "t.jsonl": "old trace\n"}


@pytest.mark.parametrize("outputs", [["--trace", "t.jsonl", "--report", "r.json"],
                                     ["--trace", "t.jsonl"]], ids=["report-file", "report-stdout"])
def test_failed_placement_prints_nothing(outputs, tmp_path, capsys, monkeypatch):
    # the summary line, or a report to stdout, is written only once every output
    # is placed: a run whose last placement fails prints nothing to stdout
    monkeypatch.chdir(tmp_path)
    names = outputs[1::2]
    for name in names:
        (tmp_path / name).write_text(f"old {name}\n")
    cfg = parse_config(["run", "--n", "6", "--fail", "2"] + outputs)
    replaces = []

    def last_fails(src, dst):
        replaces.append(dst)
        if len(replaces) == len(names):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        os.replace(src, dst)

    monkeypatch.setattr(nps2.cli, "os", _os_with(last_fails))
    assert run(cfg) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"nps2: error: cannot write {names[-1]}: No space left on device" in err
    assert _contents(tmp_path) == {name: f"old {name}\n" for name in names}


FAULT_ARGV = {"run": ["run", "--n", "6", "--sessions", "3", "--fail", "2,3,5"],
              "sweep": ["sweep", "--n", "4"]}
FAULT_OUTPUTS = {"trace": ["--trace", "t.jsonl"], "report": ["--report", "r.json"],
                 "both": ["--trace", "t.jsonl", "--report", "r.json"], "stdout": []}


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("outputs", FAULT_OUTPUTS)
@pytest.mark.parametrize("mode", FAULT_ARGV)
def test_every_io_fault_leaves_all_new_or_all_old_outputs(mode, outputs, existing, tmp_path,
                                                          capsys, monkeypatch):
    # the k-th I/O step of the run fails, for every k until none fails: the
    # run exits 2, prints nothing to stdout and leaves the outputs as before,
    # or it completes and they are all new; only a failed close of the
    # report's unlinked spool (opened "x+") is suppressed, as its entries
    # were flushed as written
    argv = FAULT_ARGV[mode] + FAULT_OUTPUTS[outputs]
    names = FAULT_OUTPUTS[outputs][1::2]
    clean = tmp_path / "clean"
    clean.mkdir()
    monkeypatch.chdir(clean)
    expected = run(parse_config(argv))
    assert expected == (1 if mode == "run" else 0)
    new = _contents(clean)
    capsys.readouterr()
    spool_closes = 0
    for k in itertools.count(1):
        work = tmp_path / f"k{k}"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setattr(tempfile, "tempdir", str(work))
        for name in names if existing else ():
            (work / name).write_text(f"old {name}\n")
        old = _contents(work)
        cfg = parse_config(argv)
        with monkeypatch.context() as patch:
            faults = _Faults(k)
            faults.install(patch)
            code = run(cfg)
        out, err = capsys.readouterr()
        if faults.fired is None:
            assert code == expected and _contents(work) == new
            break
        if faults.fired == ("x+", "close"):
            spool_closes += 1
            assert code == expected and _contents(work) == new, faults.fired
        else:
            assert code == 2 and _contents(work) == old, (k, faults.fired)
            assert "No space left on device" in err and out == "", (k, faults.fired)
    assert k > 1 or not names
    assert spool_closes == ("r.json" in names)
