"""Command-line front end: run sessions, sweep failure patterns, dump
schedules and coefficient rows, and emit JSON reports plus packet traces."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Sequence

from .codec import build_rows, check_width
from .field import DEFAULT_GENERATOR, DEFAULT_M, DEFAULT_REDUCTION_POLY, FieldSpec
from .schemes import Scheme, build_schedule, check_path_count, schedule_labels
from .simnet import (
    NO_FAILURES,
    FailurePattern,
    SessionResult,
    SweepReport,
    generate_source_data,
    run_session,
    sweep_failures,
    trace_lines,
)

MODES = ("run", "sweep", "dump-schedule", "dump-rows")

DEFAULT_SCHEME = Scheme.NPS2_II
DEFAULT_N = 8
DEFAULT_SESSIONS = 1


@dataclass
class RunConfig:
    mode: str
    scheme: Scheme
    n: int
    field: FieldSpec
    sessions: int
    fail_paths: tuple[int, ...] | None
    fail_random: int | None
    seed: int
    trace_path: str | None
    report_path: str | None
    as_json: bool = False

    def field_echo(self) -> dict:
        return {
            "m": self.field.m,
            "reduction_poly": f"0x{self.field.reduction_poly:x}",
            "generator": f"0x{self.field.generator:x}",
        }

    def echo(self) -> dict:
        if self.fail_paths is not None:
            failure = {"paths": list(self.fail_paths)}
        elif self.fail_random is not None:
            failure = {"random": self.fail_random}
        else:
            failure = {"sweep": True} if self.mode == "sweep" else {"paths": []}
        return {
            "mode": self.mode,
            "scheme": self.scheme.value,
            "n": self.n,
            "field": self.field_echo(),
            "sessions": self.sessions,
            "seed": self.seed,
            "failure": failure,
        }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nps2",
        description="Simulate coded protection of n disjoint paths against "
        "one or two per-session link failures.",
    )
    parser.add_argument(
        "command",
        nargs="?",
        choices=MODES,
        help="action to perform; defaults to an exhaustive failure sweep",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON config file; flags win")
    parser.add_argument("--scheme", choices=[s.value for s in Scheme])
    parser.add_argument("--n", help="number of disjoint paths")
    parser.add_argument("--field-m", help="extension degree of GF(2^m)")
    parser.add_argument("--field-poly", metavar="HEX", help="reduction polynomial")
    parser.add_argument("--field-gen", metavar="HEX", help="field generator")
    parser.add_argument("--sessions", help="sessions to simulate")
    parser.add_argument("--fail", metavar="PATHS", help="comma list of failed paths")
    parser.add_argument(
        "--fail-random", metavar="K", help="fail K random paths per session"
    )
    parser.add_argument(
        "--sweep", action="store_true", help="run every 0/1/2-failure pattern"
    )
    parser.add_argument("--seed", help="RNG seed (fallback: env NPS2_SEED)")
    parser.add_argument("--trace", metavar="PATH", help="write a JSON-lines packet trace")
    parser.add_argument("--report", metavar="PATH", help="write the JSON report here")
    parser.add_argument(
        "--dump-schedule", action="store_true", help="print the session schedule matrix"
    )
    parser.add_argument(
        "--dump-rows", action="store_true", help="print the coefficient rows as hex"
    )
    parser.add_argument("--json", action="store_true", help="JSON output for dumps")
    return parser


def _int(value) -> int:
    """An int, or a decimal string holding one; bools and floats are refused
    rather than read as 1 or truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _hex(value) -> int:
    """An int, or a hex string such as "11d" or "0x11d"."""
    if isinstance(value, str):
        try:
            return int(value, 16)
        except ValueError:
            raise ValueError(f"malformed hex value {value!r}") from None
    return _int(value)


def _paths(value) -> tuple[int, ...]:
    """Path numbers from a comma list, a JSON list or a single number."""
    if isinstance(value, str):
        value = [p for p in value.split(",") if p.strip()]
    elif not isinstance(value, list):
        value = [value]
    return tuple(_int(p) for p in value)


def _path(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a file path, got {value!r}")
    return value


def _mode(value) -> str:
    if value not in MODES:
        raise ValueError(f"unknown mode {value!r}")
    return value


# config key, also its flag's dest -> (its key inside the file's nested
# "field" object, which has the report's echo shape; coercion; default).
# parse_config resolves each key from the flag, then the file's flat key,
# then the nested key, then the environment (NPS2_SEED for the seed), then
# the default; JSON null counts as absent.
CONFIG_KEYS = {
    "scheme": (None, Scheme, DEFAULT_SCHEME),
    "n": (None, _int, DEFAULT_N),
    "field_m": ("m", _int, DEFAULT_M),
    "field_poly": ("reduction_poly", _hex, DEFAULT_REDUCTION_POLY),
    "field_gen": ("generator", _hex, DEFAULT_GENERATOR),
    "sessions": (None, _int, DEFAULT_SESSIONS),
    "seed": (None, _int, 0),
    "fail": (None, _paths, None),
    "fail_random": (None, _int, None),
    "trace": (None, _path, None),
    "report": (None, _path, None),
    "mode": (None, _mode, None),
}


def _load_config_file(parser: argparse.ArgumentParser, path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(loaded, dict):
        parser.error(f"config file {path} must hold a JSON object")
    return loaded


def parse_config(argv: Sequence[str] | None = None) -> RunConfig:
    """Parse flags (and an optional config file) into a validated RunConfig."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    file_cfg = _load_config_file(parser, args.config) if args.config else {}
    field_cfg = file_cfg.get("field")
    if field_cfg is None:
        field_cfg = {}
    elif not isinstance(field_cfg, dict):
        parser.error("config key 'field' must be an object")
    env = {"seed": os.environ.get("NPS2_SEED")}

    cfg = {}
    for key, (nested, coerce, default) in CONFIG_KEYS.items():
        sources = (getattr(args, key, None), file_cfg.get(key), field_cfg.get(nested), env.get(key))
        value = next((v for v in sources if v is not None), default)
        try:
            cfg[key] = None if value is None else coerce(value)
        except (TypeError, ValueError) as exc:
            parser.error(f"{key}: {exc}")
    n, fail_paths, fail_random = cfg["n"], cfg["fail"], cfg["fail_random"]
    if fail_paths is not None and fail_random is not None:
        parser.error("--fail and --fail-random are mutually exclusive")

    mode = args.command
    if mode is None:
        if args.dump_schedule:
            mode = "dump-schedule"
        elif args.dump_rows:
            mode = "dump-rows"
        elif args.sweep:
            mode = "sweep"
        elif fail_paths is not None or fail_random is not None:
            mode = "run"
        else:
            mode = cfg["mode"] or "sweep"

    # -- cross-field validation -------------------------------------------
    try:
        check_path_count(cfg["scheme"], n)
        field = FieldSpec(cfg["field_m"], cfg["field_poly"], cfg["field_gen"])
        check_width(n - 2, field)
    except ValueError as exc:
        parser.error(str(exc))
    if cfg["sessions"] < 1:
        parser.error(f"--sessions must be positive, got {cfg['sessions']}")
    if fail_paths is not None:
        bad = [p for p in fail_paths if not 1 <= p <= n]
        if bad:
            parser.error(f"failed paths out of range 1..{n}: {bad}")
        if len(set(fail_paths)) != len(fail_paths):
            parser.error(f"duplicate paths in --fail: {list(fail_paths)}")
    if fail_random is not None and not 0 <= fail_random <= n:
        parser.error(f"--fail-random must be in 0..{n}, got {fail_random}")

    return RunConfig(
        mode=mode,
        scheme=cfg["scheme"],
        n=n,
        field=field,
        sessions=cfg["sessions"],
        fail_paths=fail_paths,
        fail_random=fail_random,
        seed=cfg["seed"],
        trace_path=cfg["trace"],
        report_path=cfg["report"],
        as_json=args.json,
    )


def _session_entry(result: SessionResult) -> dict:
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


def _write_files(outputs: Sequence[tuple[str, Iterable[str]]]) -> None:
    """Write each (path, chunks) output so that none appears before all are
    written. A regular or new file is streamed to a temp file beside the file
    its path resolves to, and renamed over it once every write has
    succeeded; a device or pipe such as /dev/null, which a rename would
    replace, is written in place. On an OSError no renamed output and no temp
    file is left, and the error names the path."""
    staged: list[tuple[str, str, str]] = []  # (path, temp file, target)
    placed: list[str] = []
    path = None
    try:
        for path, chunks in outputs:
            target = os.path.realpath(path)
            in_place = os.path.exists(target) and not os.path.isfile(target)
            tmp = target if in_place else f"{target}.{os.urandom(4).hex()}.tmp"
            with open(tmp, "w" if in_place else "x", encoding="utf-8") as fh:
                if not in_place:
                    staged.append((path, tmp, target))
                fh.writelines(chunks)
        for path, tmp, target in staged:
            os.replace(tmp, target)
            placed.append(target)
    except OSError as exc:
        for leftover in [tmp for _, tmp, _ in staged] + placed:
            with contextlib.suppress(OSError):
                os.remove(leftover)
        raise OSError(exc.errno, exc.strerror, path) from exc


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _finish(config: RunConfig, results: list[SessionResult]) -> int:
    report = SweepReport(tuple(results))
    completed, total = report.complete_count, report.session_count
    capacity = f"{config.n - 2}/{config.n}"
    text = _json({
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": config.echo(),
        "schedule_capacity": capacity,
        "results": [_session_entry(r) for r in results],
        "scenario_histogram": report.scenario_histogram,
        "recovered_count_total": report.recovered_total,
        "complete_rate": report.complete_rate,
        "all_complete": completed == total,
    })
    outputs = []
    if config.trace_path:
        trace = (line + "\n" for r in results for line in trace_lines(r.packets))
        outputs.append((config.trace_path, trace))
    if config.report_path:
        outputs.append((config.report_path, [text]))
    _write_files(outputs)
    if config.report_path:
        print(
            f"{config.mode}: {completed}/{total} sessions complete, "
            f"schedule capacity {capacity}, report written to {config.report_path}"
        )
    else:
        sys.stdout.write(text)
    return 0 if completed == total else 1


def _draw_tensor(config: RunConfig) -> list:
    """All sessions' source data in one draw; row idx holds what a draw of
    idx + 1 sessions gives session idx."""
    rounds = build_schedule(config.scheme, config.n).rounds
    return generate_source_data(config.n, rounds, config.sessions, config.seed, config.field)


def _cmd_run(config: RunConfig) -> int:
    rows = build_rows(config.n - 2, config.field)
    tensor = _draw_tensor(config)
    pattern_rng = random.Random(config.seed)
    results = []
    for idx in range(config.sessions):
        if config.fail_paths is not None:
            pattern = FailurePattern(config.fail_paths)
        elif config.fail_random is not None:
            pattern = FailurePattern(
                pattern_rng.sample(range(1, config.n + 1), config.fail_random)
            )
        else:
            pattern = NO_FAILURES
        results.append(
            run_session(
                config.scheme,
                config.n,
                config.field,
                pattern,
                seed=config.seed,
                session_index=idx,
                data=tensor[idx],
                rows=rows,
            )
        )
    return _finish(config, results)


def _cmd_sweep(config: RunConfig) -> int:
    tensor = _draw_tensor(config)
    results = []
    for idx in range(config.sessions):
        report = sweep_failures(config.scheme, config.n, config.field, seed=config.seed,
                                session_index=idx, data=tensor[idx])
        results.extend(report.results)
    return _finish(config, results)


def _cmd_dump_schedule(config: RunConfig) -> int:
    schedule = build_schedule(config.scheme, config.n)
    labels = schedule_labels(schedule)
    if config.as_json:
        sys.stdout.write(_json(
            {"scheme": config.scheme.value, "n": config.n, "rounds": schedule.rounds,
             "matrix": labels}
        ))
        return 0
    width = max(
        max(len(cell) for row in labels for cell in row),
        len(f"round {schedule.rounds}"),
    )
    stub = max(len(f"s{config.n} -> r{config.n}"), len("connection"))
    header = "  ".join(f"round {r}".ljust(width) for r in range(1, schedule.rounds + 1))
    print(f"{config.scheme.value} schedule, n={config.n}, {schedule.rounds} rounds/session")
    print(f"{'connection'.ljust(stub)} | {header}")
    for path, row in enumerate(labels, 1):
        cells = "  ".join(cell.ljust(width) for cell in row)
        print(f"{f's{path} -> r{path}'.ljust(stub)} | {cells}".rstrip())
    return 0


def _cmd_dump_rows(config: RunConfig) -> int:
    rows = build_rows(config.n - 2, config.field)
    sum_hex = [e.hex for e in rows.row_sum]
    weighted_hex = [e.hex for e in rows.row_weighted]
    if config.as_json:
        sys.stdout.write(_json(
            {"width": rows.width, "field": config.field_echo(), "row_sum": sum_hex,
             "row_weighted": weighted_hex}
        ))
        return 0
    print(
        f"width={rows.width} over GF(2^{config.field.m}), "
        f"poly 0x{config.field.reduction_poly:x}, generator 0x{config.field.generator:x}"
    )
    print("row_sum:      " + " ".join(sum_hex))
    print("row_weighted: " + " ".join(weighted_hex))
    return 0


def run(config: RunConfig) -> int:
    """Execute the configured mode; 0 exit only if every session completed."""
    commands = {"run": _cmd_run, "sweep": _cmd_sweep,
                "dump-schedule": _cmd_dump_schedule, "dump-rows": _cmd_dump_rows}
    try:
        return commands[config.mode](config)
    except OSError as exc:
        target = exc.filename or "standard output"
        print(f"nps2: error: cannot write {target}: {exc.strerror}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    sys.exit(run(parse_config(argv)))


if __name__ == "__main__":
    main()
