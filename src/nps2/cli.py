"""Command-line front end: run sessions, sweep failure patterns, dump
schedules and coefficient rows, and emit JSON reports plus packet traces."""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Sequence

from .codec import build_rows
from .field import DEFAULT_GENERATOR, DEFAULT_M, DEFAULT_REDUCTION_POLY, FieldSpec
from .schemes import Scheme, build_schedule, schedule_labels
from .simnet import (
    NO_FAILURES,
    FailurePattern,
    SessionResult,
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
    parser.add_argument("--n", type=int, help="number of disjoint paths")
    parser.add_argument("--field-m", type=int, help="extension degree of GF(2^m)")
    parser.add_argument("--field-poly", metavar="HEX", help="reduction polynomial")
    parser.add_argument("--field-gen", metavar="HEX", help="field generator")
    parser.add_argument("--sessions", type=int, help="sessions to simulate")
    parser.add_argument("--fail", metavar="PATHS", help="comma list of failed paths")
    parser.add_argument(
        "--fail-random", type=int, metavar="K", help="fail K random paths per session"
    )
    parser.add_argument(
        "--sweep", action="store_true", help="run every 0/1/2-failure pattern"
    )
    parser.add_argument("--seed", type=int, help="RNG seed (fallback: env NPS2_SEED)")
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


def _parse_hex(parser: argparse.ArgumentParser, label: str, text) -> int:
    if isinstance(text, int):
        return text
    try:
        return int(str(text), 16)
    except ValueError:
        parser.error(f"malformed hex value {text!r} for {label}")


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

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        if key in file_cfg:
            return file_cfg[key]
        return default

    # a nested {"field": {"m", "reduction_poly", "generator"}} object (the
    # report's config echo shape) is accepted alongside the flat keys
    field_cfg = file_cfg.get("field", {})
    if not isinstance(field_cfg, dict):
        parser.error("config key 'field' must be an object")

    scheme_name = pick(args.scheme, "scheme", DEFAULT_SCHEME.value)
    try:
        scheme = Scheme(scheme_name)
    except ValueError:
        parser.error(f"unknown scheme {scheme_name!r}")
    n = int(pick(args.n, "n", DEFAULT_N))
    m = int(pick(args.field_m, "field_m", field_cfg.get("m", DEFAULT_M)))
    poly = _parse_hex(
        parser,
        "--field-poly",
        pick(args.field_poly, "field_poly",
             field_cfg.get("reduction_poly", DEFAULT_REDUCTION_POLY)),
    )
    gen = _parse_hex(
        parser,
        "--field-gen",
        pick(args.field_gen, "field_gen",
             field_cfg.get("generator", DEFAULT_GENERATOR)),
    )
    sessions = int(pick(args.sessions, "sessions", DEFAULT_SESSIONS))

    seed = args.seed
    if seed is None and "seed" in file_cfg:
        seed = int(file_cfg["seed"])
    if seed is None:
        env_seed = os.environ.get("NPS2_SEED")
        if env_seed is not None:
            try:
                seed = int(env_seed)
            except ValueError:
                parser.error(f"NPS2_SEED must be an integer, got {env_seed!r}")
    if seed is None:
        seed = 0

    fail_raw = pick(args.fail, "fail", None)
    fail_random = pick(args.fail_random, "fail_random", None)
    if fail_random is not None:
        try:
            fail_random = int(fail_random)
        except (TypeError, ValueError):
            parser.error(f"fail_random must be an integer, got {fail_random!r}")
    fail_paths = None
    if fail_raw is not None:
        if isinstance(fail_raw, (list, tuple)):
            parts = [str(p) for p in fail_raw]
        else:
            parts = str(fail_raw).split(",")
        try:
            fail_paths = tuple(int(p) for p in parts if p.strip() != "")
        except ValueError:
            parser.error(f"--fail expects a comma list of path numbers, got {fail_raw!r}")
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
            mode = pick(None, "mode", "sweep")
            if mode not in MODES:
                parser.error(f"unknown mode {mode!r} in config file")

    # -- cross-field validation -------------------------------------------
    if scheme is Scheme.NPS2_II and n % 2:
        parser.error(f"nps2-ii needs an even number of paths, got n={n}")
    min_n = 4 if scheme is Scheme.NPS2_II else 3
    if n < min_n:
        parser.error(f"{scheme.value} needs n >= {min_n}, got n={n}")
    try:
        field = FieldSpec(m, poly, gen)
    except ValueError as exc:
        parser.error(str(exc))
    if n - 2 > field.q - 1:
        parser.error(
            f"n-2 = {n - 2} protected slots exceed the {field.q - 1} distinct "
            f"coefficients of GF(2^{m}); raise --field-m"
        )
    if sessions < 1:
        parser.error(f"--sessions must be positive, got {sessions}")
    if fail_paths is not None:
        bad = [p for p in fail_paths if not 1 <= p <= n]
        if bad:
            parser.error(f"failed paths out of range 1..{n}: {bad}")
        if len(set(fail_paths)) != len(fail_paths):
            parser.error(f"duplicate paths in --fail: {fail_raw!r}")
    if fail_random is not None and not 0 <= fail_random <= n:
        parser.error(f"--fail-random must be in 0..{n}, got {fail_random}")

    return RunConfig(
        mode=mode,
        scheme=scheme,
        n=n,
        field=field,
        sessions=sessions,
        fail_paths=fail_paths,
        fail_random=fail_random,
        seed=seed,
        trace_path=pick(args.trace, "trace", None),
        report_path=pick(args.report, "report", None),
        as_json=args.json,
    )


def _capacity_str(numerator: int, denominator: int) -> str:
    return f"{numerator}/{denominator}"


def _session_entry(result: SessionResult) -> dict:
    n = result.schedule.n
    return {
        "session": result.schedule.session_index,
        "failed_paths": sorted(result.failure.failed_paths),
        "outcome": result.outcome.value,
        "scenario": result.scenario.value,
        "round_scenarios": {
            str(r): s.value for r, s in sorted(result.round_scenarios.items())
        },
        "recovered_count": result.recovered_count,
        "normalized_capacity": _capacity_str(n - len(result.failure), n),
        "detail": result.detail,
    }


def _write_report(config: RunConfig, report: dict) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if config.report_path:
        with open(config.report_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_trace(config: RunConfig, results: Sequence[SessionResult]) -> None:
    if not config.trace_path:
        return
    lines = []
    for result in results:
        lines.extend(trace_lines(result.packets))
    with open(config.trace_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def _finish(config: RunConfig, results: list[SessionResult]) -> int:
    histogram = Counter(r.scenario.value for r in results)
    completed = sum(r.complete for r in results)
    report = {
        "generated_at": _timestamp(),
        "config": config.echo(),
        "schedule_capacity": _capacity_str(config.n - 2, config.n),
        "results": [_session_entry(r) for r in results],
        "scenario_histogram": histogram,
        "recovered_count_total": sum(r.recovered_count for r in results),
        "complete_rate": completed / len(results),
        "all_complete": completed == len(results),
    }
    _write_trace(config, results)
    if config.report_path:
        print(
            f"{config.mode}: {completed}/{len(results)} sessions complete, "
            f"schedule capacity {report['schedule_capacity']}, "
            f"report written to {config.report_path}"
        )
    _write_report(config, report)
    return 0 if completed == len(results) else 1


def _cmd_run(config: RunConfig) -> int:
    rows = build_rows(config.n - 2, config.field)
    rounds = build_schedule(config.scheme, config.n).rounds
    tensor = generate_source_data(
        config.n, rounds, config.sessions, config.seed, config.field
    )
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
    results = []
    for idx in range(config.sessions):
        report = sweep_failures(
            config.scheme, config.n, config.field, seed=config.seed, session_index=idx
        )
        results.extend(report.results)
    return _finish(config, results)


def _cmd_dump_schedule(config: RunConfig) -> int:
    schedule = build_schedule(config.scheme, config.n)
    labels = schedule_labels(schedule)
    if config.as_json:
        print(
            json.dumps(
                {
                    "scheme": config.scheme.value,
                    "n": config.n,
                    "rounds": schedule.rounds,
                    "matrix": labels,
                },
                indent=2,
                sort_keys=True,
            )
        )
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
        print(
            json.dumps(
                {
                    "width": rows.width,
                    "field": config.field_echo(),
                    "row_sum": sum_hex,
                    "row_weighted": weighted_hex,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(
        f"width={rows.width} over GF(2^{config.field.m}), "
        f"poly 0x{config.field.reduction_poly:x}, generator 0x{config.field.generator:x}"
    )
    print("row_sum:      " + " ".join(sum_hex))
    print("row_weighted: " + " ".join(weighted_hex))
    return 0


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def run(config: RunConfig) -> int:
    """Execute the configured mode; 0 exit only if every session completed."""
    try:
        if config.mode == "run":
            return _cmd_run(config)
        if config.mode == "sweep":
            return _cmd_sweep(config)
        if config.mode == "dump-schedule":
            return _cmd_dump_schedule(config)
        return _cmd_dump_rows(config)
    except OSError as exc:
        target = getattr(exc, "filename", None) or config.report_path or config.trace_path
        print(f"nps2: cannot write {target}: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    code = run(parse_config(argv))
    sys.exit(code)


if __name__ == "__main__":
    main()
