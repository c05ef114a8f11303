"""Command-line front end: run sessions, sweep failure patterns, dump
schedules and coefficient rows, and emit JSON reports plus packet traces."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import signal
import sys
import time
from functools import cache
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .codec import build_rows
from .field import DEFAULT_GENERATOR, DEFAULT_M, DEFAULT_REDUCTION_POLY, FieldSpec
from .schemes import Scheme, build_schedule, schedule_labels
from .simnet import (
    SessionResult,
    _totals,
    generate_source_data,
    run_session,
    sweep_failures,
    trace_lines,
)

MODES = ("run", "sweep", "dump-schedule", "dump-rows")


class RunConfig(SimpleNamespace):
    """A validated config, filled by parse_config: an attribute per config key, but
    field_m, _poly and _gen make field, and as_json is --json."""

    def field_echo(self) -> dict:
        return {
            "m": self.field.m,
            "reduction_poly": f"0x{self.field.reduction_poly:x}",
            "generator": f"0x{self.field.generator:x}",
        }

    def echo(self) -> dict:
        if self.fail is not None:
            failure = {"paths": list(self.fail)}
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


def _int(value, base: int = 10) -> int:
    """An int, or a string holding one in ``base``; bools and floats are refused rather
    than read as 1 or truncated, and so are "_" and non-ASCII digits, which int() reads."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, str) and ("_" in value or not value.isascii()):
        raise ValueError(f"malformed number {value!r}")
    return int(value, base) if isinstance(value, str) else int(value)


def _hex(value) -> int:
    """An int, or a hex string such as "11d" or "0x11d"."""
    try:
        return _int(value, 16)
    except ValueError:
        raise ValueError(f"malformed hex value {value!r}") from None


def _paths(value) -> tuple[int, ...]:
    """Path numbers from a comma list, a JSON list or a single number."""
    if isinstance(value, str):
        value = [p for p in value.split(",") if p.strip()]
    elif not isinstance(value, list):
        value = [value]
    return tuple(_int(p) for p in value)


def _path(value) -> str:
    if not isinstance(value, str) or not value:
        raise TypeError(f"expected a file path, got {value!r}")
    return value


def _mode(value) -> str:
    if value not in MODES:
        raise ValueError(f"unknown mode {value!r}")
    return value


# config key and RunConfig attribute -> (coercion, default, argparse options of its flag
# --key-with-dashes, or for mode of the positional command). parse_config resolves each
# key from the flag, the file, the environment (NPS2_SEED), the default; null is absent.
CONFIG_KEYS = {
    "scheme": (Scheme, Scheme.NPS2_II, dict(choices=[s.value for s in Scheme])),
    "n": (_int, 8, dict(help="number of disjoint paths")),
    "field_m": (_int, DEFAULT_M, dict(help="extension degree of GF(2^m)")),
    "field_poly": (_hex, DEFAULT_REDUCTION_POLY, dict(metavar="HEX", help="reduction polynomial")),
    "field_gen": (_hex, DEFAULT_GENERATOR, dict(metavar="HEX", help="field generator")),
    "sessions": (_int, 1, dict(help="sessions to simulate")),
    "fail": (_paths, None, dict(metavar="PATHS", help="comma list of failed paths")),
    "fail_random": (_int, None, dict(metavar="K", help="fail K random paths per session")),
    "seed": (_int, 0, dict(help="RNG seed (fallback: env NPS2_SEED)")),
    "trace": (_path, None, dict(metavar="PATH", help="write a JSON-lines packet trace")),
    "report": (_path, None, dict(metavar="PATH", help="write the JSON report here")),
    "mode": (_mode, None, dict(
        nargs="?", choices=MODES, help="action to perform (config key mode); default: run "
        "with --fail or --fail-random, else an exhaustive failure sweep")),
}


def _build_parser() -> argparse.ArgumentParser:
    # every add_argument builds a formatter, which by default loads shutil (and bz2,
    # lzma, zlib) for the terminal's width: only help and usage texts need that
    parser = argparse.ArgumentParser(
        prog="nps2",
        description="Simulate coded protection of n disjoint paths against "
        "one or two per-session link failures.",
        formatter_class=lambda prog: argparse.HelpFormatter(prog, width=80),
    )
    parser.add_argument("--config", metavar="PATH", help="JSON config file; flags win")
    for key, (_, _, options) in CONFIG_KEYS.items():
        parser.add_argument(key if key == "mode" else "--" + key.replace("_", "-"), **options)
    parser.add_argument("--json", action="store_true", help="JSON output for dumps")
    parser.formatter_class = argparse.HelpFormatter
    return parser


def _load_config_file(parser: argparse.ArgumentParser, path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    except ValueError as exc:  # malformed JSON, not UTF-8, or an int too long to parse
        parser.error(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(loaded, dict):
        parser.error(f"config file {path} must hold a JSON object")
    unknown = sorted(loaded.keys() - CONFIG_KEYS.keys())
    if unknown:
        parser.error(f"config file {path} has unknown keys {unknown}")
    return loaded


def parse_config(argv: Sequence[str] | None = None) -> RunConfig:
    """Parse flags (and an optional config file) into a validated RunConfig."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    file_cfg = _load_config_file(parser, args.config) if args.config else {}
    env = {"seed": os.environ.get("NPS2_SEED")}

    cfg = {}
    for key, (coerce, default, _) in CONFIG_KEYS.items():
        sources = (getattr(args, key, None), file_cfg.get(key), env.get(key))
        value = next((v for v in sources if v is not None), default)
        try:
            cfg[key] = None if value is None else coerce(value)
        except (TypeError, ValueError) as exc:
            parser.error(f"{key}: {exc}")
    n, fail, fail_random = cfg["n"], cfg["fail"], cfg["fail_random"]
    if fail is not None and fail_random is not None:
        parser.error("--fail and --fail-random are mutually exclusive")
    failing = fail is not None or fail_random is not None
    mode = cfg["mode"] = cfg["mode"] or ("run" if failing else "sweep")
    if failing and mode != "run":
        parser.error(f"--fail and --fail-random apply to run, not to {mode}")
    dump = mode.startswith("dump-")
    if dump and (cfg["trace"] is not None or cfg["report"] is not None):
        parser.error(f"--trace and --report apply to run and sweep, not to {mode}")
    if args.json and not dump:
        parser.error(f"--json applies to dump-schedule and dump-rows, not to {mode}")

    # -- cross-field validation -------------------------------------------
    try:
        field = FieldSpec(cfg.pop("field_m"), cfg.pop("field_poly"), cfg.pop("field_gen"))
        build_rows(max(n - 2, 1), field)  # O(1): caps n at 2^m + 1 before any schedule
        build_schedule(cfg["scheme"], n)  # raises unless the scheme runs on n paths
    except ValueError as exc:
        parser.error(str(exc))
    if cfg["sessions"] < 1:
        parser.error(f"--sessions must be positive, got {cfg['sessions']}")
    if fail is not None:
        bad = [p for p in fail if not 1 <= p <= n]
        if bad:
            parser.error(f"failed paths out of range 1..{n}: {bad}")
        if len(set(fail)) != len(fail):
            parser.error(f"duplicate paths in --fail: {list(fail)}")
    if fail_random is not None and not 0 <= fail_random <= n:
        parser.error(f"--fail-random must be in 0..{n}, got {fail_random}")
    named = [(flag, os.path.realpath(path)) for flag, path in (
        ("--trace", cfg["trace"]), ("--report", cfg["report"]), ("--config", args.config)) if path]
    for i, (flag, target) in enumerate(named):  # no output may replace another or the config
        for other, again in named[i + 1:]:
            if target == again and not _in_place(target):
                parser.error(f"{flag} and {other} name the same file {target}")
    return RunConfig(field=field, as_json=args.json, **cfg)


@cache
def _round_lines(pairs: tuple[tuple[int, int], ...]) -> str:
    """An entry's round_scenarios lines in json's key order ("1", "10", ..., "2"), as a
    str.format template of each round's pair's index in order of first use."""
    first = {pair: i for i, pair in enumerate(dict.fromkeys(pairs))}
    lines = sorted(f'"{r}": "{{{first[p]}}}"' for r, p in enumerate(pairs, 1))
    return sys.intern(",\n        ".join(lines))  # one string for all NPS2-I pairs of an n


def _entry(result: SessionResult, scenario: str) -> str:
    """The session's report entry as json.dumps(indent=2, sort_keys=True) lays
    it out, indented as in the report's results; ``scenario`` is the session's."""
    n, failed, detail = result.schedule.n, result.failure, result.detail
    paths = "[\n        " + ",\n        ".join(map(str, failed)) + "\n      ]" if failed else "[]"
    return f"""{{
      "detail": {"null" if detail is None else json.dumps(detail)},
      "failed_paths": {paths},
      "normalized_capacity": "{n - len(failed)}/{n}",
      "outcome": "{result.outcome.value}",
      "recovered_count": {len(result.solved)},
      "round_scenarios": {{
        {_round_lines(result.schedule.pairs).format(*[s.value for s in result.scenarios])}
      }},
      "scenario": "{scenario}",
      "session": {result.session_index}
    }}"""


def _in_place(target: str) -> bool:
    """A device or pipe such as /dev/null, which a rename would replace."""
    return os.path.exists(target) and not os.path.isfile(target)


@contextlib.contextmanager
def _staged(*paths: str | None) -> Iterator[tuple[list, Callable[[], None]]]:
    """Open an output for each path before the block runs; the block gets each
    path's _writer, or None for None, and ``place``, which it must call once they
    are written: it closes them all and places them. A regular or new file is
    written to a temp file beside the file its path resolves to and renamed over
    it, an _in_place target in place. On any exception, also one after ``place``
    such as a failing stdout, no temp file is left and each placed output's old
    file is put back, or the output removed if it had none; an OSError from
    opening, writing, closing or placing an output names its path."""
    opened: list[tuple[str, TextIO, str | None, str]] = []  # (path, file, temp file, target)
    placed: list[tuple[str, str | None]] = []  # (target, hard link to its old file or None)
    backups: list[str] = []
    path = None  # the output being opened, closed or placed

    def place() -> None:
        nonlocal path
        for path, fh, _, _ in opened:
            fh.close()
        for path, _, tmp, target in opened:
            if tmp:
                backup = f"{target}.{os.urandom(4).hex()}.tmp"
                try:
                    os.link(target, backup)
                    backups.append(backup)
                except OSError:  # a new output, or a file system without hard links
                    backup = None
                os.replace(tmp, target)
                placed.append((target, backup))
        path = None

    try:
        for path in filter(None, paths):
            target = os.path.realpath(path)
            tmp = None if _in_place(target) else f"{target}.{os.urandom(4).hex()}.tmp"
            fh = open(tmp or target, "x" if tmp else "w", encoding="utf-8")
            opened.append((path, fh, tmp, target))
        path = None
        writers = iter([_writer(p, fh) for p, fh, _, _ in opened])
        yield [next(writers) if p else None for p in paths], place
    except BaseException as exc:
        for _, fh, _, _ in opened:
            with contextlib.suppress(OSError):
                fh.close()
        for target, backup in placed:
            with contextlib.suppress(OSError):
                if backup:
                    os.replace(backup, target)
                else:
                    os.remove(target)
        for leftover in [tmp for _, _, tmp, _ in opened if tmp] + backups:
            with contextlib.suppress(OSError):
                os.remove(leftover)
        if isinstance(exc, OSError) and path is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
    for backup in backups:
        with contextlib.suppress(OSError):
            os.remove(backup)


@contextlib.contextmanager
def _spool(path: str | None) -> Iterator[tuple[TextIO, Callable[[str], None]]]:
    """A read-write file for the report's entries that leaves no name behind,
    and its _writer: for a report file, a temp file beside its target, unlinked
    once open, whose write errors name the report's path; else a temp file in
    the temp directory, whose write errors name that directory."""
    target = path and os.path.realpath(path)
    if not target or _in_place(target):
        import tempfile  # only for a report to stdout or to a device
        spool, path = tempfile.TemporaryFile("w+", encoding="utf-8"), tempfile.gettempdir()
    else:
        spool = open(tmp := f"{target}.{os.urandom(4).hex()}.tmp", "x+", encoding="utf-8")
        os.remove(tmp)
    try:
        yield spool, _writer(path, spool)
    finally:
        with contextlib.suppress(OSError):  # a failed write's bytes fail the close's flush again
            spool.close()


def _writer(path: str, file: TextIO) -> Callable[[str], None]:
    """Write text through to ``file``, so that none is left for a close to
    fail on, raising an OSError again naming ``path``."""
    def write(text: str) -> None:
        try:
            file.write(text)
            file.flush()
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from exc
    return write


def _json(obj) -> str:
    """The CLI's JSON layout, for the report's head and tail and the dumps;
    a report entry, written once a session, has its own f-string."""
    return json.dumps(obj, indent=2, sort_keys=True)


def _finish(config: RunConfig, results: Iterable[SessionResult]) -> int:
    """Consume the session stream once: write each session's trace lines
    and report entry as it passes, and keep only the report's totals."""
    capacity = f"{config.n - 2}/{config.n}"
    with _staged(config.trace, config.report) as ((trace, report), place), \
            _spool(config.report) as (spool, spooled):
        def written() -> Iterator[tuple[SessionResult, str]]:
            for i, result in enumerate(results):
                if trace and (lines := trace_lines(result)):
                    trace("\n".join(lines) + "\n")
                scenario = result.scenario.value
                spooled(f"{',' if i else ''}\n    {_entry(result, scenario)}")
                yield result, scenario

        total, completed, recovered, histogram = _totals(written())
        text = _json({
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
            "config": config.echo(),
            "schedule_capacity": capacity,
            "results": [],
            "scenario_histogram": histogram,
            "recovered_count_total": recovered,
            "complete_rate": completed / total,
            "all_complete": completed == total,
        })
        head, _, tail = text.partition('"results": []')

        def copy_out(write: Callable[[str], None]) -> None:
            write(head + '"results": [')
            spool.seek(0)
            while chunk := spool.read(1 << 13):  # small reads, so copying out sets no memory peak
                write(chunk)
            write("\n  ]" + tail + "\n")

        if report:
            copy_out(report)
        place()  # stdout is written only once every output is placed
        if report:
            print(f"{config.mode}: {completed}/{total} sessions complete, "
                  f"schedule capacity {capacity}, report written to {config.report}")
        else:
            copy_out(sys.stdout.write)
        sys.stdout.flush()  # so that a failing stdout fails here, in the block
    return 0 if completed == total else 1


def _sessions(config: RunConfig) -> Iterator[SessionResult]:
    """Each session's results in turn, its data drawn from one shared RNG,
    so that session idx gets what a draw of idx + 1 sessions gives it."""
    rounds = build_schedule(config.scheme, config.n).rounds
    data_rng, pattern_rng = random.Random(config.seed), random.Random(config.seed)
    for idx in range(config.sessions):
        data = generate_source_data(config.n, rounds, 1, data_rng, config.field)[0]
        if config.mode == "sweep":
            yield from sweep_failures(config.scheme, config.n, config.field, session_index=idx,
                                      data=data).results
            continue
        failed = config.fail or ()
        if config.fail_random is not None:
            failed = pattern_rng.sample(range(1, config.n + 1), config.fail_random)
        yield run_session(config.scheme, config.n, config.field, failed,
                          session_index=idx, data=data)


def _cmd_dump_schedule(config: RunConfig) -> int:
    schedule = build_schedule(config.scheme, config.n)
    labels = schedule_labels(schedule)
    if config.as_json:
        print(_json({"scheme": config.scheme.value, "n": config.n, "rounds": schedule.rounds,
                     "matrix": labels}))
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
        print(_json({"width": rows.width, "field": config.field_echo(), "row_sum": sum_hex,
                     "row_weighted": weighted_hex}))
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
    dumps = {"dump-schedule": _cmd_dump_schedule, "dump-rows": _cmd_dump_rows}
    try:
        if config.mode in dumps:
            return dumps[config.mode](config)
        return _finish(config, _sessions(config))
    except OSError as exc:
        target = exc.filename or "standard output"
        print(f"nps2: error: cannot write {target}: {exc.strerror}", file=sys.stderr)
        if exc.filename is None:  # exit would flush stdout's unwritten bytes again, and fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 2


# the stop signals main routes to _interrupt, each where its handler is this default
_STOPS = {signal.SIGINT: signal.default_int_handler, signal.SIGTERM: signal.SIG_DFL,
          signal.SIGHUP: signal.SIG_DFL}


def _interrupt(signum, frame):
    """Ignore every stop signal routed here, so that a second one cannot break the
    cleanup that the KeyboardInterrupt raised for this one starts."""
    for other in _STOPS:
        if signal.getsignal(other) is _interrupt:
            signal.signal(other, signal.SIG_IGN)
    raise KeyboardInterrupt(signum)


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI and exit with its status. SIGINT, SIGTERM and SIGHUP, where Python
    keeps its default action for them, raise KeyboardInterrupt inside the run, so that
    its outputs are cleaned up, and any later one is ignored; the run then exits 128 +
    the first signum after one line on stderr. The handlers are set only on the main
    thread and put back on the way out."""
    old, stopped = {}, None
    with contextlib.suppress(ValueError):  # only the main thread may set a handler
        for signum, default in _STOPS.items():
            if signal.getsignal(signum) is default:  # an ignored signal stays ignored
                old[signum] = signal.signal(signum, _interrupt)
    try:
        status = run(parse_config(argv))
    except KeyboardInterrupt as exc:
        stopped = signal.Signals(exc.args[0] if exc.args else signal.SIGINT)
        status = 128 + stopped
    finally:
        for signum, handler in old.items():
            signal.signal(signum, handler)
    if stopped is not None:
        print(f"nps2: interrupted by {stopped.name}", file=sys.stderr)
    sys.exit(status)


if __name__ == "__main__":
    main()
