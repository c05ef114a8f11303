"""The mutation gate: the suite must keep killing the defects it has been shown
to kill.

Each mutant names a file, a text in it, the text that replaces it, why the
change is a defect, and the smallest set of tests that kills it. The runner
first checks that every mutant's old text occurs exactly once, so a refactor
that moves the code fails the gate loudly, and that every named test passes
on an unmutated copy. Then, for each mutant, it copies src/, tests/ and
README.md to a temporary directory, applies the mutant there and runs its
tests, which must fail. The tests run as tier-1 runs them: ``python -X dev
-W error -m pytest -W error``.

A mutant is never dropped to make the gate pass. One that a refactor makes
equivalent, or whose code is gone, is replaced by one that plants the same
defect in the new code.

Run from anywhere, optionally naming mutants to run:

    python tests/mutants.py [NAME ...]

It exits 0 when every mutant is killed, 1 when one survives and 2 when the
mutant table or the unmutated tests are at fault.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # must occur exactly once
    new: str
    why: str
    kills: tuple[str, ...]  # test ids, relative to the repository root


MUTANTS = (
    Mutant(
        "solve-two-reversed", "src/nps2/codec.py",
        "return field.element(rs ^ x2), field.element(x2)",
        "return field.element(x2), field.element(rs ^ x2)",
        "a 2x2 solve returns its answers in the wrong rank order",
        ("tests/test_acceptance.py::test_criterion_9_linearity_certificate",),
    ),
    Mutant(
        "lost-cut-to-first", "src/nps2/simnet.py",
        "return (), tuple(working[t] for t in missing)",
        "return (), tuple(working[t] for t in missing[:1])",
        "an unrecoverable round names only its first lost path",
        ("tests/test_simnet.py::test_recover_round_excess_loss_keeps_direct_survivors",),
    ),
    Mutant(
        "rank-rule-without-weighted", "src/nps2/simnet.py",
        "missing = [p - 1 - (p_sum < p) - (p_wtd < p) for p in failed",
        "missing = [p - 1 - (p_sum < p) for p in failed",
        "a failed working path's rank ignores the weighted carrier below it",
        ("tests/test_acceptance.py::test_criterion_9_linearity_certificate",),
    ),
    Mutant(
        "carried-counts-sum-carrier-only", "src/nps2/schemes.py",
        "        for p in pair:\n            carried[p] += 1",
        "        for p in pair[:1]:\n            carried[p] += 1",
        "the data-unit rule forgets the rounds a path carried the weighted symbol",
        ("tests/test_schemes.py::test_protected_slots_nps2ii_n4",),
    ),
    Mutant(
        "session-gathers-unit-r", "src/nps2/simnet.py",
        "payloads = [by_path[p][i - carried[p]] for p in working]",
        "payloads = [by_path[p][i] for p in working]",
        "run_session sends unit r on every working path, ignoring its carried rounds",
        ("tests/test_acceptance.py::test_criterion_9_linearity_certificate",),
    ),
    Mutant(
        "trace-ignores-carried", "src/nps2/simnet.py",
        "else (0, rows[p][r - 1 - carried[p]]))",
        "else (0, rows[p][r - 1]))",
        "a traced working line shows unit r, not unit r - carried[p]",
        ("tests/test_simnet.py::test_trace_golden_file",),
    ),
    Mutant(
        "trace-walks-failed-carriers", "src/nps2/simnet.py",
        "        for p in live:\n",
        "        for p in sorted({*live, p_sum, p_wtd}):\n",
        "a failed carrier gets a trace line although it delivered nothing",
        ("tests/test_simnet.py::test_trace_golden_file",),
    ),
    Mutant(
        "trace-carrier-kinds-swapped", "src/nps2/simnet.py",
        "k, y = ((1, y_sum) if p == p_sum else (2, y_weighted)",
        "k, y = ((2, y_sum) if p == p_sum else (1, y_weighted)",
        "the sum carrier's line is labelled weighted, and the other way round",
        ("tests/test_simnet.py::test_trace_golden_file",),
    ),
    Mutant(
        "failure-pattern-keeps-duplicates", "src/nps2/simnet.py",
        "return super().__new__(cls, sorted(paths))",
        "return super().__new__(cls, sorted(failed_paths))",
        "a pattern keeps a path given twice, so it no longer equals its paths' tuple",
        ("tests/test_simnet.py::test_failure_pattern_is_the_tuple_of_its_paths",),
    ),
    Mutant(
        "round-delivers-no-recovered", "src/nps2/simnet.py",
        "delivered.update(zip(solved, values))",
        "delivered.update(())",
        "a round's delivered map leaves out the symbols it recovered",
        ("tests/test_simnet.py::test_round_recovery_keeps_only_what_recover_round_computed",),
    ),
    Mutant(
        "stdout-before-placement", "src/nps2/cli.py",
        "        place()  # stdout is written only once every output is placed\n"
        "        if report:\n"
        "            print(f\"{config.mode}: {completed}/{total} sessions complete, \"\n"
        "                  f\"schedule capacity {capacity}, report written to {config.report}\")\n"
        "        else:\n"
        "            copy_out(sys.stdout.write)\n",
        "        if report:\n"
        "            print(f\"{config.mode}: {completed}/{total} sessions complete, \"\n"
        "                  f\"schedule capacity {capacity}, report written to {config.report}\")\n"
        "        else:\n"
        "            copy_out(sys.stdout.write)\n"
        "        place()\n",
        "stdout gets the summary line or the report before the outputs are placed,"
        " so a run whose placement fails has already printed them",
        ("tests/test_cli.py::test_failed_placement_prints_nothing",),
    ),
    Mutant(
        "exit-status-always-0", "src/nps2/cli.py",
        "return 0 if completed == total else 1",
        "return 0",
        "a run with an unrecoverable session exits 0",
        ("tests/test_acceptance.py::test_criterion_8_negative_path",),
    ),
    Mutant(
        "staged-drops-old-output", "src/nps2/cli.py",
        "                    os.replace(backup, target)\n",
        "                    os.remove(target)\n",
        "a failed placement deletes an earlier output instead of putting its old file back",
        ("tests/test_cli.py::test_failed_placement_puts_the_old_outputs_back",),
    ),
    Mutant(
        "field-accepts-nonprimitive", "src/nps2/field.py",
        "        if log[1]:  # a later power overwrote g^0 = 1",
        "        if False:  # a later power overwrote g^0 = 1",
        "a generator that is not primitive is accepted",
        ("tests/test_field.py::test_non_primitive_generator_rejected",),
    ),
    Mutant(
        "solve-two-nonlinear-on-multibit", "src/nps2/codec.py",
        "return field.element(rs ^ x2), field.element(x2)",
        "x2 ^= x2 & (x2 - 1) != 0\n    return field.element(rs ^ x2), field.element(x2)",
        "a 2x2 solve is exact on symbols of at most one set bit, which is all that"
        " the bit-basis tensors of acceptance criterion 9 send, and wrong on others:"
        " only the linearity premise can show it",
        ("tests/test_simnet_properties.py::test_decode_is_linear_over_gf2",),
    ),
    Mutant(
        "sweep-rounds-ignore-carried", "src/nps2/simnet.py",
        "(*head, tuple(items)) for *head, items in _gather(rows, schedule)])",
        "(r, pair, working, (ps := [rows[p - 1][r - 1] for p in working]),"
        " tuple(enumerate(ps))) for r, pair, working, _ in _unit_rounds(schedule)])",
        "a sweep's shared rounds send unit r on every working path, ignoring its carried"
        " rounds, while a lone session still gathers them right",
        ("tests/test_simnet.py::test_sweep_sessions_equal_lone_sessions[nps2-ii]",),
    ),
    Mutant(
        "solve-two-unsorted", "src/nps2/codec.py",
        "        t1, t2 = t2, t1\n",
        "        pass\n",
        "solve_two takes two distinct in-range ranks in descending order without"
        " sorting them, so it answers in the wrong rank order",
        ("tests/test_readme.py::test_readme_python_block_runs[block2]",),
    ),
    Mutant(
        "solve-two-range-inclusive", "src/nps2/codec.py",
        "if not 0 <= t < rows.width:",
        "if not 0 <= t <= rows.width:",
        "solve_two takes a rank equal to the width, one past the last protected slot",
        ("tests/test_codec.py::test_solver_argument_validation",),
    ),
    Mutant(
        "solve-one-range-inclusive", "src/nps2/codec.py",
        "if not 0 <= rank < rows.width:",
        "if not 0 <= rank <= rows.width:",
        "solve_one takes a rank equal to the width, one past the last protected slot",
        ("tests/test_codec.py::test_solver_argument_validation",),
    ),
    Mutant(
        "output-may-replace-config", "src/nps2/cli.py",
        ', ("--config", args.config)) if path]',
        ") if path]",
        "a trace or report naming the config file is written over it",
        ("tests/test_cli_properties.py::test_trace_and_report_naming_one_file_exit_2",),
    ),
    Mutant(
        "run-session-trusts-failure-order", "src/nps2/simnet.py",
        "    pattern = FailurePattern(failure)\n",
        "    pattern = failure\n",
        "run_session (and transmit_round) take the failed paths in the order and form given,"
        " so descending or repeated labels solve the wrong slots",
        ("tests/test_simnet_properties.py"
         "::test_every_entry_point_runs_failed_labels_as_their_pattern",),
    ),
    Mutant(
        "element-reads-float-as-int", "src/nps2/field.py",
        "return shared[value]",
        "return shared[int(value)]",
        "element takes a float or a Fraction in the shared range as the int it equals",
        ("tests/test_field.py::test_element_takes_ints_only",),
    ),
    Mutant(
        "sweep-rounds-for-any-schedule", "src/nps2/simnet.py",
        "if type(data) is _SweepRows and data.schedule is schedule:",
        "if type(data) is _SweepRows:",
        "a session on a sweep's rows reads the rounds gathered for the sweep's schedule"
        " under any schedule, so another session index sends the wrong working paths",
        ("tests/test_simnet.py"
         "::test_a_sweeps_rows_under_another_schedule_run_as_a_lone_session[i-session-3]",),
    ),
    Mutant(
        "source-data-takes-negative-counts", "src/nps2/simnet.py",
        "        if count < 0:\n",
        "        if count < -1:\n",
        "generate_source_data draws nothing for a count of -1 instead of refusing it",
        ("tests/test_simnet.py"
         "::test_generate_source_data_refuses_a_count_that_is_no_size[negative-rounds]",),
    ),
    Mutant(
        "collector-infers-failures-among-carriers", "src/nps2/simnet.py",
        "failed = [p for p in range(1, schedule.n + 1) if p not in survivors]",
        "failed = [p for p in schedule.pairs[round_index - 1] if p not in survivors]",
        "recover_round reads a missing packet as a failed path only on the round's carriers,"
        " so a working path whose packet is missing is neither solved nor named lost",
        ("tests/test_simnet.py::test_recover_round_reads_a_missing_packet_as_a_failed_path",),
    ),
    Mutant(
        "transmit-round-skips-bound-check", "src/nps2/simnet.py",
        "failure, data = _pattern(failure, schedule.n), _source_rows(data, schedule)",
        "failure, data = FailurePattern(failure), _source_rows(data, schedule)",
        "transmit_round takes a failed path above n that run_session refuses",
        ("tests/test_simnet.py::test_transmit_round_refuses_a_failed_path_beyond_n",),
    ),
    Mutant(
        "residualize-leaks-attribute-error", "src/nps2/codec.py",
        "    except AttributeError:\n        raise _not_an_element(value) from None",
        "    except TypeError:\n        raise _not_an_element(value) from None",
        "residualize lets an int symbol's AttributeError out instead of naming its type",
        ("tests/test_codec.py::test_a_symbol_that_is_no_element_raises_type_error",),
    ),
    Mutant(
        "sum-only-rows-take-papers-exponents", "src/nps2/codec.py",
        "return (0,) * self.width if self.sum_only else range(self.width)",
        "return range(self.width)",
        "sum-only rows weight rank t by generator^t, as the paper's rows do, so their"
        " weighted symbol is no longer the sum",
        ("tests/test_codec_properties.py::test_sum_only_recovers_single_erasures",),
    ),
    Mutant(
        "residualize-weights-sum-only-rows", "src/nps2/codec.py",
        "weighted = row is _WEIGHTED and not rows.sum_only",
        "weighted = row is _WEIGHTED",
        "residualize strips a known symbol from a sum-only weighted row scaled by"
        " generator^t, where the row's coefficient is generator^0",
        ("tests/test_codec_properties.py::test_sum_only_recovers_single_erasures",),
    ),
    Mutant(
        "rows-take-any-width", "src/nps2/codec.py",
        '_check_int("width", width)',
        "pass",
        "rows take a float or a bool width, and every encode over them then fails",
        ("tests/test_codec.py::test_rows_refuse_an_argument_of_the_wrong_type[float-width]",),
    ),
    Mutant(
        "stop-handlers-never-installed", "src/nps2/cli.py",
        "old[signum] = signal.signal(signum, _interrupt)",
        "old[signum] = signal.getsignal(signum)",
        "SIGTERM ends a run without cleanup, leaving its temp files behind",
        ("tests/test_cli.py"
         "::test_a_signalled_run_exits_128_plus_signum_and_leaves_no_temp_file[SIGTERM-new]",),
    ),
    Mutant(
        "second-stop-signal-armed", "src/nps2/cli.py",
        "            signal.signal(other, signal.SIG_IGN)\n",
        "            pass\n",
        "a second stop signal raises inside the cleanup that the first one started, so the"
        " run exits as the second one stopped it and leaves a temp file behind",
        ("tests/test_cli.py::test_a_second_stop_signal_cannot_break_the_cleanup",),
    ),
    Mutant(
        "element-range-unchecked", "src/nps2/field.py",
        "if value >> spec.m:",
        "if False:",
        "FieldElement holds a value outside its field, which the field's operations and the"
        " solvers read as a wrong symbol",
        ("tests/test_field.py::test_an_element_outside_its_field_cannot_be_built",),
    ),
    Mutant(
        "parse-config-skips-schedule", "src/nps2/cli.py",
        '        build_schedule(cfg["scheme"], n)  # raises unless the scheme runs on n paths\n',
        "",
        "the CLI takes a path count its scheme cannot run on, and fails with a traceback"
        " once the run builds the schedule",
        ("tests/test_cli.py::test_odd_n_rejected",),
    ),
    Mutant(
        "parse-config-schedule-first", "src/nps2/cli.py",
        "        build_rows(max(n - 2, 1), field)  # O(1): caps n at 2^m + 1 before any schedule\n",
        "        build_schedule(cfg[\"scheme\"], n)\n"
        "        build_rows(max(n - 2, 1), field)  # O(1): caps n at 2^m + 1 before any schedule\n",
        "the CLI builds an O(n) schedule before the O(1) check that the field has room for"
        " n, so a huge --n costs memory and time before it exits 2",
        ("tests/test_cli.py::test_a_path_count_beyond_the_field_fails_before_any_schedule",),
    ),
    Mutant(
        "schedule-builds-working-eagerly", "src/nps2/schemes.py",
        "        carries = Counter(chain.from_iterable(self.pairs))  # rounds each path carries in\n",
        "        self.working\n"
        "        carries = Counter(chain.from_iterable(self.pairs))  # rounds each path carries in\n",
        "every schedule builds its O(n^2) working tuples, so checking a large n (dump-rows in"
        " GF(2^16)) costs gigabytes",
        ("tests/test_cli.py::test_checking_n_builds_no_working_paths",),
    ),
)


def check_table(mutants) -> list[str]:
    """The problems of the table: a duplicate name, or an old text that does
    not occur exactly once in its file."""
    problems = []
    names = [m.name for m in mutants]
    problems += [f"mutant name {n!r} is used twice" for n in sorted(set(names))
                 if names.count(n) > 1]
    for m in mutants:
        count = (REPO / m.file).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            problems.append(f"{m.name}: its old text occurs {count} times in {m.file}, not once")
    return problems


def copy_tree(into: Path) -> Path:
    """A copy of src/, tests/ and README.md, whose code blocks tests/test_readme.py
    runs, under ``into``, without bytecode caches."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(REPO / part, into / part, ignore=ignore)
    shutil.copy2(REPO / "README.md", into / "README.md")
    return into


def run_tests(root: Path, tests) -> subprocess.CompletedProcess:
    """The named tests of the copy at ``root``, run against its src/ and
    stopped at the first failure."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest", "-q", "-x", "-W", "error",
         "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, capture_output=True, text=True)


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    mutants = [m for m in MUTANTS if not argv or m.name in argv]
    problems = check_table(MUTANTS)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="nps2-mutants-") as tmp:
        tests = sorted({t for m in mutants for t in m.kills})
        clean = run_tests(copy_tree(Path(tmp) / "clean"), tests)
        if clean.returncode != 0:
            print(f"the unmutated tests do not pass:\n{clean.stdout}{clean.stderr}",
                  file=sys.stderr)
            return 2
        survivors = []
        for i, m in enumerate(mutants):
            root = copy_tree(Path(tmp) / f"m{i}")
            path = root / m.file
            path.write_text(path.read_text(encoding="utf-8").replace(m.old, m.new),
                            encoding="utf-8")
            start = time.perf_counter()
            proc = run_tests(root, m.kills)
            # 1 is pytest's status for failed tests; an error in collection or
            # a missing test id gives another, which kills nothing
            killed = proc.returncode == 1
            print(f"{'killed' if killed else 'SURVIVED'} {m.name} "
                  f"({time.perf_counter() - start:.1f}s): {m.why}")
            if not killed:
                survivors.append(m.name)
                print(proc.stdout[-2000:] + proc.stderr[-2000:])
    if survivors:
        print(f"{len(survivors)} of {len(mutants)} mutants survived: {survivors}")
        return 1
    print(f"all {len(mutants)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
