"""Discrete-round session engine with fail-stop path erasures.

Each round, every active path delivers one packet: working slots carry a
source symbol, the two protection slots carry the coded pair formed by an
ideal data distributor over that round's working symbols. A failed path
delivers nothing for the whole session. The collector classifies every
round by which slot kinds were lost and solves for the erased symbols.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from enum import Enum
from functools import cache, cached_property
from typing import Iterable, Mapping, Sequence

from .codec import (
    CoefficientRows,
    Row,
    UnrecoverableError,
    build_rows,
    encode_pair,
    residualize,
    solve_one,
    solve_two,
)
from .field import FieldElement, FieldSpec, _check_int
from .schemes import (
    Scheme,
    SessionSchedule,
    SlotKind,
    _unit_rounds,
    build_schedule,
    protected_slots,
)

SessionData = Sequence[Sequence[FieldElement]]  # [source-1][data_index-1]

_SUM, _WEIGHTED = Row.SUM, Row.WEIGHTED  # class reads are slow


class Scenario(Enum):
    """Per-round loss classification by the failed paths' slot kinds."""

    NO_FAILURE = "no-failure"
    PROTECTION_ONLY = "protection-only"
    SINGLE_WORKING = "single-working"
    DOUBLE_WORKING = "double-working"
    EXCESS_LOSS = "excess-loss"


_DESCENDING = tuple(reversed(Scenario))  # most severe first, built once: reversed() rebuilds it


class Outcome(Enum):
    COMPLETE = "complete"
    UNRECOVERABLE = "unrecoverable"


class FailurePattern(tuple):
    """Paths that deliver nothing for an entire session (fail-stop): a tuple of
    distinct path labels, ascending, equal to the plain tuple of its paths."""

    __slots__ = ()

    def __new__(cls, failed_paths: Iterable[int] = ()):
        if type(failed_paths) is cls:  # checked when it was made
            return failed_paths
        paths = set(failed_paths)
        for p in paths:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError(f"path labels are positive integers, got {p!r}")
        return super().__new__(cls, sorted(paths))

    @property
    def failed_paths(self) -> FailurePattern:
        return self

    def __repr__(self) -> str:
        return f"FailurePattern({list(self)})"


NO_FAILURES = FailurePattern()


@dataclass
class SessionResult:
    """What the collector computed for one session, as flat tuples, and a
    reference to the session's frozen source rows."""

    schedule: SessionSchedule
    session_index: int
    failure: FailurePattern
    data: tuple[tuple[FieldElement, ...], ...] = dc_field(repr=False)
    # the solved symbols, in round then rank order
    solved: tuple[FieldElement, ...]
    outcome: Outcome
    # the Scenario of each distinct protection pair, in the order of first use
    scenarios: tuple[Scenario, ...]
    unrecoverable_rounds: tuple[tuple[int, tuple[int, ...]], ...] = ()
    # each round's arrived sum then weighted protection payload; None if lost
    received: tuple[FieldElement | None, ...] = dc_field(default=(), repr=False)

    @cached_property
    def recovered(self) -> dict[tuple[int, int], FieldElement]:
        """The solved symbols by (source, data_index), built on first read:
        ``solved`` zipped with the slots on failed paths of each round not
        in ``unrecoverable_rounds``."""
        failed = self.failure
        lost = {r for r, _ in self.unrecoverable_rounds}
        erased = ((p, r - carried[p]) for r, _, working, carried in _unit_rounds(self.schedule)
                  if r not in lost for p in working if p in failed)
        return dict(zip(erased, self.solved))

    @cached_property
    def delivered(self) -> dict[tuple[int, int], FieldElement]:
        """Every delivered symbol by (source, data_index), built on first read
        and this result's own after that: per round, direct then recovered."""
        data, failed, recovered, delivered = self.data, set(self.failure), self.recovered, {}
        for r, _, working, carried in _unit_rounds(self.schedule):
            slots = [(p, r - carried[p]) for p in working]
            delivered.update((s, data[s[0] - 1][s[1] - 1]) for s in slots if s[0] not in failed)
            delivered.update((s, recovered[s]) for s in slots if s in recovered)
        return delivered

    @property
    def recovered_count(self) -> int:
        return len(self.solved)

    @property
    def complete(self) -> bool:
        return self.outcome is Outcome.COMPLETE

    @property
    def normalized_capacity(self) -> Fraction:
        """The share of the n paths that stayed active for the session."""
        from fractions import Fraction  # loaded on first use: the run path never needs it
        n = self.schedule.n
        return Fraction(n - len(self.failure), n)

    @cached_property
    def round_scenarios(self) -> dict[int, Scenario]:
        """Each round's scenario, read off ``scenarios`` by its protection
        pair on first read, like delivered."""
        pairs = self.schedule.pairs
        by_pair = dict(zip(dict.fromkeys(pairs), self.scenarios))
        return {r: by_pair[pair] for r, pair in enumerate(pairs, 1)}

    @property
    def scenario(self) -> Scenario:
        """Highest-severity round scenario, severity being declaration order
        in ``Scenario``; the session's summary tag."""
        return next(s for s in _DESCENDING if s in self.scenarios)

    @property
    def detail(self) -> str | None:
        if not self.unrecoverable_rounds:
            return None
        return "; ".join(
            f"round {r}: failed paths {sorted(paths)}" for r, paths in self.unrecoverable_rounds)


def generate_source_data(
    n: int,
    rounds_per_session: int,
    sessions: int,
    seed: int | random.Random,
    field: FieldSpec,
) -> list[list[list[FieldElement]]]:
    """Deterministic symbol tensor indexed [session][source-1][data_index-1],
    filled in that order with the draws of ``rng.randrange(field.q)``, where
    rng is ``seed`` itself if it is a ``random.Random``, whose stream the
    draw continues, else ``random.Random(seed)``. Each count is an int, at least 0,
    and ``field`` a FieldSpec."""
    for name, count in (("n", n), ("rounds_per_session", rounds_per_session),
                        ("sessions", sessions)):
        _check_int(name, count)
        if count < 0:
            raise ValueError(f"{name} must be nonnegative, got {count}")
    if not isinstance(field, FieldSpec):
        raise TypeError(f"field must be a FieldSpec, got {field!r}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    q, bits, getrandbits, element = field.q, field.m + 1, rng.getrandbits, field.element

    def row() -> list[FieldElement]:
        symbols = []
        for _ in range(rounds_per_session):
            r = getrandbits(bits)  # randrange(2^m) draws m + 1 bits until one is below 2^m
            while r >= q:
                r = getrandbits(bits)
            symbols.append(element(r))
        return symbols

    return [[row() for _ in range(n)] for _ in range(sessions)]


def _pattern(failure, n):
    """``FailurePattern(failure)``; ValueError unless its paths are at most ``n``."""
    pattern = FailurePattern(failure)
    if pattern and pattern[-1] > n:  # name the smallest path above n
        raise ValueError(f"failed path {next(p for p in pattern if p > n)} exceeds path count {n}")
    return pattern


def _source_rows(data, schedule):
    """``data`` frozen into tuple rows (a tuple of tuple rows, or a sweep's shared rows,
    as it is); ValueError unless it has a row per path, as long as the units it sends."""
    if not (type(data) in (tuple, _SweepRows) and all(type(row) is tuple for row in data)):
        data = tuple([*map(tuple, data)])  # from a list: a map has no length hint
    if len(data) != schedule.n or any(map(int.__gt__, schedule.units, map(len, data))):
        raise ValueError(f"data must be {schedule.n} rows at least {list(schedule.units)} long, "
                         f"got {list(map(len, data))}")
    return data


def transmit_round(
    schedule: SessionSchedule,
    round_index: int,
    data: SessionData,
    failure: Iterable[int],
    rows: CoefficientRows,
) -> dict[int, FieldElement]:
    """Payloads of one round's surviving packets by path, ascending, under
    ``FailurePattern(failure)``, under run_session's rules for ``failure`` and
    ``data``. The distributor is an ideal oracle over all sources' data, so the
    protection payloads exist even when some sources' own paths failed."""
    failure, data = _pattern(failure, schedule.n), _source_rows(data, schedule)
    sent = {p: data[p - 1][d - 1] for p, d in protected_slots(schedule, round_index)}
    sent.update(zip(schedule.pairs[round_index - 1], encode_pair(list(sent.values()), rows)))
    return {p: sent[p] for p in range(1, schedule.n + 1) if p not in failure}


@dataclass
class RoundRecovery:
    scenario: Scenario
    recovered: tuple[tuple[int, int], ...]  # the solved slots, in rank order
    values: tuple[FieldElement, ...]  # the recovered slots' symbols
    lost: tuple[int, ...]  # failed working paths left unsolved, in rank order
    delivered: dict[tuple[int, int], FieldElement]  # per slot: direct, then recovered


def _round_plan(schedule, round_index, failed):
    """The one case analysis of a round under the ascending ``failed`` paths, each
    at most n, a function of its protection pair alone: its Scenario, the ascending
    ranks of its failed working slots, and whether each carrier lives."""
    p_sum, p_wtd = schedule.pairs[round_index - 1]
    # a round's working slots are its other paths in path order: p's rank counts those below
    missing = [p - 1 - (p_sum < p) - (p_wtd < p) for p in failed if p != p_sum and p != p_wtd]
    alive = p_sum not in failed, p_wtd not in failed
    if len(missing) > sum(alive):
        scenario = Scenario.EXCESS_LOSS
    elif missing:
        scenario = Scenario.SINGLE_WORKING if len(missing) == 1 else Scenario.DOUBLE_WORKING
    else:
        scenario = Scenario.NO_FAILURE if all(alive) else Scenario.PROTECTION_ONLY
    return scenario, missing, alive


def _decode(plan, working, received, known, rows):
    """(The missing ranks' symbols, lost paths) of a round with this ``plan``
    and ``working`` paths, from the ``received`` (sum, weighted) symbols, None
    where lost, and the surviving (rank, symbol) items ``known``."""
    scenario, missing, _ = plan
    if missing and scenario is not Scenario.EXCESS_LOSS:
        y_sum, y_weighted = received
        rs = None if y_sum is None else residualize(y_sum, known, _SUM, rows)
        rw = None if y_weighted is None else residualize(y_weighted, known, _WEIGHTED, rows)
        try:
            values = ((solve_one(missing[0], rs, rw, rows),) if len(missing) == 1
                      else solve_two(missing, rs, rw, rows))
        except UnrecoverableError:  # sum-only rows cannot tell two unknowns apart
            pass
        else:
            return values, ()
    return (), tuple(working[t] for t in missing)


def recover_round(
    survivors: Mapping[int, FieldElement],
    schedule: SessionSchedule,
    round_index: int,
    rows: CoefficientRows,
) -> RoundRecovery:
    """Collector-side recovery of one round from ``survivors``, the path -> payload
    map of the packets that arrived, as transmit_round returns it: a path of the
    schedule with no packet in ``survivors`` failed.

    Failed protection slots need no action; each failed working slot adds
    one unknown, solved from the residuals of the surviving protection
    rows. When they are too few (or, sum-only, two unknowns share a row),
    nothing is solved: ``lost`` names the failed working paths and
    ``delivered`` holds only the symbols that arrived directly.
    """
    prot = protected_slots(schedule, round_index)
    failed = [p for p in range(1, schedule.n + 1) if p not in survivors]
    plan = scenario, missing, _ = _round_plan(schedule, round_index, failed)
    received = [survivors.get(p) for p in schedule.pairs[round_index - 1]]
    known = [(t, survivors[p]) for t, (p, _) in enumerate(prot) if p in survivors]
    values, lost = _decode(plan, schedule.working[round_index - 1], received, known, rows)
    solved = tuple(prot[t] for t in missing) if values else ()
    delivered = {s: survivors[s[0]] for s in prot if s[0] in survivors}
    delivered.update(zip(solved, values))
    return RoundRecovery(scenario, solved, values, lost, delivered)


def _gather(data, schedule):
    """Each round's (r, pair, working paths, their payloads in rank order, an
    iterator of their (rank, payload) items), gathered as the round is drawn."""
    by_path = (None, *data)
    for r, pair, working, carried in _unit_rounds(schedule):
        i = r - 1  # a working path p's unit, from 0, is i - carried[p]
        payloads = [by_path[p][i - carried[p]] for p in working]
        yield r, pair, working, payloads, enumerate(payloads)


class _SweepRows(tuple):
    """A sweep's frozen source rows, equal to the tuple of its tuple rows, with its
    one ``schedule`` and all of that schedule's ``_gather`` rounds, items as tuples."""

    def __new__(cls, data: SessionData, schedule: SessionSchedule):
        rows = super().__new__(cls, _source_rows(data, schedule))
        rows.schedule = schedule
        rows.rounds = tuple([(*head, tuple(items)) for *head, items in _gather(rows, schedule)])
        return rows


def run_session(
    scheme: Scheme,
    n: int,
    field: FieldSpec,
    failure: Iterable[int] = NO_FAILURES,
    seed: int = 0,
    session_index: int = 0,
    *,
    sum_only: bool = False,
    data: SessionData | None = None,
) -> SessionResult:
    """Transmit and recover one session under ``FailurePattern(failure)``, whose
    paths must be at most n. The result keeps ``data``, frozen into tuple rows (a
    tuple of tuple rows is not copied, nor are a sweep's shared rows, whose rounds
    it reads when they are of its own schedule), the solved symbols and the arrived
    protection payloads as two flat tuples, the lost rounds and each protection
    pair's scenario, from one plan per pair; the rest is derived on read. The outcome
    is Complete exactly when no round is lost and every solved symbol equals its source's."""
    schedule = build_schedule(scheme, n, session_index)
    failure = _pattern(failure, n)
    rows = build_rows(n - 2, field, sum_only=sum_only)
    if data is None:
        data = generate_source_data(n, schedule.rounds, session_index + 1, seed,
                                    field)[session_index]
    if type(data) is _SweepRows and data.schedule is schedule:
        rounds = data.rounds
    else:
        data = _source_rows(data, schedule)
        rounds = _gather(data, schedule)

    solved: list[FieldElement] = []
    received: list[FieldElement | None] = []
    unrecoverable: list[tuple[int, tuple[int, ...]]] = []
    exact = True
    plans = {}  # by protection pair: one per NPS2-I session, one a round for NPS2-II

    for r, pair, working, payloads, items in rounds:
        y_sum, y_weighted = encode_pair(payloads, rows)
        if (plan := plans.get(pair)) is None:
            plan = plans[pair] = _round_plan(schedule, r, failure)
        _, missing, (sum_alive, weighted_alive) = plan
        arrived = (y_sum if sum_alive else None, y_weighted if weighted_alive else None)
        received += arrived
        if missing:
            known = list(items)  # a fresh list each round: the kept rounds stay as they are
            for t in reversed(missing):
                del known[t]
            values, lost = _decode(plan, working, arrived, known, rows)
            solved += values
            for t, v in zip(missing, values):
                exact = exact and v.value == payloads[t].value
            if lost:
                unrecoverable.append((r, lost))

    return SessionResult(
        schedule=schedule,
        session_index=session_index,
        failure=failure,
        data=data,
        solved=tuple(solved),
        outcome=Outcome.COMPLETE if exact and not unrecoverable else Outcome.UNRECOVERABLE,
        scenarios=tuple([plan[0] for plan in plans.values()]),  # sized, as data is
        unrecoverable_rounds=tuple(unrecoverable),
        received=tuple(received),
    )


def all_patterns(n: int) -> list[FailurePattern]:
    """The empty pattern, all singles, and all pairs, in deterministic order."""
    paths = range(1, n + 1)
    return [NO_FAILURES, *(FailurePattern({p}) for p in paths),
            *(FailurePattern({a, b}) for a in paths for b in range(a + 1, n + 1))]


def _totals(sessions: Iterable[tuple[SessionResult, str]]) -> tuple[int, int, int, dict[str, int]]:
    """The session count, complete count, recovered total and sessions per summary
    scenario (in order of first use) of (result, scenario value) pairs, in one pass."""
    total = completed = recovered = 0
    histogram: dict[str, int] = {}
    for result, scenario in sessions:
        total += 1
        completed += result.complete
        recovered += len(result.solved)
        histogram[scenario] = histogram.get(scenario, 0) + 1
    return total, completed, recovered, histogram


@dataclass
class SweepReport:
    """A batch of sessions; every total is folded from ``results`` on each read."""

    results: tuple[SessionResult, ...]

    def _fold(self) -> tuple[int, int, int, dict[str, int]]:
        return _totals((r, r.scenario.value) for r in self.results)

    @property
    def session_count(self) -> int:
        return self._fold()[0]

    @property
    def complete_count(self) -> int:
        return self._fold()[1]

    @property
    def complete_rate(self) -> float:
        total, completed, _, _ = self._fold()
        return completed / total

    @property
    def scenario_histogram(self) -> dict[str, int]:
        """Sessions per summary scenario, each session counted once."""
        return self._fold()[3]

    @property
    def recovered_total(self) -> int:
        return self._fold()[2]


def sweep_failures(
    scheme: Scheme,
    n: int,
    field: FieldSpec,
    seed: int = 0,
    session_index: int = 0,
    *,
    sum_only: bool = False,
    data: SessionData | None = None,
) -> SweepReport:
    """Run one session per failure pattern of size 0, 1, and 2, all on one
    data tensor: ``data`` if given, else the one run_session would draw,
    frozen once into rows that every result holds and that gather each
    round's working payloads of the sweep's one schedule before its first session."""
    schedule = build_schedule(scheme, n, session_index)
    if data is None:
        data = generate_source_data(n, schedule.rounds, session_index + 1, seed,
                                    field)[session_index]
    data = _SweepRows(data, schedule)
    results = tuple(
        run_session(scheme, n, field, pattern, seed=seed, session_index=session_index,
                    sum_only=sum_only, data=data)
        for pattern in all_patterns(n)
    )
    return SweepReport(results)


@cache
def _trace_forms(n: int, width: int) -> tuple:
    """The trace line heads by SlotKind and path and the sender texts by path,
    entry 0 of each unused, the round texts in round order, and the hex digits
    of a payload's high and low byte: kept per (n, hex width) alone."""
    paths = range(n + 1)
    return (tuple(tuple(f'{{"kind":"{kind.value}","path":{p},"payload_hex":"' for p in paths)
                  for kind in SlotKind),
            tuple(f'{p},"session":' for p in paths),
            tuple(f'","round":{r},"sender":' for r in range(1, n + 1)),
            [f"{v:0{width - 2}x}" for v in range(256)] if width > 2 else [""],
            [f"{v:0{min(width, 2)}x}" for v in range(256)])


def trace_lines(result: SessionResult) -> list[str]:
    """The ``--trace`` JSON lines of a session's surviving packets in (round,
    path) order: each round walks the live paths, a carrier with its payload from
    ``received``, any other path with unit r - carried[p] of its source row. Each
    is ``json.dumps`` with ``sort_keys=True, separators=(",", ":")`` of the packet's
    session, round, sender, path (sender i owns path i), slot kind and payload_hex,
    zero-padded to the field's hex width, put together from _trace_forms' pieces."""
    data, schedule = result.data, result.schedule
    p = schedule.working[0][0]  # its first unit, sent in round 1: rows may be short
    heads, senders, rounds, high, low = _trace_forms(schedule.n, (data[p - 1][0].spec.m + 3) // 4)
    session = f"{result.session_index}}}"
    tails = [f"{sender}{session}" for sender in senders]
    live = [p for p in range(1, schedule.n + 1) if p not in result.failure]
    rows, it, lines = (None, *data), iter(result.received), []  # rows by path from 1
    add = lines.append
    for (r, (p_sum, p_wtd), _, carried), round_text, y_sum, y_weighted in zip(
            _unit_rounds(schedule), rounds, it, it):
        for p in live:
            k, y = ((1, y_sum) if p == p_sum else (2, y_weighted) if p == p_wtd
                    else (0, rows[p][r - 1 - carried[p]]))
            v = y.value
            add(f"{heads[k][p]}{high[v >> 8]}{low[v & 255]}{round_text}{tails[p]}")
    return lines
