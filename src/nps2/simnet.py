"""Discrete-round session engine with fail-stop path erasures.

Each round, every active path delivers one packet: working slots carry a
source symbol, the two protection slots carry the coded pair formed by an
ideal data distributor over that round's working symbols. A failed path
delivers nothing for the whole session. The collector classifies every
round by which slot kinds were lost and solves for the erased symbols.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field as dc_field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .codec import (
    CoefficientRows,
    RecoveryProblem,
    Row,
    UnrecoverableError,
    build_rows,
    encode_pair,
    residualize,
    solve_one,
    solve_two,
)
from .field import FieldElement, FieldSpec
from .schemes import (
    Scheme,
    SessionSchedule,
    SlotKind,
    build_schedule,
    protected_slots,
)

SessionData = Sequence[Sequence[FieldElement]]  # [source-1][data_index-1]


class Scenario(Enum):
    """Per-round loss classification by the failed paths' slot kinds."""

    NO_FAILURE = "no-failure"
    PROTECTION_ONLY = "protection-only"
    SINGLE_WORKING = "single-working"
    DOUBLE_WORKING = "double-working"
    EXCESS_LOSS = "excess-loss"

    @property
    def severity(self) -> int:
        return _SEVERITY[self]


_SEVERITY = {s: i for i, s in enumerate(Scenario)}


class Outcome(Enum):
    COMPLETE = "complete"
    UNRECOVERABLE = "unrecoverable"


class RoundUnrecoverableError(UnrecoverableError):
    """A round lost more working symbols than its surviving protection rows
    cover; ``delivered`` holds the working symbols that arrived directly."""

    def __init__(self, message: str, round_index: int, failed_paths: tuple[int, ...],
                 scenario: Scenario, delivered: dict[tuple[int, int], FieldElement]):
        super().__init__(message)
        self.round_index = round_index
        self.failed_paths = failed_paths
        self.scenario = scenario
        self.delivered = delivered


@dataclass(slots=True)
class Packet:
    """One symbol on one path; sender i owns path i."""

    sender_id: int
    payload: FieldElement
    round: int
    session: int
    kind: SlotKind

    def record(self) -> dict:
        return {
            "session": self.session,
            "round": self.round,
            "sender": self.sender_id,
            "path": self.sender_id,
            "kind": self.kind.value,
            "payload_hex": self.payload.hex,
        }


class FailurePattern:
    """Paths that deliver nothing for an entire session (fail-stop)."""

    __slots__ = ("failed_paths",)

    def __init__(self, failed_paths: Iterable[int] = ()):
        paths = frozenset(failed_paths)
        for p in paths:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError(f"path labels are positive integers, got {p!r}")
        self.failed_paths = paths

    def __len__(self) -> int:
        return len(self.failed_paths)

    def __contains__(self, path: int) -> bool:
        return path in self.failed_paths

    def __eq__(self, other) -> bool:
        if not isinstance(other, FailurePattern):
            return NotImplemented
        return self.failed_paths == other.failed_paths

    def __hash__(self) -> int:
        return hash(self.failed_paths)

    def __repr__(self) -> str:
        return f"FailurePattern({sorted(self.failed_paths)})"


NO_FAILURES = FailurePattern()


@dataclass
class SessionResult:
    schedule: SessionSchedule
    failure: FailurePattern
    delivered: dict[tuple[int, int], FieldElement]
    recovered_count: int
    round_scenarios: dict[int, Scenario]
    normalized_capacity: Fraction
    outcome: Outcome
    unrecoverable_rounds: tuple[tuple[int, tuple[int, ...]], ...] = ()
    # per round, the arrived (sum, weighted) protection payloads; None if lost
    protection: tuple[tuple[FieldElement | None, FieldElement | None], ...] = dc_field(
        default=(), repr=False)

    @property
    def packets(self) -> tuple[Packet, ...]:
        """The surviving packets in (round, path) order, rebuilt on each read:
        a working slot on a live path holds its directly delivered symbol,
        since recovery only fills slots of failed paths."""
        failed, session = self.failure.failed_paths, self.schedule.session_index
        packets = []
        for r, (row, (y_sum, y_weighted)) in enumerate(zip(self.schedule.grid, self.protection), 1):
            for path, slot in enumerate(row, 1):
                if path not in failed:
                    kind = slot.kind
                    payload = (self.delivered[path, slot.data_index] if kind is SlotKind.WORKING
                               else y_sum if kind is SlotKind.PROTECTION_SUM else y_weighted)
                    packets.append(Packet(path, payload, r, session, kind))
        return tuple(packets)

    @property
    def complete(self) -> bool:
        return self.outcome is Outcome.COMPLETE

    @property
    def scenario(self) -> Scenario:
        """Highest-severity round scenario; the session's summary tag."""
        return max(self.round_scenarios.values(), key=lambda s: s.severity)

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
    seed: int,
    field: FieldSpec,
    *,
    all_zero: bool = False,
) -> list[list[list[FieldElement]]]:
    """Deterministic symbol tensor indexed [session][source-1][data_index-1]."""
    rng = random.Random(seed)
    draw = (lambda: 0) if all_zero else (lambda: rng.randrange(field.q))
    return [
        [[field.element(draw()) for _ in range(rounds_per_session)] for _ in range(n)]
        for _ in range(sessions)
    ]


def transmit_round(
    schedule: SessionSchedule,
    round_index: int,
    data: SessionData,
    failure: FailurePattern,
    rows: CoefficientRows,
) -> dict[int, FieldElement]:
    """Payloads of one round's surviving packets by path, ascending.

    The distributor is an ideal oracle over all sources' data, so the
    protection payloads exist even when some sources' own paths failed.
    """
    prot = protected_slots(schedule, round_index)
    payloads = [data[p - 1][d - 1] for p, d in prot]
    y_sum, y_weighted = encode_pair(payloads, rows)
    # the working slots are every other path, so the carriers slot in by path
    for path, y in sorted(zip(schedule.layout.pairs[round_index - 1], (y_sum, y_weighted))):
        payloads.insert(path - 1, y)
    survivors = dict(enumerate(payloads, 1))
    for path in failure.failed_paths:
        survivors.pop(path, None)
    return survivors


def _round_case(
    schedule: SessionSchedule, round_index: int, failure: FailurePattern
) -> tuple[Scenario, tuple[int, ...], bool, bool]:
    """The one case analysis of a round, from its layout and the failed
    paths: scenario, ascending ranks of the failed working slots, and
    whether the sum and the weighted row survive."""
    schedule._check_round(round_index)
    p_sum, p_wtd = schedule.layout.pairs[round_index - 1]
    failed = failure.failed_paths
    # every other path is working, so a working path's rank is its position
    # once the two protection carriers are left out
    missing = tuple(sorted(
        p - 1 - (p > p_sum) - (p > p_wtd)
        for p in failed
        if p <= schedule.n and p != p_sum and p != p_wtd
    ))
    sum_alive, weighted_alive = p_sum not in failed, p_wtd not in failed
    if not missing:
        scenario = Scenario.NO_FAILURE if sum_alive and weighted_alive else Scenario.PROTECTION_ONLY
    elif len(missing) > sum_alive + weighted_alive:
        scenario = Scenario.EXCESS_LOSS
    else:
        scenario = Scenario.SINGLE_WORKING if len(missing) == 1 else Scenario.DOUBLE_WORKING
    return scenario, missing, sum_alive, weighted_alive


def classify_round(
    schedule: SessionSchedule, round_index: int, failure: FailurePattern
) -> Scenario:
    """Scenario tag from the failed paths' slot kinds in this round."""
    return _round_case(schedule, round_index, failure)[0]


@dataclass
class RoundRecovery:
    delivered: dict[tuple[int, int], FieldElement]
    scenario: Scenario
    recovered: tuple[tuple[int, int], ...]


def recover_round(
    survivors: Mapping[int, FieldElement],
    schedule: SessionSchedule,
    round_index: int,
    rows: CoefficientRows,
    failure: FailurePattern,
) -> RoundRecovery:
    """Collector-side case analysis for one round, from ``survivors``, the
    path -> payload map transmit_round returned under the same failure.

    Failed protection slots need no action; each failed working slot adds
    one unknown, solved from the residuals of the surviving protection
    rows. Raises RoundUnrecoverableError when the unknowns outnumber the
    usable rows.
    """
    scenario, missing, sum_alive, weighted_alive = _round_case(schedule, round_index, failure)
    prot = protected_slots(schedule, round_index)
    delivered = {s: survivors.get(s.path) for s in prot}
    if not missing:
        return RoundRecovery(delivered=delivered, scenario=scenario, recovered=())
    known = list(enumerate(delivered.values()))  # (rank, payload)
    for t in reversed(missing):  # the failed paths' slots arrived as None
        del known[t], delivered[prot[t]]

    failed_paths = tuple(prot[t].path for t in missing)
    if scenario is Scenario.EXCESS_LOSS:
        raise RoundUnrecoverableError(
            f"round {round_index}: {len(missing)} erased working symbols but only "
            f"{sum_alive + weighted_alive} surviving protection rows",
            round_index,
            failed_paths,
            scenario,
            delivered,
        )
    p_sum, p_wtd = schedule.protection_pair(round_index)
    rs = residualize(survivors[p_sum], known, Row.SUM, rows) if sum_alive else None
    rw = residualize(survivors[p_wtd], known, Row.WEIGHTED, rows) if weighted_alive else None
    problem = RecoveryProblem(missing, rs, rw)
    try:
        values = (solve_one(problem, rows),) if len(missing) == 1 else solve_two(problem, rows)
    except UnrecoverableError as exc:
        raise RoundUnrecoverableError(
            f"round {round_index}: {exc}", round_index, failed_paths, scenario, delivered
        ) from exc

    recovered = tuple(prot[t] for t in missing)
    delivered.update(zip(recovered, values))
    return RoundRecovery(delivered=delivered, scenario=scenario, recovered=recovered)


def run_session(
    scheme: Scheme,
    n: int,
    field: FieldSpec,
    failure: FailurePattern = NO_FAILURES,
    seed: int = 0,
    session_index: int = 0,
    *,
    sum_only: bool = False,
    data: SessionData | None = None,
    rows: CoefficientRows | None = None,
    schedule: SessionSchedule | None = None,
) -> SessionResult:
    """Transmit and recover one full session, then verify every delivered
    symbol against the source tensor. The outcome is Complete only if all
    emitted (source, data_index) pairs arrive with their original values.

    A prebuilt ``schedule`` (custom protection pair or session length)
    may replace the default construction; it must agree with scheme/n.
    """
    if schedule is None:
        schedule = build_schedule(scheme, n, session_index)
    elif schedule.scheme is not scheme or schedule.n != n:
        raise ValueError("schedule does not match the requested scheme and n")
    for p in failure.failed_paths:
        if p > n:
            raise ValueError(f"failed path {p} exceeds path count {n}")
    if rows is None:
        rows = build_rows(n - 2, field, sum_only=sum_only)
    if data is None:
        data = generate_source_data(
            n, schedule.rounds, session_index + 1, seed, field
        )[session_index]

    delivered: dict[tuple[int, int], FieldElement] = {}
    round_scenarios: dict[int, Scenario] = {}
    unrecoverable: list[tuple[int, tuple[int, ...]]] = []
    protection = []
    recovered_count = 0

    for r, (p_sum, p_wtd) in enumerate(schedule.layout.pairs, 1):
        survivors = transmit_round(schedule, r, data, failure, rows)
        protection.append((survivors.get(p_sum), survivors.get(p_wtd)))
        try:
            rec = recover_round(survivors, schedule, r, rows, failure)
        except RoundUnrecoverableError as exc:
            round_scenarios[r] = exc.scenario
            unrecoverable.append((exc.round_index, exc.failed_paths))
            delivered.update(exc.delivered)  # direct survivors still reach the collector
            continue
        delivered.update(rec.delivered)
        recovered_count += len(rec.recovered)
        round_scenarios[r] = rec.scenario

    # only emitted slots are ever delivered, so equal sizes mean equal key sets
    ok = len(delivered) == len(schedule.emitted()) and [
        v.value for v in delivered.values()] == [data[p - 1][d - 1].value for p, d in delivered]
    return SessionResult(
        schedule=schedule,
        failure=failure,
        delivered=delivered,
        recovered_count=recovered_count,
        round_scenarios=round_scenarios,
        normalized_capacity=Fraction(n - len(failure), n),
        outcome=Outcome.COMPLETE if ok else Outcome.UNRECOVERABLE,
        unrecoverable_rounds=tuple(unrecoverable),
        protection=tuple(protection),
    )


def all_patterns(n: int, max_failures: int = 2) -> list[FailurePattern]:
    """The empty pattern, all singles, and all pairs, in deterministic order."""
    patterns = [NO_FAILURES]
    if max_failures >= 1:
        patterns.extend(FailurePattern({p}) for p in range(1, n + 1))
    if max_failures >= 2:
        patterns.extend(
            FailurePattern({a, b})
            for a in range(1, n + 1)
            for b in range(a + 1, n + 1)
        )
    return patterns


@dataclass
class SweepReport:
    scheme: Scheme
    n: int
    session_index: int
    results: tuple[SessionResult, ...]
    complete_rate: float
    scenario_histogram: dict[str, int]
    recovered_total: int

    @property
    def session_count(self) -> int:
        return len(self.results)


def sweep_failures(
    scheme: Scheme,
    n: int,
    field: FieldSpec,
    seed: int = 0,
    session_index: int = 0,
    *,
    sum_only: bool = False,
) -> SweepReport:
    """Run one session per failure pattern of size 0, 1, and 2.

    The histogram counts each session once, under its summary scenario.
    """
    rows = build_rows(n - 2, field, sum_only=sum_only)
    data = generate_source_data(n, build_schedule(scheme, n, session_index).rounds,
                                session_index + 1, seed, field)[session_index]
    results = tuple(
        run_session(scheme, n, field, pattern, seed=seed, session_index=session_index,
                    data=data, rows=rows)
        for pattern in all_patterns(n)
    )
    return SweepReport(
        scheme=scheme,
        n=n,
        session_index=session_index,
        results=results,
        complete_rate=sum(r.complete for r in results) / len(results),
        scenario_histogram=dict(Counter(r.scenario.value for r in results)),
        recovered_total=sum(r.recovered_count for r in results),
    )


def trace_lines(packets: Iterable[Packet]) -> list[str]:
    """JSON-lines records, one per surviving packet, byte-stable: each line is
    ``json.dumps(p.record(), sort_keys=True, separators=(",", ":"))``."""
    return [
        f'{{"kind":"{p.kind.value}","path":{p.sender_id},"payload_hex":"{p.payload.hex}",'
        f'"round":{p.round},"sender":{p.sender_id},"session":{p.session}}}'
        for p in packets
    ]
