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
    session_index: int
    failure: FailurePattern
    delivered: dict[tuple[int, int], FieldElement]
    recovered_count: int
    round_scenarios: dict[int, Scenario]
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
        failed, session = self.failure.failed_paths, self.session_index
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
    def normalized_capacity(self) -> Fraction:
        """The share of the n paths that stayed active for the session."""
        n = self.schedule.n
        return Fraction(n - len(self.failure), n)

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
) -> list[list[list[FieldElement]]]:
    """Deterministic symbol tensor indexed [session][source-1][data_index-1]."""
    rng = random.Random(seed)
    return [
        [[field.element(rng.randrange(field.q)) for _ in range(rounds_per_session)]
         for _ in range(n)]
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
    for path, y in sorted(zip(schedule.pairs[round_index - 1], (y_sum, y_weighted))):
        payloads.insert(path - 1, y)
    survivors = dict(enumerate(payloads, 1))
    for path in failure.failed_paths:
        survivors.pop(path, None)
    return survivors


def _round_case(
    schedule: SessionSchedule, round_index: int, failure: FailurePattern
) -> tuple[Scenario, tuple[int, ...], int | None, int | None]:
    """The one case analysis of a round, from its schedule and the failed
    paths: scenario, ascending ranks of the failed working slots, and the
    paths of the sum and the weighted carrier, each None if it failed."""
    schedule._check_round(round_index)
    p_sum, p_wtd = schedule.pairs[round_index - 1]
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
    return scenario, missing, p_sum if sum_alive else None, p_wtd if weighted_alive else None


@dataclass
class RoundRecovery:
    delivered: dict[tuple[int, int], FieldElement]
    scenario: Scenario
    recovered: tuple[tuple[int, int], ...]
    lost: tuple[int, ...] = ()  # failed working paths left unsolved, in rank order


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
    rows. When they are too few (or, sum-only, two unknowns share a row),
    nothing is solved: ``lost`` names the failed working paths and
    ``delivered`` holds only the symbols that arrived directly.
    """
    scenario, missing, p_sum, p_wtd = _round_case(schedule, round_index, failure)
    prot = protected_slots(schedule, round_index)
    delivered = {s: survivors.get(s.path) for s in prot}
    if not missing:
        return RoundRecovery(delivered, scenario, ())
    known = list(enumerate(delivered.values()))  # (rank, payload)
    for t in reversed(missing):  # the failed paths' slots arrived as None
        del known[t], delivered[prot[t]]

    if scenario is not Scenario.EXCESS_LOSS:
        rs = residualize(survivors[p_sum], known, Row.SUM, rows) if p_sum else None
        rw = residualize(survivors[p_wtd], known, Row.WEIGHTED, rows) if p_wtd else None
        try:
            values = ((solve_one(missing[0], rs, rw, rows),) if len(missing) == 1
                      else solve_two(missing, rs, rw, rows))
        except UnrecoverableError:  # sum-only rows cannot tell two unknowns apart
            pass
        else:
            recovered = tuple(prot[t] for t in missing)
            delivered.update(zip(recovered, values))
            return RoundRecovery(delivered, scenario, recovered)
    return RoundRecovery(delivered, scenario, (), tuple(prot[t].path for t in missing))


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
) -> SessionResult:
    """Transmit and recover one full session, then verify every delivered
    symbol against the source tensor. The outcome is Complete only if all
    emitted (source, data_index) pairs arrive with their original values.
    """
    schedule = build_schedule(scheme, n, session_index)
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

    for r, (p_sum, p_wtd) in enumerate(schedule.pairs, 1):
        survivors = transmit_round(schedule, r, data, failure, rows)
        protection.append((survivors.get(p_sum), survivors.get(p_wtd)))
        rec = recover_round(survivors, schedule, r, rows, failure)
        delivered.update(rec.delivered)  # a lost round still delivers its direct survivors
        recovered_count += len(rec.recovered)
        round_scenarios[r] = rec.scenario
        if rec.lost:
            unrecoverable.append((r, rec.lost))

    # only emitted slots are ever delivered, so equal sizes mean equal key sets
    ok = len(delivered) == len(schedule.emitted()) and [
        v.value for v in delivered.values()] == [data[p - 1][d - 1].value for p, d in delivered]
    return SessionResult(
        schedule=schedule,
        session_index=session_index,
        failure=failure,
        delivered=delivered,
        recovered_count=recovered_count,
        round_scenarios=round_scenarios,
        outcome=Outcome.COMPLETE if ok else Outcome.UNRECOVERABLE,
        unrecoverable_rounds=tuple(unrecoverable),
        protection=tuple(protection),
    )


def all_patterns(n: int) -> list[FailurePattern]:
    """The empty pattern, all singles, and all pairs, in deterministic order."""
    paths = range(1, n + 1)
    return [NO_FAILURES, *(FailurePattern({p}) for p in paths),
            *(FailurePattern({a, b}) for a in paths for b in range(a + 1, n + 1))]


@dataclass
class SweepReport:
    """A batch of sessions; every total is derived from ``results``."""

    results: tuple[SessionResult, ...]

    @property
    def session_count(self) -> int:
        return len(self.results)

    @property
    def complete_count(self) -> int:
        return sum(r.complete for r in self.results)

    @property
    def complete_rate(self) -> float:
        return self.complete_count / len(self.results)

    @property
    def scenario_histogram(self) -> dict[str, int]:
        """Sessions per summary scenario, each session counted once."""
        return dict(Counter(r.scenario.value for r in self.results))

    @property
    def recovered_total(self) -> int:
        return sum(r.recovered_count for r in self.results)


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
    data tensor: ``data`` if given, else the one run_session would draw."""
    rows = build_rows(n - 2, field, sum_only=sum_only)
    if data is None:
        data = generate_source_data(n, build_schedule(scheme, n, session_index).rounds,
                                    session_index + 1, seed, field)[session_index]
    results = tuple(
        run_session(scheme, n, field, pattern, seed=seed, session_index=session_index,
                    data=data, rows=rows)
        for pattern in all_patterns(n)
    )
    return SweepReport(results)


def trace_lines(packets: Iterable[Packet]) -> list[str]:
    """JSON-lines records, one per surviving packet, byte-stable: each line is
    ``json.dumps(p.record(), sort_keys=True, separators=(",", ":"))``."""
    return [
        f'{{"kind":"{p.kind.value}","path":{p.sender_id},"payload_hex":"{p.payload.hex}",'
        f'"round":{p.round},"sender":{p.sender_id},"session":{p.session}}}'
        for p in packets
    ]
