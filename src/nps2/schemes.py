"""Session schedules for the two protection schemes.

Both schemes reserve exactly two of the n disjoint paths per round for
protection symbols and let the other n-2 carry fresh data, yielding the
(n-2)/n normalized capacity:

* NPS2-I dedicates one path pair for a whole session of n rounds; the
  pair rotates across sessions.
* NPS2-II rotates the protection pair (2L-1, 2L) through the n/2 rounds
  of a session, so every path carries protection exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple


class Scheme(Enum):
    NPS2_I = "nps2-i"
    NPS2_II = "nps2-ii"


class SlotKind(Enum):
    WORKING = "working"
    PROTECTION_SUM = "protection-sum"
    PROTECTION_WEIGHTED = "protection-weighted"


@dataclass(frozen=True)
class Slot:
    kind: SlotKind
    data_index: int | None = None  # 1-based, working slots only

    def __post_init__(self):
        if self.kind is SlotKind.WORKING:
            if self.data_index is None or self.data_index < 1:
                raise ValueError("working slots need a positive data_index")
        elif self.data_index is not None:
            raise ValueError("protection slots carry no data_index")


class ProtectedSlot(NamedTuple):
    """A working slot of one round; equal to its (source, data_index) key,
    as source path and carrying path are the same."""

    path: int
    data_index: int


@dataclass(frozen=True)
class SessionSchedule:
    """Which path carries which symbol at each round of a session.

    grid[r-1][p-1] is path p's slot in round r; the other attributes are
    derived from it. The grid depends only on (scheme, n, protection pair),
    and build_schedule shares one schedule per such key. Equality and hash
    are by (scheme, grid), so a rebuilt schedule equals the shared one.
    """

    scheme: Scheme
    grid: tuple[tuple[Slot, ...], ...] = dc_field(repr=False)
    # per round: the (sum, weighted) protection carriers, the ranked working slots
    pairs: tuple[tuple[int, int], ...] = dc_field(init=False, compare=False)
    protected: tuple[tuple[ProtectedSlot, ...], ...] = dc_field(
        init=False, repr=False, compare=False)
    capacity: Fraction = dc_field(init=False, repr=False, compare=False)
    _emitted: frozenset[ProtectedSlot] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        carriers = [{s.kind: p for p, s in enumerate(row, 1)} for row in self.grid]
        kinds = SlotKind.PROTECTION_SUM, SlotKind.PROTECTION_WEIGHTED
        work = SlotKind.WORKING
        protected = tuple(
            tuple(ProtectedSlot(p, s.data_index) for p, s in enumerate(row, 1) if s.kind is work)
            for row in self.grid
        )
        for name, value in (
            ("pairs", tuple(tuple(c[k] for k in kinds) for c in carriers)),
            ("protected", protected),
            ("capacity", Fraction(sum(map(len, protected)), self.rounds * self.n)),
            ("_emitted", frozenset(s for row in protected for s in row)),
        ):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.grid[0])

    @property
    def rounds(self) -> int:
        return len(self.grid)

    def emitted(self) -> frozenset[ProtectedSlot]:
        """All (source, data_index) pairs this schedule transmits."""
        return self._emitted

    def _check_round(self, round_index: int) -> None:
        if not 1 <= round_index <= self.rounds:
            raise ValueError(f"round {round_index} out of range 1..{self.rounds}")


def check_path_count(scheme: Scheme, n: int) -> None:
    """Raise ValueError unless ``scheme`` can run on n paths: NPS2-I needs
    its two protection paths plus a working path, NPS2-II an even n >= 4
    for its (2L-1, 2L) pairs."""
    if scheme is Scheme.NPS2_II and n % 2:
        raise ValueError(f"{scheme.value} needs an even number of paths, got n={n}")
    min_n = 4 if scheme is Scheme.NPS2_II else 3
    if n < min_n:
        raise ValueError(f"{scheme.value} needs n >= {min_n}, got n={n}")


@lru_cache(maxsize=16)
def _shared_nps2i(n: int, p_sum: int, p_wtd: int) -> SessionSchedule:
    grid = []
    for r in range(1, n + 1):
        row = [Slot(SlotKind.WORKING, data_index=r)] * n
        row[p_sum - 1] = Slot(SlotKind.PROTECTION_SUM)
        row[p_wtd - 1] = Slot(SlotKind.PROTECTION_WEIGHTED)
        grid.append(tuple(row))
    return SessionSchedule(Scheme.NPS2_I, tuple(grid))


@lru_cache(maxsize=16)
def _shared_nps2ii(n: int) -> SessionSchedule:
    grid = []
    for r in range(1, n // 2 + 1):
        row = []
        for path in range(1, n + 1):
            protection_round = (path + 1) // 2
            if r == protection_round:
                kind = SlotKind.PROTECTION_SUM if path % 2 else SlotKind.PROTECTION_WEIGHTED
                row.append(Slot(kind))
            else:
                unit = r if r < protection_round else r - 1
                row.append(Slot(SlotKind.WORKING, data_index=unit))
        grid.append(tuple(row))
    return SessionSchedule(Scheme.NPS2_II, tuple(grid))


def build_schedule(scheme: Scheme, n: int, session_index: int = 0) -> SessionSchedule:
    """Session ``session_index``'s schedule, one shared object per (scheme,
    n, protection pair). NPS2-I runs n rounds on the pair (2d mod n,
    2d+1 mod n), 1-based, of session d; for odd n it wraps to (n, 1) once
    per n sessions. NPS2-II runs n/2 rounds, protection on (2L-1, 2L) in
    round L, so path i protects once, in round ceil(i/2), and sends data
    unit r before that round and unit r-1 after it.
    """
    check_path_count(scheme, n)
    if session_index < 0:
        raise ValueError(f"session_index must be nonnegative, got {session_index}")
    if scheme is Scheme.NPS2_I:
        return _shared_nps2i(n, (2 * session_index) % n + 1, (2 * session_index + 1) % n + 1)
    return _shared_nps2ii(n)


def protected_slots(schedule: SessionSchedule, round_index: int) -> tuple[ProtectedSlot, ...]:
    """The n-2 working slots of a round, in ascending path order.

    Their position in this tuple is the rank used for the weighted
    coefficient row, so coefficients are a pure function of the schedule.
    """
    schedule._check_round(round_index)
    return schedule.protected[round_index - 1]


def schedule_capacity(schedule: SessionSchedule) -> Fraction:
    """Fraction of path-slots carrying working data; (n-2)/n for both schemes."""
    return schedule.capacity


def slot_label(slot: Slot, path: int, round_index: int) -> str:
    """Matrix-cell label: x_<path>^<data index> or y_<path>^<round>."""
    if slot.kind is SlotKind.WORKING:
        return f"x_{path}^{slot.data_index}"
    return f"y_{path}^{round_index}"


def schedule_labels(schedule: SessionSchedule) -> list[list[str]]:
    """Label matrix oriented like the protection matrices: rows are
    connections, columns are round times."""
    return [
        [
            slot_label(schedule.grid[r - 1][path - 1], path, r)
            for r in range(1, schedule.rounds + 1)
        ]
        for path in range(1, schedule.n + 1)
    ]
