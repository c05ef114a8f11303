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


class ScheduleLayout:
    """A grid with its per-round protection carriers and ranked working slots,
    its emitted (source, data_index) pairs and its working share. The grid
    depends only on (scheme, n, protection pair), so each such key
    has one immutable layout, shared by every session schedule with it."""

    __slots__ = ("grid", "pairs", "protected", "emitted", "capacity")

    def __init__(self, grid: tuple[tuple[Slot, ...], ...]):
        self.grid = grid
        carriers = [{s.kind: p for p, s in enumerate(row, 1)} for row in grid]
        kinds = SlotKind.PROTECTION_SUM, SlotKind.PROTECTION_WEIGHTED
        self.pairs = tuple(tuple(c[k] for k in kinds) for c in carriers)
        work = SlotKind.WORKING
        self.protected = tuple(
            tuple(ProtectedSlot(p, s.data_index) for p, s in enumerate(row, 1) if s.kind is work)
            for row in grid
        )
        self.emitted = frozenset(s for row in self.protected for s in row)
        self.capacity = Fraction(sum(map(len, self.protected)), len(grid) * len(grid[0]))


@dataclass(frozen=True)
class SessionSchedule:
    """Which path carries which symbol at each round of one session.

    grid[r-1][p-1] is path p's slot in round r. protection_paths is the
    dedicated pair for NPS2-I and None for NPS2-II, where the pair moves
    every round.
    """

    scheme: Scheme
    n: int
    rounds: int
    layout: ScheduleLayout = dc_field(repr=False, compare=False)
    protection_paths: tuple[int, int] | None = None
    session_index: int = 0

    @property
    def grid(self) -> tuple[tuple[Slot, ...], ...]:
        return self.layout.grid

    def slot(self, round_index: int, path: int) -> Slot:
        self._check_round(round_index)
        if not 1 <= path <= self.n:
            raise ValueError(f"path {path} out of range 1..{self.n}")
        return self.grid[round_index - 1][path - 1]

    def protection_pair(self, round_index: int) -> tuple[int, int]:
        """The (sum, weighted) protection carriers of one round."""
        self._check_round(round_index)
        return self.layout.pairs[round_index - 1]

    def emitted(self) -> frozenset[ProtectedSlot]:
        """All (source, data_index) pairs this schedule transmits."""
        return self.layout.emitted

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
def _nps2i_layout(n: int, p_sum: int, p_wtd: int) -> ScheduleLayout:
    grid = []
    for r in range(1, n + 1):
        row = [Slot(SlotKind.WORKING, data_index=r)] * n
        row[p_sum - 1] = Slot(SlotKind.PROTECTION_SUM)
        row[p_wtd - 1] = Slot(SlotKind.PROTECTION_WEIGHTED)
        grid.append(tuple(row))
    return ScheduleLayout(tuple(grid))


@lru_cache(maxsize=16)
def _nps2ii_layout(n: int) -> ScheduleLayout:
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
    return ScheduleLayout(tuple(grid))


def nps2i_schedule(n: int, session_index: int = 0) -> SessionSchedule:
    """Dedicated-pair schedule: n rounds, fixed protection paths.

    The pair for session d is paths (2d mod n, 2d+1 mod n) in 1-based
    labels, a deterministic round-robin over adjacent pairs; for odd n it
    wraps to (n, 1) once per n sessions. Every other path sends its
    round-r data unit in round r.
    """
    check_path_count(Scheme.NPS2_I, n)
    if session_index < 0:
        raise ValueError(f"session_index must be nonnegative, got {session_index}")
    p_sum = (2 * session_index) % n + 1
    p_wtd = (2 * session_index + 1) % n + 1
    return SessionSchedule(
        scheme=Scheme.NPS2_I,
        n=n,
        rounds=n,
        layout=_nps2i_layout(n, p_sum, p_wtd),
        protection_paths=(p_sum, p_wtd),
        session_index=session_index,
    )


def nps2ii_schedule(n: int, session_index: int = 0) -> SessionSchedule:
    """Rotating-pair schedule: n/2 rounds, protection on (2L-1, 2L) in round L.

    Path i is protection exactly once, in round ceil(i/2). Before that
    round it sends data unit r in round r; afterwards unit r-1, so each
    source contributes units 1 .. n/2 - 1 with no gaps.
    """
    check_path_count(Scheme.NPS2_II, n)
    if session_index < 0:
        raise ValueError(f"session_index must be nonnegative, got {session_index}")
    return SessionSchedule(
        scheme=Scheme.NPS2_II,
        n=n,
        rounds=n // 2,
        layout=_nps2ii_layout(n),
        session_index=session_index,
    )


def build_schedule(scheme: Scheme, n: int, session_index: int = 0) -> SessionSchedule:
    if scheme is Scheme.NPS2_I:
        return nps2i_schedule(n, session_index)
    return nps2ii_schedule(n, session_index)


def protected_slots(schedule: SessionSchedule, round_index: int) -> tuple[ProtectedSlot, ...]:
    """The n-2 working slots of a round, in ascending path order.

    Their position in this tuple is the rank used for the weighted
    coefficient row, so coefficients are a pure function of the schedule.
    """
    schedule._check_round(round_index)
    return schedule.layout.protected[round_index - 1]


def schedule_capacity(schedule: SessionSchedule) -> Fraction:
    """Fraction of path-slots carrying working data; (n-2)/n for both schemes."""
    return schedule.layout.capacity


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
