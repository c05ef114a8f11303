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
from functools import cache
from typing import NamedTuple


class Scheme(Enum):
    NPS2_I = "nps2-i"
    NPS2_II = "nps2-ii"


class SlotKind(Enum):
    WORKING = "working"
    PROTECTION_SUM = "protection-sum"
    PROTECTION_WEIGHTED = "protection-weighted"


class ProtectedSlot(NamedTuple):
    """A working slot of one round; equal to its (source, data_index) key,
    as source path and carrying path are the same."""

    path: int
    data_index: int


@dataclass(frozen=True)
class SessionSchedule:
    """Which path carries which symbol at each round of a session.

    pairs[r-1] is round r's (sum, weighted) protection carriers; the rest is
    derived from (n, pairs) by one rule for both schemes. Every other path
    sends its data units in order, so its data index in round r is the
    number of rounds up to r in which it worked. protected[r-1] holds the
    round's working slots in path order, which is rank order, sharing its
    ProtectedSlots with every schedule on n paths; units[p-1] counts path p's
    data units. Equality and hash are by (scheme, n, pairs); ValueError unless
    there are 1..n rounds, each on two distinct carriers in 1..n.
    """

    scheme: Scheme
    n: int
    pairs: tuple[tuple[int, int], ...]
    protected: tuple[tuple[ProtectedSlot, ...], ...] = dc_field(
        init=False, repr=False, compare=False)
    units: tuple[int, ...] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        if not 1 <= len(self.pairs) <= n:
            raise ValueError(f"a schedule on {n} paths runs 1..{n} rounds, got {len(self.pairs)}")
        cells = _working_cells(n)
        sent = [0] * n  # data units each path has sent so far
        protected = []
        for pair in self.pairs:
            if len(pair) != 2 or pair[0] == pair[1] or not all(1 <= p <= n for p in pair):
                raise ValueError(f"a protection pair is two distinct paths in 1..{n}, got {pair}")
            work = []
            for p, d in enumerate(sent):
                if p + 1 not in pair:
                    sent[p] = d + 1
                    work.append(cells[p][d])
            protected.append(tuple(work))
        object.__setattr__(self, "protected", tuple(protected))
        object.__setattr__(self, "units", tuple(sent))

    @property
    def rounds(self) -> int:
        return len(self.pairs)

    def emitted(self) -> frozenset[ProtectedSlot]:
        """All (source, data_index) pairs this schedule transmits, as a new
        frozen set on each call."""
        return frozenset(s for row in self.protected for s in row)


@cache
def _working_cells(n: int) -> tuple[tuple[ProtectedSlot, ...], ...]:
    """Path p's ProtectedSlot of data unit d at [p-1][d-1], for d up to n."""
    units = range(1, n + 1)
    return tuple(tuple(ProtectedSlot(p, d) for d in units) for p in units)


def check_path_count(scheme: Scheme, n: int) -> None:
    """Raise ValueError unless ``scheme`` can run on n paths: NPS2-I needs
    its two protection paths plus a working path, NPS2-II an even n >= 4
    for its (2L-1, 2L) pairs."""
    if scheme is Scheme.NPS2_II and n % 2:
        raise ValueError(f"{scheme.value} needs an even number of paths, got n={n}")
    min_n = 4 if scheme is Scheme.NPS2_II else 3
    if n < min_n:
        raise ValueError(f"{scheme.value} needs n >= {min_n}, got n={n}")


_shared_schedule = cache(SessionSchedule)


def build_schedule(scheme: Scheme, n: int, session_index: int = 0) -> SessionSchedule:
    """Session ``session_index``'s schedule, one shared object per (scheme,
    n, protection pairs). NPS2-I runs n rounds on the pair (2d mod n,
    2d+1 mod n), 1-based, of session d; for odd n it wraps to (n, 1) once
    per n sessions. NPS2-II runs n/2 rounds, protection on (2L-1, 2L) in
    round L, so path i protects once, in round ceil(i/2), and sends data
    unit r before that round and unit r-1 after it.
    """
    if not isinstance(scheme, Scheme):
        raise TypeError(f"scheme must be a Scheme, got {scheme!r}")
    for name, value in (("n", n), ("session_index", session_index)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{name} must be an int, got {value!r}")
    check_path_count(scheme, n)
    if session_index < 0:
        raise ValueError(f"session_index must be nonnegative, got {session_index}")
    if scheme is Scheme.NPS2_II:
        return _rotating_schedule(n)
    pair = 2 * session_index % n + 1, (2 * session_index + 1) % n + 1
    return _shared_schedule(scheme, n, (pair,) * n)


@cache
def _rotating_schedule(n: int) -> SessionSchedule:
    """NPS2-II's one schedule on n paths, its pairs built once per n."""
    return _shared_schedule(Scheme.NPS2_II, n, tuple((2 * ell - 1, 2 * ell)
                                                     for ell in range(1, n // 2 + 1)))


def protected_slots(schedule: SessionSchedule, round_index: int) -> tuple[ProtectedSlot, ...]:
    """The n-2 working slots of a round, in ascending path order.

    Their position in this tuple is the rank used for the weighted
    coefficient row, so coefficients are a pure function of the schedule.
    """
    if not 1 <= round_index <= schedule.rounds:
        raise ValueError(f"round {round_index} out of range 1..{schedule.rounds}")
    return schedule.protected[round_index - 1]


def schedule_capacity(schedule: SessionSchedule) -> Fraction:
    """Fraction of path-slots carrying working data; (n-2)/n for both schemes."""
    from fractions import Fraction  # loaded on first use: the run path never needs it
    return Fraction(sum(map(len, schedule.protected)), schedule.rounds * schedule.n)


def schedule_labels(schedule: SessionSchedule) -> list[list[str]]:
    """Label matrix oriented like the protection matrices: rows are
    connections, columns are round times. Round r's carriers read y_p^r,
    every other path x_p^d, its data index d from the round's working slots."""
    labels = [[] for _ in range(schedule.n)]
    for r, (pair, slots) in enumerate(zip(schedule.pairs, schedule.protected), 1):
        for p in pair:
            labels[p - 1].append(f"y_{p}^{r}")
        for p, d in slots:
            labels[p - 1].append(f"x_{p}^{d}")
    return labels
