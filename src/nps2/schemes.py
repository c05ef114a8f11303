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

from collections import Counter
from dataclasses import dataclass, field as dc_field
from enum import Enum
from functools import cache
from itertools import chain, islice


class Scheme(Enum):
    NPS2_I = "nps2-i"
    NPS2_II = "nps2-ii"


class SlotKind(Enum):
    WORKING = "working"
    PROTECTION_SUM = "protection-sum"
    PROTECTION_WEIGHTED = "protection-weighted"


@dataclass(frozen=True)
class SessionSchedule:
    """Which path carries which symbol at each round of a session.

    pairs[r-1] is round r's (sum, weighted) protection carriers and working[r-1]
    its other paths in path order, which is rank order: one tuple per distinct
    pair. units[p-1] counts the data units path p sends, in order (_unit_rounds).
    Equality and hash are by (scheme, n, pairs); ValueError unless there are
    1..n rounds, each on two distinct carriers, ints (not bools) in 1..n.
    """

    scheme: Scheme
    n: int
    pairs: tuple[tuple[int, int], ...]
    working: tuple[tuple[int, ...], ...] = dc_field(init=False, repr=False, compare=False)
    units: tuple[int, ...] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, rounds = self.n, len(self.pairs)
        if not 1 <= rounds <= n:
            raise ValueError(f"a schedule on {n} paths runs 1..{n} rounds, got {rounds}")
        for pair in self.pairs:
            valid = all(type(p) is int and 1 <= p <= n for p in pair)
            if len(pair) != 2 or pair[0] == pair[1] or not valid:
                raise ValueError(f"a protection pair is two distinct paths in 1..{n}, got {pair}")
        paths = tuple(range(1, n + 1))  # the ints every working tuple holds
        working = {pair: tuple([p for p in paths if p not in pair]) for pair in set(self.pairs)}
        carries = Counter(chain.from_iterable(self.pairs))  # rounds each path carries in
        object.__setattr__(self, "working", tuple(map(working.__getitem__, self.pairs)))
        object.__setattr__(self, "units", tuple(rounds - carries[p] for p in paths))

    @property
    def rounds(self) -> int:
        return len(self.pairs)


def check_path_count(scheme: Scheme, n: int) -> None:
    """Raise ValueError unless ``scheme`` can run on n paths: NPS2-I needs
    its two protection paths plus a working path, NPS2-II an even n >= 4
    for its (2L-1, 2L) pairs."""
    if scheme is Scheme.NPS2_II and n % 2:
        raise ValueError(f"{scheme.value} needs an even number of paths, got n={n}")
    min_n = 4 if scheme is Scheme.NPS2_II else 3
    if n < min_n:
        raise ValueError(f"{scheme.value} needs n >= {min_n}, got n={n}")


def build_schedule(scheme: Scheme, n: int, session_index: int = 0) -> SessionSchedule:
    """Session ``session_index``'s schedule, one shared object per (scheme,
    n, protection pair). NPS2-I runs n rounds on the pair (2d mod n,
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
        return _schedule(scheme, n, None)
    return _schedule(scheme, n, (2 * session_index % n + 1, (2 * session_index + 1) % n + 1))


@cache
def _schedule(scheme: Scheme, n: int, pair: tuple[int, int] | None) -> SessionSchedule:
    """The one schedule per (scheme, n, pair): NPS2-I's n rounds on ``pair``,
    or NPS2-II's rotation when ``pair`` is None."""
    pairs = ((pair,) * n if pair else
             tuple((2 * ell - 1, 2 * ell) for ell in range(1, n // 2 + 1)))
    return SessionSchedule(scheme, n, pairs)


def _unit_rounds(schedule: SessionSchedule):
    """Each round's (r, pair, working paths, carried), the paper's data-unit rule
    written once: carried[p] counts the rounds before r in which path p carried,
    so a working path p sends its unit r - carried[p]. carried is one list by
    path, advanced as the next round is drawn."""
    carried = [0] * (schedule.n + 1)
    for r, (pair, working) in enumerate(zip(schedule.pairs, schedule.working), 1):
        yield r, pair, working, carried
        for p in pair:
            carried[p] += 1


def protected_slots(schedule: SessionSchedule, round_index: int) -> tuple[tuple[int, int], ...]:
    """A round's n-2 working (path, data_index) slots in path order, built per call.

    Their position in this tuple is the rank used for the weighted
    coefficient row, so coefficients are a pure function of the schedule.
    """
    if not 1 <= round_index <= schedule.rounds:
        raise ValueError(f"round {round_index} out of range 1..{schedule.rounds}")
    r, _, working, carried = next(islice(_unit_rounds(schedule), round_index - 1, None))
    return tuple([(p, r - carried[p]) for p in working])


def schedule_capacity(schedule: SessionSchedule) -> Fraction:
    """Fraction of path-slots carrying working data; (n-2)/n for both schemes."""
    from fractions import Fraction  # loaded on first use: the run path never needs it
    return Fraction(sum(map(len, schedule.working)), schedule.rounds * schedule.n)


def schedule_labels(schedule: SessionSchedule) -> list[list[str]]:
    """Label matrix oriented like the protection matrices: rows are
    connections, columns are round times. Round r's carriers read y_p^r,
    every other path x_p^d, sending its data unit d."""
    labels = [[] for _ in range(schedule.n)]
    for r, pair, working, carried in _unit_rounds(schedule):
        for p in pair:
            labels[p - 1].append(f"y_{p}^{r}")
        for p in working:
            labels[p - 1].append(f"x_{p}^{r - carried[p]}")
    return labels
