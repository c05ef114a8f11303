import re
import tracemalloc
from fractions import Fraction

import pytest

import nps2.schemes
from nps2.schemes import (
    Scheme,
    SessionSchedule,
    SlotKind,
    build_schedule,
    protected_slots,
    schedule_capacity,
    schedule_labels,
)

WORKING, SUM, WEIGHTED = SlotKind.WORKING, SlotKind.PROTECTION_SUM, SlotKind.PROTECTION_WEIGHTED


def cells(schedule) -> list[list[tuple]]:
    """The paper's rule for every cell, as an oracle independent of the
    library: cells[r-1][p-1] is path p's (SlotKind, data index) in round r. A
    carrier's kind comes from pairs[r-1] and its data index is None; any other
    path's data index is the number of rounds up to r in which it worked."""
    matrix = []
    for r, pair in enumerate(schedule.pairs, 1):
        row = []
        for p in range(1, schedule.n + 1):
            if p in pair:
                row.append((SUM if p == pair[0] else WEIGHTED, None))
            else:
                row.append((WORKING, sum(p not in earlier for earlier in schedule.pairs[:r])))
        matrix.append(row)
    return matrix


def working_slots(schedule) -> list[tuple]:
    """protected_slots of every round, in round order."""
    return [protected_slots(schedule, r) for r in range(1, schedule.rounds + 1)]


def test_nps2i_n4_session0():
    sched = build_schedule(Scheme.NPS2_I, 4, 0)
    assert sched.pairs[0] == (1, 2)
    assert sched.rounds == 4
    for r in range(1, 5):
        assert cells(sched)[r - 1] == [(SUM, None), (WEIGHTED, None), (WORKING, r), (WORKING, r)]
        assert protected_slots(sched, r) == ((3, r), (4, r))
    assert {s for row in working_slots(sched) for s in row} == {(p, d) for p in (3, 4)
                                                            for d in range(1, 5)}


def test_nps2i_minimal_n3():
    sched = build_schedule(Scheme.NPS2_I, 3, 0)
    for r in range(1, 4):
        assert protected_slots(sched, r) == ((3, r),)
        assert [kind for kind, _ in cells(sched)[r - 1]].count(WORKING) == 1


def test_nps2i_pair_rotation():
    assert build_schedule(Scheme.NPS2_I, 4, 0).pairs[0] == (1, 2)
    assert build_schedule(Scheme.NPS2_I, 4, 1).pairs[0] == (3, 4)
    assert build_schedule(Scheme.NPS2_I, 4, 2).pairs[0] == (1, 2)  # period n/2
    # odd n wraps the pair around the path ring
    assert build_schedule(Scheme.NPS2_I, 5, 2).pairs[0] == (5, 1)
    assert build_schedule(Scheme.NPS2_I, 5, 4).pairs[0] == (4, 5)
    assert build_schedule(Scheme.NPS2_I, 5, 5).pairs[0] == (1, 2)


def test_nps2i_rejects_small_n():
    with pytest.raises(ValueError, match=r"^nps2-i needs n >= 3, got n=2$"):
        build_schedule(Scheme.NPS2_I, 2, 0)
    with pytest.raises(ValueError, match=r"^session_index must be nonnegative, got -1$"):
        build_schedule(Scheme.NPS2_I, 4, -1)


def test_nps2ii_n4_matches_protection_matrix():
    sched = build_schedule(Scheme.NPS2_II, 4)
    assert schedule_labels(sched) == [
        ["y_1^1", "x_1^1"],
        ["y_2^1", "x_2^1"],
        ["x_3^1", "y_3^2"],
        ["x_4^1", "y_4^2"],
    ]
    assert sched.pairs == ((1, 2), (3, 4))


def test_nps2ii_n6_path5_sequence():
    sched = build_schedule(Scheme.NPS2_II, 6)
    assert [row[4] for row in cells(sched)] == [(WORKING, 1), (WORKING, 2), (SUM, None)]
    assert schedule_labels(sched)[4] == ["x_5^1", "x_5^2", "y_5^3"]
    assert (5, 1) in protected_slots(sched, 1) and (5, 2) in protected_slots(sched, 2)


def test_nps2ii_rejects_bad_n():
    with pytest.raises(ValueError, match="even"):
        build_schedule(Scheme.NPS2_II, 7)
    with pytest.raises(ValueError):
        build_schedule(Scheme.NPS2_II, 2)


ROUND_STRUCTURE_CASES = [(Scheme.NPS2_I, n, s) for n in (3, 4, 7) for s in (0, 3)] + [
    (Scheme.NPS2_II, n, 0) for n in (4, 6, 10)]


@pytest.mark.parametrize(
    "scheme, n, session_index",
    ROUND_STRUCTURE_CASES,
    ids=[f"{scheme.value}-n{n}-s{s}" for scheme, n, s in ROUND_STRUCTURE_CASES],
)
def test_round_structure(scheme, n, session_index):
    sched = build_schedule(scheme, n, session_index)
    for row, pair, slots in zip(cells(sched), sched.pairs, working_slots(sched), strict=True):
        kinds = [kind for kind, _ in row]
        assert kinds.count(SUM) == 1
        assert kinds.count(WEIGHTED) == 1
        assert kinds.count(WORKING) == sched.n - 2 == len(slots)
        assert {p for p, _ in slots}.isdisjoint(pair)


@pytest.mark.parametrize("sched", [build_schedule(*case) for case in ROUND_STRUCTURE_CASES] + [
    SessionSchedule(Scheme.NPS2_I, 5, ((1, 2), (2, 3), (5, 1)))])
def test_units_count_each_paths_working_rounds(sched):
    carries = [sum(p in pair for pair in sched.pairs) for p in range(1, sched.n + 1)]
    assert sched.units == tuple(sched.rounds - c for c in carries)


def test_nps2ii_fairness():
    for n in (4, 6, 8, 12):
        sched = build_schedule(Scheme.NPS2_II, n)
        for path in range(1, n + 1):
            protection_rounds = [
                r for r in range(1, sched.rounds + 1)
                if path not in {p for p, _ in protected_slots(sched, r)}
            ]
            assert protection_rounds == [(path + 1) // 2]


def test_nps2ii_completeness():
    for n in (4, 6, 8, 10):
        sched = build_schedule(Scheme.NPS2_II, n)
        expected = {(i, d) for i in range(1, n + 1) for d in range(1, n // 2)}
        assert {s for row in working_slots(sched) for s in row} == expected
        # transmitted exactly once: count multiset size
        count = sum(map(len, working_slots(sched)))
        assert count == len(expected)


def test_nps2ii_data_index_consecutive():
    sched = build_schedule(Scheme.NPS2_II, 8)
    for path in range(1, 9):
        seq = [d for slots in working_slots(sched) for p, d in slots if p == path]
        assert seq == list(range(1, len(seq) + 1))


def test_protected_slots_nps2ii_n4():
    sched = build_schedule(Scheme.NPS2_II, 4)
    assert protected_slots(sched, 1) == ((3, 1), (4, 1))
    assert protected_slots(sched, 2) == ((1, 1), (2, 1))


def test_protected_slots_nps2i_dedicated():
    sched = build_schedule(Scheme.NPS2_I, 5, 4)  # protection pair (4, 5)
    assert sched.pairs[0] == (4, 5)
    for r in range(1, 6):
        assert protected_slots(sched, r) == ((1, r), (2, r), (3, r))


def test_protected_slots_round_range():
    sched = build_schedule(Scheme.NPS2_II, 4)
    with pytest.raises(ValueError):
        protected_slots(sched, 0)
    with pytest.raises(ValueError):
        protected_slots(sched, 3)


@pytest.mark.parametrize("round_index", [True, 1.0], ids=["bool", "float"])
def test_protected_slots_takes_an_int_round(round_index):
    # True is not read as round 1, and 1.0 is named, not left to islice
    with pytest.raises(TypeError) as exc:
        protected_slots(build_schedule(Scheme.NPS2_II, 4), round_index)
    assert str(exc.value) == f"round_index must be an int, got {round_index!r}"


def test_rotating_protection_coverage():
    # rounds L: sources up to 2(L-1) already sent unit L-1; sources from
    # 2L+1 up are concurrently sending unit L
    for n in (4, 6, 10):
        sched = build_schedule(Scheme.NPS2_II, n)
        for ell in range(1, sched.rounds + 1):
            for path, data_index in protected_slots(sched, ell):
                if path <= 2 * (ell - 1):
                    assert data_index == ell - 1
                else:
                    assert path >= 2 * ell + 1
                    assert data_index == ell


def test_schedule_capacity_exact():
    assert schedule_capacity(build_schedule(Scheme.NPS2_I, 10, 0)) == Fraction(8, 10)
    assert schedule_capacity(build_schedule(Scheme.NPS2_II, 10)) == Fraction(8, 10)
    assert schedule_capacity(build_schedule(Scheme.NPS2_II, 4)) == Fraction(1, 2)
    assert schedule_capacity(build_schedule(Scheme.NPS2_I, 3, 0)) == Fraction(1, 3)


def test_schedule_labels_name_carriers_by_round_and_working_cells_by_unit():
    # the matrix of a schedule that is neither scheme's: path 7 works in
    # rounds 1, 2 and 4, so it sends unit 3 in round 4; both carriers of a
    # round read y_p^r, whichever row they carry
    sched = SessionSchedule(Scheme.NPS2_I, 7, ((1, 2), (6, 5), (7, 3), (2, 1)))
    labels = schedule_labels(sched)
    assert labels[6] == ["x_7^1", "x_7^2", "y_7^3", "x_7^3"]
    assert labels[4] == ["x_5^1", "y_5^2", "x_5^2", "x_5^3"]
    assert [row[0] for row in labels] == ["y_1^1", "y_2^1", "x_3^1", "x_4^1", "x_5^1", "x_6^1",
                                          "x_7^1"]
    assert labels[1][3] == "y_2^4" and labels[0][3] == "y_1^4"


def test_schedule_lookup_validation():
    sched = build_schedule(Scheme.NPS2_I, 4, 0)
    assert sched.scheme is Scheme.NPS2_I
    # n is a field and rounds the number of protection pairs
    assert (sched.n, sched.rounds) == (4, 4)
    sched = build_schedule(Scheme.NPS2_II, 8)
    assert (sched.n, sched.rounds) == (8, 4)


def test_schedules_share_one_layout_per_key():
    # one immutable object per (scheme, n, protection pair), whatever the session
    assert build_schedule(Scheme.NPS2_II, 8, 0) is build_schedule(Scheme.NPS2_II, 8, 5)
    shared = build_schedule(Scheme.NPS2_I, 8, 0)
    assert shared is build_schedule(Scheme.NPS2_I, 8, 4)  # pair (1, 2) again
    assert shared is not build_schedule(Scheme.NPS2_I, 8, 1)
    assert shared != build_schedule(Scheme.NPS2_I, 8, 1)
    assert protected_slots(shared, 1) == protected_slots(build_schedule(Scheme.NPS2_I, 8, 4), 1)
    with pytest.raises(AttributeError):
        shared.pairs = ()
    # a schedule rebuilt after the cache forgot it equals the old one by value
    nps2.schemes._schedule.cache_clear()
    rebuilt = build_schedule(Scheme.NPS2_I, 8, 4)
    assert rebuilt is not shared
    assert rebuilt == shared and hash(rebuilt) == hash(shared)
    assert rebuilt.pairs == shared.pairs
    assert rebuilt.working == shared.working and rebuilt.units == shared.units


def test_schedule_equality_is_by_scheme_n_and_pairs():
    sched = build_schedule(Scheme.NPS2_II, 8)
    assert sched == SessionSchedule(Scheme.NPS2_II, 8, sched.pairs)
    assert sched != SessionSchedule(Scheme.NPS2_I, 8, sched.pairs)


def test_schedule_refuses_a_pair_that_is_not_two_distinct_paths():
    # one carrier twice would leave three working slots in a round of n=4,
    # and path 9 is not among the four
    with pytest.raises(ValueError, match=r"two distinct paths in 1\.\.4, got \(1, 1\)"):
        SessionSchedule(Scheme.NPS2_I, 4, ((1, 1), (2, 9)))
    with pytest.raises(ValueError, match=r"two distinct paths in 1\.\.4, got \(2, 9\)"):
        SessionSchedule(Scheme.NPS2_I, 4, ((1, 2), (2, 9)))
    with pytest.raises(ValueError, match="two distinct paths"):
        SessionSchedule(Scheme.NPS2_I, 4, ((1, 2, 3),))
    # 1.5 would leave three working paths of four, and True would be labelled y_True
    for pair in ((1.5, 2), (True, 2), (2, 3.0)):
        with pytest.raises(ValueError, match=r"two distinct paths in 1\.\.4"):
            SessionSchedule(Scheme.NPS2_I, 4, (pair,))


def test_schedule_refuses_more_rounds_than_paths():
    # a path working more than n rounds would send a data unit past n
    with pytest.raises(ValueError, match=r"runs 1\.\.3 rounds, got 4"):
        SessionSchedule(Scheme.NPS2_I, 3, ((1, 2),) * 4)
    with pytest.raises(ValueError, match=r"runs 1\.\.3 rounds, got 0"):
        SessionSchedule(Scheme.NPS2_I, 3, ())
    assert schedule_capacity(SessionSchedule(Scheme.NPS2_I, 3, ((1, 2),) * 3)) == Fraction(1, 3)


def test_nps2i_cache_holds_a_whole_rotation():
    # n=64 cycles through 32 pairs, twice the old LRU's 16 entries
    for d in range(32):
        assert build_schedule(Scheme.NPS2_I, 64, d) is build_schedule(Scheme.NPS2_I, 64, d + 32)


@pytest.mark.parametrize("scheme", Scheme, ids=lambda s: s.value)
def test_large_schedule_holds_one_working_tuple_per_pair(scheme):
    # n=1024 holds no cell per (path, unit): NPS2-I's rounds share one tuple of
    # working paths, and NPS2-II has one per round
    nps2.schemes._schedule.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sched = build_schedule(scheme, 1024)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 8 * 2**20
    assert len(set(map(id, sched.working))) == (1 if scheme is Scheme.NPS2_I else 512)


def test_working_slots_are_plain_path_unit_tuples():
    for sched in (build_schedule(Scheme.NPS2_I, 7, 2), build_schedule(Scheme.NPS2_II, 8)):
        for row in working_slots(sched):
            assert all(type(s) is tuple and len(s) == 2 for s in row)


def test_nps2i_rotation_stays_small():
    nps2.schemes._schedule.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rotation = [build_schedule(Scheme.NPS2_I, 64, d) for d in range(32)]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(set(map(id, rotation))) == 32 and held <= 4 * 2**20


@pytest.mark.parametrize("call, message", [
    (lambda: build_schedule("nps2-i", 8), "scheme must be a Scheme, got 'nps2-i'"),
    (lambda: build_schedule(Scheme.NPS2_II, 8.0), "n must be an int, got 8.0"),
    (lambda: build_schedule(Scheme.NPS2_II, True), "n must be an int, got True"),
    (lambda: build_schedule(Scheme.NPS2_I, 8, 1.5), "session_index must be an int, got 1.5"),
    (lambda: build_schedule(Scheme.NPS2_I, 8, False), "session_index must be an int, got False"),
], ids=["str-scheme", "float-n", "bool-n", "float-session", "bool-session"])
def test_build_schedule_checks_types(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()
