from fractions import Fraction

import pytest

import nps2.schemes
from nps2.schemes import (
    ProtectedSlot,
    Scheme,
    Slot,
    SlotKind,
    build_schedule,
    protected_slots,
    schedule_capacity,
    schedule_labels,
    slot_label,
)


def test_nps2i_n4_session0():
    sched = build_schedule(Scheme.NPS2_I, 4, 0)
    assert sched.pairs[0] == (1, 2)
    assert sched.rounds == 4
    for r in range(1, 5):
        assert sched.grid[r - 1][0].kind is SlotKind.PROTECTION_SUM
        assert sched.grid[r - 1][1].kind is SlotKind.PROTECTION_WEIGHTED
        for path in (3, 4):
            slot = sched.grid[r - 1][path - 1]
            assert slot.kind is SlotKind.WORKING
            assert slot.data_index == r
    assert sched.emitted() == {(p, d) for p in (3, 4) for d in range(1, 5)}


def test_nps2i_minimal_n3():
    sched = build_schedule(Scheme.NPS2_I, 3, 0)
    for r in range(1, 4):
        working = [s for s in sched.grid[r - 1] if s.kind is SlotKind.WORKING]
        assert len(working) == 1


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
    kinds = [sched.grid[r - 1][4] for r in (1, 2, 3)]
    assert kinds[0] == Slot(SlotKind.WORKING, 1)
    assert kinds[1] == Slot(SlotKind.WORKING, 2)
    assert kinds[2].kind is SlotKind.PROTECTION_SUM


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
    for row in sched.grid:
        kinds = [slot.kind for slot in row]
        assert kinds.count(SlotKind.PROTECTION_SUM) == 1
        assert kinds.count(SlotKind.PROTECTION_WEIGHTED) == 1
        assert kinds.count(SlotKind.WORKING) == sched.n - 2


def test_nps2ii_fairness():
    for n in (4, 6, 8, 12):
        sched = build_schedule(Scheme.NPS2_II, n)
        for path in range(1, n + 1):
            protection_rounds = [
                r for r in range(1, sched.rounds + 1)
                if sched.grid[r - 1][path - 1].kind is not SlotKind.WORKING
            ]
            assert protection_rounds == [(path + 1) // 2]


def test_nps2ii_completeness():
    for n in (4, 6, 8, 10):
        sched = build_schedule(Scheme.NPS2_II, n)
        expected = {(i, d) for i in range(1, n + 1) for d in range(1, n // 2)}
        assert sched.emitted() == expected
        # transmitted exactly once: count multiset size
        count = sum(
            1 for row in sched.grid for slot in row if slot.kind is SlotKind.WORKING
        )
        assert count == len(expected)


def test_nps2ii_data_index_consecutive():
    sched = build_schedule(Scheme.NPS2_II, 8)
    for path in range(1, 9):
        seq = [
            sched.grid[r - 1][path - 1].data_index
            for r in range(1, sched.rounds + 1)
            if sched.grid[r - 1][path - 1].kind is SlotKind.WORKING
        ]
        assert seq == list(range(1, len(seq) + 1))


def test_protected_slots_nps2ii_n4():
    sched = build_schedule(Scheme.NPS2_II, 4)
    assert protected_slots(sched, 1) == (
        ProtectedSlot(3, 1),
        ProtectedSlot(4, 1),
    )
    assert protected_slots(sched, 2) == (
        ProtectedSlot(1, 1),
        ProtectedSlot(2, 1),
    )


def test_protected_slots_nps2i_dedicated():
    sched = build_schedule(Scheme.NPS2_I, 5, 4)  # protection pair (4, 5)
    assert sched.pairs[0] == (4, 5)
    for r in range(1, 6):
        assert protected_slots(sched, r) == (
            ProtectedSlot(1, r),
            ProtectedSlot(2, r),
            ProtectedSlot(3, r),
        )


def test_protected_slots_round_range():
    sched = build_schedule(Scheme.NPS2_II, 4)
    with pytest.raises(ValueError):
        protected_slots(sched, 0)
    with pytest.raises(ValueError):
        protected_slots(sched, 3)


def test_rotating_protection_coverage():
    # rounds L: sources up to 2(L-1) already sent unit L-1; sources from
    # 2L+1 up are concurrently sending unit L
    for n in (4, 6, 10):
        sched = build_schedule(Scheme.NPS2_II, n)
        for ell in range(1, sched.rounds + 1):
            for slot in protected_slots(sched, ell):
                if slot.path <= 2 * (ell - 1):
                    assert slot.data_index == ell - 1
                else:
                    assert slot.path >= 2 * ell + 1
                    assert slot.data_index == ell


def test_schedule_capacity_exact():
    assert schedule_capacity(build_schedule(Scheme.NPS2_I, 10, 0)) == Fraction(8, 10)
    assert schedule_capacity(build_schedule(Scheme.NPS2_II, 10)) == Fraction(8, 10)
    assert schedule_capacity(build_schedule(Scheme.NPS2_II, 4)) == Fraction(1, 2)
    assert schedule_capacity(build_schedule(Scheme.NPS2_I, 3, 0)) == Fraction(1, 3)


def test_slot_validation():
    with pytest.raises(ValueError):
        Slot(SlotKind.WORKING)
    with pytest.raises(ValueError):
        Slot(SlotKind.WORKING, 0)
    with pytest.raises(ValueError):
        Slot(SlotKind.PROTECTION_SUM, 1)


def test_slot_labels():
    assert slot_label(Slot(SlotKind.WORKING, 3), 7, 4) == "x_7^3"
    assert slot_label(Slot(SlotKind.PROTECTION_SUM), 2, 5) == "y_2^5"
    assert slot_label(Slot(SlotKind.PROTECTION_WEIGHTED), 2, 5) == "y_2^5"


def test_schedule_lookup_validation():
    sched = build_schedule(Scheme.NPS2_I, 4, 0)
    assert sched.scheme is Scheme.NPS2_I
    # n and rounds are read off the grid
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
    assert protected_slots(shared, 1) is protected_slots(build_schedule(Scheme.NPS2_I, 8, 4), 1)
    with pytest.raises(AttributeError):
        shared.pairs = ()
    # a schedule rebuilt after the cache forgot it equals the old one by value
    nps2.schemes._shared_nps2i.cache_clear()
    nps2.schemes._shared_nps2ii.cache_clear()
    rebuilt = build_schedule(Scheme.NPS2_I, 8, 4)
    assert rebuilt is not shared
    assert rebuilt == shared and hash(rebuilt) == hash(shared)
    assert rebuilt.pairs == shared.pairs and rebuilt.emitted() == shared.emitted()
