from fractions import Fraction

import pytest

from nps2.schemes import (
    ProtectedSlot,
    Scheme,
    Slot,
    SlotKind,
    nps2i_schedule,
    nps2ii_schedule,
    protected_slots,
    schedule_capacity,
    schedule_labels,
    slot_label,
)


def test_nps2i_n4_session0():
    sched = nps2i_schedule(4, 0)
    assert sched.protection_paths == (1, 2)
    assert sched.rounds == 4
    for r in range(1, 5):
        assert sched.slot(r, 1).kind is SlotKind.PROTECTION_SUM
        assert sched.slot(r, 2).kind is SlotKind.PROTECTION_WEIGHTED
        for path in (3, 4):
            slot = sched.slot(r, path)
            assert slot.kind is SlotKind.WORKING
            assert slot.data_index == r
    assert sched.emitted() == {(p, d) for p in (3, 4) for d in range(1, 5)}


def test_nps2i_minimal_n3():
    sched = nps2i_schedule(3, 0)
    for r in range(1, 4):
        working = [s for s in sched.grid[r - 1] if s.kind is SlotKind.WORKING]
        assert len(working) == 1


def test_nps2i_pair_rotation():
    assert nps2i_schedule(4, 0).protection_paths == (1, 2)
    assert nps2i_schedule(4, 1).protection_paths == (3, 4)
    assert nps2i_schedule(4, 2).protection_paths == (1, 2)  # period n/2
    # odd n wraps the pair around the path ring
    assert nps2i_schedule(5, 2).protection_paths == (5, 1)
    assert nps2i_schedule(5, 4).protection_paths == (4, 5)
    assert nps2i_schedule(5, 5).protection_paths == (1, 2)


def test_nps2i_rejects_small_n():
    with pytest.raises(ValueError):
        nps2i_schedule(2, 0)
    with pytest.raises(ValueError):
        nps2i_schedule(4, -1)


def test_nps2ii_n4_matches_protection_matrix():
    sched = nps2ii_schedule(4)
    assert schedule_labels(sched) == [
        ["y_1^1", "x_1^1"],
        ["y_2^1", "x_2^1"],
        ["x_3^1", "y_3^2"],
        ["x_4^1", "y_4^2"],
    ]
    assert sched.protection_pair(1) == (1, 2)
    assert sched.protection_pair(2) == (3, 4)


def test_nps2ii_n6_path5_sequence():
    sched = nps2ii_schedule(6)
    kinds = [sched.slot(r, 5) for r in (1, 2, 3)]
    assert kinds[0] == Slot(SlotKind.WORKING, 1)
    assert kinds[1] == Slot(SlotKind.WORKING, 2)
    assert kinds[2].kind is SlotKind.PROTECTION_SUM


def test_nps2ii_rejects_bad_n():
    with pytest.raises(ValueError, match="even"):
        nps2ii_schedule(7)
    with pytest.raises(ValueError):
        nps2ii_schedule(2)


@pytest.mark.parametrize(
    "sched",
    [nps2i_schedule(n, s) for n in (3, 4, 7) for s in (0, 3)]
    + [nps2ii_schedule(n) for n in (4, 6, 10)],
    ids=lambda s: f"{s.scheme.value}-n{s.n}-s{s.session_index}",
)
def test_round_structure(sched):
    for row in sched.grid:
        kinds = [slot.kind for slot in row]
        assert kinds.count(SlotKind.PROTECTION_SUM) == 1
        assert kinds.count(SlotKind.PROTECTION_WEIGHTED) == 1
        assert kinds.count(SlotKind.WORKING) == sched.n - 2


def test_nps2ii_fairness():
    for n in (4, 6, 8, 12):
        sched = nps2ii_schedule(n)
        for path in range(1, n + 1):
            protection_rounds = [
                r for r in range(1, sched.rounds + 1)
                if sched.slot(r, path).kind is not SlotKind.WORKING
            ]
            assert protection_rounds == [(path + 1) // 2]


def test_nps2ii_completeness():
    for n in (4, 6, 8, 10):
        sched = nps2ii_schedule(n)
        expected = {(i, d) for i in range(1, n + 1) for d in range(1, n // 2)}
        assert sched.emitted() == expected
        # transmitted exactly once: count multiset size
        count = sum(
            1 for row in sched.grid for slot in row if slot.kind is SlotKind.WORKING
        )
        assert count == len(expected)


def test_nps2ii_data_index_consecutive():
    sched = nps2ii_schedule(8)
    for path in range(1, 9):
        seq = [
            sched.slot(r, path).data_index
            for r in range(1, sched.rounds + 1)
            if sched.slot(r, path).kind is SlotKind.WORKING
        ]
        assert seq == list(range(1, len(seq) + 1))


def test_protected_slots_nps2ii_n4():
    sched = nps2ii_schedule(4)
    assert protected_slots(sched, 1) == (
        ProtectedSlot(3, 1),
        ProtectedSlot(4, 1),
    )
    assert protected_slots(sched, 2) == (
        ProtectedSlot(1, 1),
        ProtectedSlot(2, 1),
    )


def test_protected_slots_nps2i_dedicated():
    sched = nps2i_schedule(5, 4)  # protection pair (4, 5)
    assert sched.protection_paths == (4, 5)
    for r in range(1, 6):
        assert protected_slots(sched, r) == (
            ProtectedSlot(1, r),
            ProtectedSlot(2, r),
            ProtectedSlot(3, r),
        )


def test_protected_slots_round_range():
    sched = nps2ii_schedule(4)
    with pytest.raises(ValueError):
        protected_slots(sched, 0)
    with pytest.raises(ValueError):
        protected_slots(sched, 3)


def test_rotating_protection_coverage():
    # rounds L: sources up to 2(L-1) already sent unit L-1; sources from
    # 2L+1 up are concurrently sending unit L
    for n in (4, 6, 10):
        sched = nps2ii_schedule(n)
        for ell in range(1, sched.rounds + 1):
            for slot in protected_slots(sched, ell):
                if slot.path <= 2 * (ell - 1):
                    assert slot.data_index == ell - 1
                else:
                    assert slot.path >= 2 * ell + 1
                    assert slot.data_index == ell


def test_schedule_capacity_exact():
    assert schedule_capacity(nps2i_schedule(10, 0)) == Fraction(8, 10)
    assert schedule_capacity(nps2ii_schedule(10)) == Fraction(8, 10)
    assert schedule_capacity(nps2ii_schedule(4)) == Fraction(1, 2)
    assert schedule_capacity(nps2i_schedule(3, 0)) == Fraction(1, 3)


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
    sched = nps2i_schedule(4, 0)
    with pytest.raises(ValueError):
        sched.slot(1, 5)
    with pytest.raises(ValueError):
        sched.slot(5, 1)
    assert sched.scheme is Scheme.NPS2_I


def test_schedules_share_one_layout_per_key():
    assert nps2ii_schedule(8, 0).grid is nps2ii_schedule(8, 5).grid
    assert nps2i_schedule(8, 0).grid is nps2i_schedule(8, 4).grid  # pair (1, 2) again
    assert nps2i_schedule(8, 0).grid is not nps2i_schedule(8, 1).grid
    assert protected_slots(nps2i_schedule(8, 0), 1) is protected_slots(nps2i_schedule(8, 4), 1)
