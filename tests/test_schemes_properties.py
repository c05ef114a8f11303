"""Property tests: the schedule invariants of both schemes for n up to 64,
across sessions, so NPS2-I's rotated protection pair takes every value."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nps2.schemes import (
    Scheme,
    SlotKind,
    build_schedule,
    protected_slots,
    schedule_capacity,
)


@st.composite
def schedules(draw):
    session = draw(st.integers(0, 100))
    if draw(st.booleans()):
        return build_schedule(Scheme.NPS2_II, 2 * draw(st.integers(2, 32)), session)
    return build_schedule(Scheme.NPS2_I, draw(st.integers(3, 64)), session)


@settings(max_examples=200, deadline=None)
@given(schedules())
def test_schedule_invariants(sched):
    n = sched.n
    carried = []  # (path, data_index) of every working slot
    for r, row in enumerate(sched.grid, 1):
        kinds = [slot.kind for slot in row]
        assert kinds.count(SlotKind.PROTECTION_SUM) == 1
        assert kinds.count(SlotKind.PROTECTION_WEIGHTED) == 1
        pair = (kinds.index(SlotKind.PROTECTION_SUM) + 1,
                kinds.index(SlotKind.PROTECTION_WEIGHTED) + 1)
        assert sched.pairs[r - 1] == pair
        assert protected_slots(sched, r) == tuple(
            (p, row[p - 1].data_index) for p in range(1, n + 1) if p not in pair
        )
        carried += protected_slots(sched, r)
    assert schedule_capacity(sched) == Fraction(n - 2, n)
    assert len(carried) == len(set(carried))  # each symbol is sent once

    if sched.scheme is Scheme.NPS2_II:
        for path in range(1, n + 1):
            protecting = [r for r in range(1, sched.rounds + 1)
                          if sched.grid[r - 1][path - 1].kind is not SlotKind.WORKING]
            assert protecting == [(path + 1) // 2]
        expected = {(p, d) for p in range(1, n + 1) for d in range(1, n // 2)}
    else:
        assert set(sched.pairs) == {sched.pairs[0]}
        expected = {(p, r) for p in range(1, n + 1) if p not in sched.pairs[0]
                    for r in range(1, sched.rounds + 1)}
    assert sched.emitted() == expected
