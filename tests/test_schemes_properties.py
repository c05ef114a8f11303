"""Property tests: the schedule invariants of both schemes for n up to 64,
across sessions, so NPS2-I's rotated protection pair takes every value."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nps2.schemes import (
    Scheme,
    build_schedule,
    protected_slots,
    schedule_capacity,
)
from test_schemes import SUM, WEIGHTED, WORKING, cells, working_slots


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
    matrix = cells(sched)
    carried = []  # (path, data_index) of every working slot
    for r, row in enumerate(matrix, 1):
        kinds = [kind for kind, _ in row]
        assert kinds.count(SUM) == 1
        assert kinds.count(WEIGHTED) == 1
        assert protected_slots(sched, r) == tuple(
            (p, d) for p, (kind, d) in enumerate(row, 1) if kind is WORKING
        )
        carried += protected_slots(sched, r)
    assert schedule_capacity(sched) == Fraction(n - 2, n)
    assert len(carried) == len(set(carried))  # each symbol is sent once

    # the paper's closed form of each working cell's data index: r for
    # NPS2-I; for NPS2-II r before the path's protection round ceil(p/2)
    # and r-1 after it
    ii = sched.scheme is Scheme.NPS2_II
    for r, slots in enumerate(working_slots(sched), 1):
        for p, d in slots:
            assert d == (r - 1 if ii and r > (p + 1) // 2 else r)

    if sched.scheme is Scheme.NPS2_II:
        for path in range(1, n + 1):
            protecting = [r for r, row in enumerate(matrix, 1) if row[path - 1][0] is not WORKING]
            assert protecting == [(path + 1) // 2]
        assert sched.pairs == tuple((2 * r - 1, 2 * r) for r in range(1, sched.rounds + 1))
        expected = {(p, d) for p in range(1, n + 1) for d in range(1, n // 2)}
    else:
        assert set(sched.pairs) == {sched.pairs[0]}
        expected = {(p, r) for p in range(1, n + 1) if p not in sched.pairs[0]
                    for r in range(1, sched.rounds + 1)}
    assert {s for row in working_slots(sched) for s in row} == expected
