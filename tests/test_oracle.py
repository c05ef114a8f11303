"""An independent oracle for recovery: each round's erasure system, built
from the generator rows (all ones, and alpha^t at rank t) and solved by
Gaussian elimination over GF(2^m) with FieldSpec.add/mul/inv alone. It
does not use the codec, the engine's round plans or its decode step; it
reads only a schedule's protection pairs.
"""

import itertools
import random

import pytest

from nps2.field import FieldSpec
from nps2.schemes import Scheme, build_schedule
from nps2.simnet import FailurePattern, Outcome, Scenario, run_session, trace_lines

FIELDS = {4: FieldSpec(4, 0b10011, 0b10), 8: FieldSpec()}
GF2 = FieldSpec(1, 0b11, 0b1)


def rounds(schedule):
    """Each round's protection pair and working (path, data index) cells in
    path order, from the pairs alone: a path that is not a carrier sends its
    next data unit."""
    sent = [0] * (schedule.n + 1)
    for pair in schedule.pairs:
        cells = []
        for p in range(1, schedule.n + 1):
            if p not in pair:
                sent[p] += 1
                cells.append((p, sent[p]))
        yield pair, cells


def generator_rows(field, width, sum_only):
    """The sum row and the weighted row, alpha^t at rank t (all ones under sum_only)."""
    one = field.one()
    return [one] * width, [one if sum_only else field.pow(field.alpha(), t) for t in range(width)]


def dot(field, row, symbols):
    total = field.zero()
    for c, x in zip(row, symbols):
        total = field.add(total, field.mul(c, x))
    return total


def solve(field, matrix, rhs, k):
    """The unique u with matrix . u = rhs in k unknowns, or None when the
    matrix has rank below k. Subtraction is addition in characteristic 2."""
    m = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for c in range(k):
        pivot = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        scale = field.inv(m[c][c])
        m[c] = [field.mul(scale, v) for v in m[c]]
        for i in range(len(m)):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [field.add(v, field.mul(f, w)) for v, w in zip(m[i], m[c])]
    assert not any(row[k] for row in m[k:])  # the rows left over agree
    return [m[c][k] for c in range(k)]


def oracle(schedule, data, failed, field, sum_only):
    """(symbols recovered by (path, data index), lost (round, paths)) of a
    session: per round, the live carriers' rows restricted to the erased
    ranks, against the protection symbols less the known ranks' terms."""
    recovered, lost = {}, []
    for r, (pair, cells) in enumerate(rounds(schedule), 1):
        erased = [t for t, (p, _) in enumerate(cells) if p in failed]
        if not erased:
            continue
        x = [data[p - 1][d - 1] for p, d in cells]
        live = [row for row, p in zip(generator_rows(field, len(cells), sum_only), pair)
                if p not in failed]
        matrix = [[row[t] for t in erased] for row in live]
        rhs = []
        for row in live:
            b = dot(field, row, x)  # the protection symbol the distributor sent
            for t, c in enumerate(row):
                if t not in erased:
                    b = field.add(b, field.mul(c, x[t]))
            rhs.append(b)
        u = solve(field, matrix, rhs, len(erased))
        if u is None:
            lost.append((r, tuple(cells[t][0] for t in erased)))
        else:
            recovered.update(zip((cells[t] for t in erased), u))
    return recovered, tuple(lost)


def draw(n, field, seed):
    rng = random.Random(seed)
    return [[field.element(rng.randrange(field.q)) for _ in range(n)] for _ in range(n)]


def patterns(n):
    paths = range(1, n + 1)
    return [set(c) for k in (0, 1, 2) for c in itertools.combinations(paths, k)]


CASES = [(scheme, n, m, sum_only)
         for scheme in Scheme for n in range(4, 11)
         if scheme is Scheme.NPS2_I or n % 2 == 0
         for m in FIELDS for sum_only in (False, True)]


@pytest.mark.parametrize("scheme, n, m, sum_only", CASES, ids=[
    f"{scheme.value}-n{n}-gf{m}{'-sum-only' if sum_only else ''}" for scheme, n, m, sum_only in CASES])
def test_run_session_matches_the_oracle(scheme, n, m, sum_only):
    field = FIELDS[m]
    data = draw(n, field, seed=n * m)
    for session_index in range(2):
        schedule = build_schedule(scheme, n, session_index)
        for failed in patterns(n):
            result = run_session(scheme, n, field, FailurePattern(failed),
                                 session_index=session_index, sum_only=sum_only, data=data)
            recovered, lost = oracle(schedule, data, failed, field, sum_only)
            assert all(v == data[p - 1][d - 1] for (p, d), v in recovered.items())
            assert result.recovered == recovered
            assert result.unrecoverable_rounds == lost
            assert result.outcome is (Outcome.UNRECOVERABLE if lost else Outcome.COMPLETE)
            if sum_only:  # one sum row cannot tell two unknowns apart
                lost_rounds = {r for r, _ in lost}
                assert all(r in lost_rounds for r, s in result.round_scenarios.items()
                           if s is Scenario.DOUBLE_WORKING)


CONVERSE_CASES = [(Scheme.NPS2_I, 6, FIELDS[4], {3, 4, 5}, False),
                  (Scheme.NPS2_II, 8, FIELDS[8], {3, 5, 8}, False),
                  (Scheme.NPS2_I, 5, GF2, {3, 4}, True)]


@pytest.mark.parametrize("scheme, n, field, failed, sum_only", CONVERSE_CASES,
                         ids=["nps2-i-three-lost", "nps2-ii-three-lost", "sum-only-gf2-two-lost"])
def test_no_collector_can_recover_beyond_the_rows(scheme, n, field, failed, sum_only):
    # more erased working symbols in round 1 than independent surviving rows:
    # a kernel vector u of those rows, added to the erased symbols, changes
    # the data but no packet that arrives
    schedule = build_schedule(scheme, n)
    pair, cells = next(rounds(schedule))
    assert not failed & set(pair)
    erased = [t for t, (p, _) in enumerate(cells) if p in failed]
    rows = generator_rows(field, len(cells), sum_only)
    # fix the last erased unknown at 1 and solve the others from the rest
    *head, last = erased
    u = solve(field, [[row[t] for t in head] for row in rows], [row[last] for row in rows],
              len(head))
    assert u is not None
    a = draw(n, field, seed=n)
    b = [list(row) for row in a]
    for t, v in zip(erased, [*u, field.one()]):
        p, d = cells[t]
        b[p - 1][d - 1] = field.add(a[p - 1][d - 1], v)
    p, d = cells[last]
    assert b[p - 1][d - 1] != a[p - 1][d - 1]
    runs = [run_session(scheme, n, field, FailurePattern(failed), sum_only=sum_only, data=data)
            for data in (a, b)]
    assert all(run.outcome is Outcome.UNRECOVERABLE for run in runs)
    assert trace_lines(runs[0]) == trace_lines(runs[1])
