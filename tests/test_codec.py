"""Coefficient rows, protection encoding, and 1/2-erasure solving.

Round trips are exhaustive for small widths; recovered values are also
cross-checked against an exhaustive-substitution decoder that knows
nothing about elimination.
"""

import gc
import itertools
import random
import weakref

import pytest

from nps2.codec import (
    CoefficientRows,
    FieldCapacityError,
    Row,
    UnrecoverableError,
    build_rows,
    encode_pair,
    residualize,
    solve_one,
    solve_two,
)
from nps2.field import FieldMismatchError, FieldSpec
from nps2.schemes import Scheme
from nps2.simnet import run_session, sweep_failures

GF4 = FieldSpec(2, 0b111, 0b10)
GF8 = FieldSpec(3, 0b1011, 0b010)
GF2 = FieldSpec(1, 0b11, 0b1)


def substitute_decode(field, rows, data, erased):
    """Oracle: try every assignment of the erased ranks and keep the ones
    that re-encode to the true protection pair."""
    y_sum, y_weighted = encode_pair(data, rows)
    matches = []
    for candidate in itertools.product(field.elements(), repeat=len(erased)):
        trial = list(data)
        for rank, value in zip(erased, candidate):
            trial[rank] = value
        if encode_pair(trial, rows) == (y_sum, y_weighted):
            matches.append(candidate)
    return matches


def test_build_rows_width2_gf4():
    rows = build_rows(2, GF4)
    assert rows.row_sum == (GF4.one(), GF4.one())
    assert rows.row_weighted == (GF4.one(), GF4.alpha())


def test_build_rows_width1_degenerate():
    rows = build_rows(1, GF8)
    assert rows.row_sum == (GF8.one(),)
    assert rows.row_weighted == (GF8.one(),)


def test_build_rows_width4_gf8():
    # frozen from repeated multiplication by the generator; 0b011 = alpha^3
    rows = build_rows(4, GF8)
    assert [e.value for e in rows.row_weighted] == [0b001, 0b010, 0b100, 0b011]
    acc = GF8.one()
    for entry in rows.row_weighted:
        assert entry == acc
        acc = acc * GF8.alpha()


def test_build_rows_capacity_error_names_minimum_m():
    with pytest.raises(FieldCapacityError, match="m >= 3"):
        build_rows(4, GF4)
    with pytest.raises(FieldCapacityError, match="m >= 9"):
        build_rows(256, FieldSpec())
    with pytest.raises(ValueError):
        build_rows(0, GF8)


def test_build_rows_returns_new_equal_rows():
    # nothing holds the rows: each call builds new ones, equal to and hashed
    # as any others of the same (width, field, sum_only), naming the field given
    rows = build_rows(5, GF8)
    again = build_rows(5, GF8)
    assert again == rows and hash(again) == hash(rows) and again is not rows
    assert build_rows(5, GF8, sum_only=True) != rows and build_rows(4, GF8) != rows
    twin = FieldSpec(3, 0b1011, 0b10)
    assert twin == GF8 and build_rows(5, twin) == rows and hash(build_rows(5, twin)) == hash(rows)
    assert build_rows(5, twin).field is twin and rows.field is GF8


def test_a_sweep_builds_no_coefficient_row(monkeypatch):
    # the engine scales by the field's exp table, so the rows as elements are
    # built only when something reads them, and a sweep reads neither
    def unread(rows):
        pytest.fail(f"a sweep read a coefficient row of width {rows.width}")

    for name in ("row_sum", "row_weighted"):
        monkeypatch.setattr(CoefficientRows, name, property(unread))
    report = sweep_failures(Scheme.NPS2_I, 8, FieldSpec(4, 0x13, 2))
    assert len(report.results) == 37


def test_build_rows_bad_width_raises_every_call():
    for _ in range(3):
        with pytest.raises(FieldCapacityError):
            build_rows(4, GF4)
        with pytest.raises(ValueError, match="positive"):
            build_rows(0, GF8)


def test_build_rows_die_when_dropped():
    # the field holds no rows, so with the collector off the rows go as soon
    # as they are dropped, built elements and all, while their field lives on
    field = FieldSpec(16, 0x1100B, 2)
    gc.disable()
    try:
        rows = build_rows(30, field)
        assert len(rows.row_weighted) == 30
        held = weakref.ref(rows)
        del rows
        assert held() is None
    finally:
        gc.enable()
    assert field.element(3).spec is field


def test_build_rows_minors_invertible():
    rows = build_rows(7, GF8)
    assert len({e.value for e in rows.row_weighted}) == 7
    for t1 in range(7):
        for t2 in range(t1 + 1, 7):
            det = rows.row_weighted[t1] + rows.row_weighted[t2]
            assert det.value != 0


def test_encode_pair_zero_data():
    rows = build_rows(3, GF8)
    zeros = [GF8.zero()] * 3
    assert encode_pair(zeros, rows) == (GF8.zero(), GF8.zero())


def test_encode_pair_gf4_example():
    # frozen by direct substitution: 1 + a = 0b11, 1 + a*a = a
    rows = build_rows(2, GF4)
    y_sum, y_weighted = encode_pair([GF4.one(), GF4.alpha()], rows)
    assert y_sum == 0b11
    assert y_weighted == GF4.alpha()


def test_encode_pair_single_contribution():
    rows = build_rows(2, GF4)
    for d in GF4.elements():
        assert encode_pair([d, GF4.zero()], rows) == (d, d)


def test_encode_pair_length_mismatch():
    rows = build_rows(3, GF8)
    with pytest.raises(ValueError):
        encode_pair([GF8.one()], rows)


def test_encode_pair_linearity():
    rows = build_rows(2, GF4)
    for u in itertools.product(GF4.elements(), repeat=2):
        for v in itertools.product(GF4.elements(), repeat=2):
            su, wu = encode_pair(list(u), rows)
            sv, wv = encode_pair(list(v), rows)
            both = [a + b for a, b in zip(u, v)]
            assert encode_pair(both, rows) == (su + sv, wu + wv)


def test_residualize_full_knowledge_is_zero():
    rows = build_rows(3, GF8)
    data = [GF8.element(v) for v in (5, 2, 7)]
    y_sum, y_weighted = encode_pair(data, rows)
    known = list(enumerate(data))
    assert residualize(y_sum, known, Row.SUM, rows) == 0
    assert residualize(y_weighted, known, Row.WEIGHTED, rows) == 0


def test_residualize_single_missing():
    rows = build_rows(3, GF8)
    rng = random.Random(11)
    for _ in range(25):
        data = [GF8.element(rng.randrange(8)) for _ in range(3)]
        y_sum, y_weighted = encode_pair(data, rows)
        for t in range(3):
            known = [(r, d) for r, d in enumerate(data) if r != t]
            assert residualize(y_sum, known, Row.SUM, rows) == data[t]
            expect = rows.row_weighted[t] * data[t]
            assert residualize(y_weighted, known, Row.WEIGHTED, rows) == expect


def test_residualize_duplicate_rank_rejected():
    rows = build_rows(3, GF8)
    one = GF8.one()
    with pytest.raises(ValueError, match="duplicate"):
        residualize(one, [(0, one), (0, one)], Row.SUM, rows)
    with pytest.raises(ValueError, match="range"):
        residualize(one, [(3, one)], Row.SUM, rows)
    with pytest.raises(KeyError):  # a row is Row.SUM or Row.WEIGHTED, not its value
        residualize(one, [(0, one)], "sum", rows)


GF16 = FieldSpec(4, 0x13, 0x2)


@pytest.mark.parametrize("known, error, message", [
    ([(0, GF8.one()), (1, GF8.one()), (2, GF16.one())], FieldMismatchError,
     "element of GF(2^4)/0x13 used in GF(2^3)/0xb"),
    ([(2, GF8.one()), (0, GF8.one()), (2, GF8.one())], ValueError,
     "rank 0 follows rank 2: known ranks must ascend"),
    ([(0, GF8.one()), (-1, GF8.one())], ValueError, "rank -1 out of range for width 3"),
    ([(1, GF8.one()), (3, GF8.one())], ValueError, "rank 3 out of range for width 3"),
    # with several faults, the first entry in list order is the one named
    ([(1, GF16.one()), (1, GF8.one()), (7, GF8.one())], FieldMismatchError,
     "element of GF(2^4)/0x13 used in GF(2^3)/0xb"),
    ([(0, GF8.one()), (5, GF8.one()), (5, GF8.one())], ValueError,
     "rank 5 out of range for width 3"),
    ([(0, GF8.one()), (0, GF8.one()), (9, GF8.one())], ValueError,
     "duplicate rank 0 in known contributions"),
    # known ranks ascend strictly: a repeat of the one before, or a step down
    ([(1, GF8.one()), (1, GF8.one())], ValueError, "duplicate rank 1 in known contributions"),
    ([(2, GF8.one()), (1, GF8.one())], ValueError,
     "rank 1 follows rank 2: known ranks must ascend"),
])
def test_residualize_names_the_first_bad_entry(known, error, message):
    rows = build_rows(3, GF8)
    for row in Row:
        with pytest.raises(error) as info:
            residualize(GF8.one(), known, row, rows)
        assert type(info.value) is error and str(info.value) == message


def test_field_check_names_the_mismatched_element():
    good = [GF8.element(v) for v in range(8)]
    GF8._check()
    GF8._check(*good, FieldSpec(3, 0b1011, 0b010).element(3))  # equal spec, other instance
    with pytest.raises(FieldMismatchError) as info:
        GF8._check(*good, GF4.element(2))
    assert str(info.value) == "element of GF(2^2)/0x7 used in GF(2^3)/0xb"
    with pytest.raises(FieldMismatchError) as info:  # same degree, other polynomial
        GF8._check(*good, FieldSpec(3, 0b1101, 0b010).element(1))
    assert str(info.value) == "element of GF(2^3)/0xd used in GF(2^3)/0xb"


def test_solver_argument_validation():
    rows, y = build_rows(3, GF8), GF8.one()
    cases = [
        (lambda: solve_one(-1, y, y, rows), "rank -1 out of range"),
        (lambda: solve_one(3, y, y, rows), "rank 3 out of range"),
        (lambda: solve_two((), y, y, rows), "expected 2 missing rank"),
        (lambda: solve_two((1,), y, y, rows), "expected 2 missing rank"),
        (lambda: solve_two((0, 1, 2), y, y, rows), "expected 2 missing rank"),
        (lambda: solve_two((1, 1), y, y, rows), "must be distinct"),
        (lambda: solve_two((-1, 0), y, y, rows), "rank -1 out of range"),
        (lambda: solve_two((0, 3), y, y, rows), "rank 3 out of range"),
        # the ranks are checked before the residuals
        (lambda: solve_one(5, None, None, rows), "rank 5 out of range"),
        (lambda: solve_two((2, 2), None, None, rows), "must be distinct"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError, match=message):
            call()


def test_a_symbol_that_is_no_element_raises_type_error():
    # an int where an element belongs is named by its type at every entry point
    # that reads symbols; an element of another field is still a mismatch
    rows, sum_rows, y = build_rows(4, GF8), build_rows(4, GF8, sum_only=True), GF8.element(3)

    def calls(bad):
        tensor = [[y] * 3, [y] * 3, [bad, y, y], *[[y] * 3] * 3]  # path 3 sends unit 1 first
        yield lambda: run_session(Scheme.NPS2_II, 6, GF8, data=tensor)
        yield lambda: sweep_failures(Scheme.NPS2_II, 6, GF8, data=tensor)
        yield lambda: encode_pair([y, y, bad, y], rows)
        yield lambda: encode_pair([y, bad, y, y], sum_rows)
        yield lambda: residualize(bad, [(0, y)], Row.SUM, rows)
        yield lambda: residualize(y, [(0, y), (2, bad)], Row.WEIGHTED, rows)
        yield lambda: solve_one(1, bad, y, rows)
        yield lambda: solve_one(1, None, bad, rows)
        yield lambda: solve_two((0, 2), bad, y, rows)
        yield lambda: solve_two((0, 2), y, bad, rows)

    for bad, error, message in ((1, TypeError, "expected a FieldElement, got int"),
                                (1.5, TypeError, "expected a FieldElement, got float"),
                                (GF16.element(3), FieldMismatchError,
                                 "element of GF(2^4)/0x13 used in GF(2^3)/0xb")):
        for call in calls(bad):
            with pytest.raises(error) as info:
                call()
            assert type(info.value) is error and str(info.value) == message
            assert error is not TypeError or info.value.__suppress_context__  # no chained error


def test_solve_one_prefers_sum_row():
    rows = build_rows(3, GF8)
    d = GF8.element(6)
    assert solve_one(1, d, GF8.element(1), rows) == d
    # the sum residual is the answer itself, yet it is checked, not passed through
    with pytest.raises(FieldMismatchError) as info:
        solve_one(0, GF16.element(9), None, rows)
    assert str(info.value) == "element of GF(2^4)/0x13 used in GF(2^3)/0xb"


def test_solve_one_weighted_only():
    rows = build_rows(4, GF8)
    # frozen: the unique x with alpha^2 * x == 0b110 is 0b100
    assert solve_one(2, None, GF8.element(0b110), rows) == 0b100
    candidates = [
        x for x in range(8)
        if GF8.mul(rows.row_weighted[2], GF8.element(x)) == 0b110
    ]
    assert candidates == [0b100]
    # rank 0 has unit coefficient on both rows
    r = GF8.element(5)
    assert solve_one(0, None, r, rows) == r


def test_solve_one_without_residuals():
    rows = build_rows(3, GF8)
    with pytest.raises(UnrecoverableError, match="no protection residual"):
        solve_one(1, None, None, rows)


def test_solve_two_gf4_example():
    # frozen: substituting all 16 pairs leaves only (1, a)
    rows = build_rows(2, GF4)
    for ranks in ((0, 1), (1, 0)):  # answers come in ascending rank order either way
        assert solve_two(ranks, GF4.element(0b11), GF4.alpha(), rows) == (GF4.one(), GF4.alpha())


def test_solve_two_decode_matrix_coefficients():
    # erased slots at ranks 1 and 3 solve against weights alpha and alpha^3
    rows = build_rows(5, GF8)
    a = GF8.alpha()
    assert rows.row_weighted[1] == a
    assert rows.row_weighted[3] == a * a * a
    assert rows.row_sum[1] == rows.row_sum[3] == GF8.one()


def test_solve_two_homogeneous():
    rows = build_rows(2, GF4)
    assert solve_two((0, 1), GF4.zero(), GF4.zero(), rows) == (GF4.zero(), GF4.zero())


def test_solve_two_missing_residual():
    rows = build_rows(3, GF8)
    for rs, rw in ((GF8.one(), None), (None, GF8.one()), (None, None)):
        with pytest.raises(UnrecoverableError, match="a residual is missing"):
            solve_two((0, 2), rs, rw, rows)


def test_round_trip_exhaustive_small():
    for m, field in ((2, GF4), (3, GF8)):
        for width in range(1, min(4, field.q)):
            rows = build_rows(width, field)
            erasures = [(t,) for t in range(width)]
            erasures += list(itertools.combinations(range(width), 2))
            for data in itertools.product(field.elements(), repeat=width):
                y_sum, y_weighted = encode_pair(list(data), rows)
                for erased in erasures:
                    known = [(r, d) for r, d in enumerate(data) if r not in erased]
                    rs = residualize(y_sum, known, Row.SUM, rows)
                    rw = residualize(y_weighted, known, Row.WEIGHTED, rows)
                    if len(erased) == 1:
                        got = (solve_one(erased[0], rs, rw, rows),)
                    else:
                        got = solve_two(erased, rs, rw, rows)
                    assert got == tuple(data[t] for t in erased)


def test_round_trip_randomized_wide():
    field = FieldSpec()
    width = 10
    rows = build_rows(width, field)
    rng = random.Random(424242)
    for _ in range(20):
        data = [field.element(rng.randrange(field.q)) for _ in range(width)]
        y_sum, y_weighted = encode_pair(data, rows)
        for t1, t2 in itertools.combinations(range(width), 2):
            known = [(r, d) for r, d in enumerate(data) if r not in (t1, t2)]
            rs = residualize(y_sum, known, Row.SUM, rows)
            rw = residualize(y_weighted, known, Row.WEIGHTED, rows)
            assert solve_two((t1, t2), rs, rw, rows) == (data[t1], data[t2])


def test_exhaustive_substitution_agrees():
    rows = build_rows(3, GF8)
    rng = random.Random(9)
    for _ in range(10):
        data = [GF8.element(rng.randrange(8)) for _ in range(3)]
        y_sum, y_weighted = encode_pair(data, rows)
        for erased in [(0,), (2,), (0, 1), (1, 2)]:
            matches = substitute_decode(GF8, rows, data, erased)
            assert matches == [tuple(data[t] for t in erased)]


def test_binary_parity_mode():
    width = 6
    rows = build_rows(width, GF2, sum_only=True)
    assert len({e.value for e in rows.row_weighted}) == 1
    assert all(e == 1 for e in rows.row_weighted)
    for data in itertools.product(GF2.elements(), repeat=width):
        y_sum, _ = encode_pair(list(data), rows)
        for t in range(width):
            known = [(r, d) for r, d in enumerate(data) if r != t]
            rs = residualize(y_sum, known, Row.SUM, rows)
            assert solve_one(t, rs, None, rows) == data[t]


def test_binary_parity_mode_cannot_solve_two():
    rows = build_rows(4, GF2, sum_only=True)
    with pytest.raises(UnrecoverableError, match="not independent"):
        solve_two((0, 1), GF2.one(), GF2.one(), rows)


def test_sum_only_waives_capacity_bound():
    rows = build_rows(10, GF2, sum_only=True)
    assert rows.width == 10
