"""Property tests: the field axioms hold, and the int-valued field and
codec agree with boxed FieldElement arithmetic and with a schoolbook
oracle, for every degree m = 1..16; mixed fields are still rejected at the
codec entry points, and the solvers answer every input as their fully
checked route does."""

import functools
import operator

import pytest
from hypothesis import given, settings, strategies as st

from nps2.codec import (
    CoefficientRows,
    FieldCapacityError,
    Row,
    UnrecoverableError,
    _check_ranks,
    build_rows,
    encode_pair,
    residualize,
    solve_one,
    solve_two,
)
from nps2.field import FieldMismatchError, FieldSpec

# primitive polynomials with generator x (generator 1 for GF(2)), as tabulated
# in Plank's Reed-Solomon tutorial; m = 16 is the CLI benchmark's 0x1100b
PRIMITIVE_POLYS = {
    1: 0x3, 2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x89, 8: 0x11D,
    9: 0x211, 10: 0x409, 11: 0x805, 12: 0x1053, 13: 0x201B, 14: 0x4443,
    15: 0x8003, 16: 0x1100B,
}
FIELDS = {m: FieldSpec(m, poly, 1 if m == 1 else 2) for m, poly in PRIMITIVE_POLYS.items()}
MAX_WIDTH = 64


def schoolbook_mul(a: int, b: int, field: FieldSpec) -> int:
    """Carryless multiply, then long division by the field polynomial."""
    prod = 0
    for shift in range(b.bit_length()):
        if b >> shift & 1:
            prod ^= a << shift
    for bit in range(prod.bit_length() - 1, field.m - 1, -1):
        if prod >> bit & 1:
            prod ^= field.reduction_poly << (bit - field.m)
    return prod


def boxed_sum(elements, field):
    return functools.reduce(operator.add, elements, field.zero())


@st.composite
def coded_round(draw, sum_only=False):
    """A field, its coefficient rows over a drawn width, and one round of data."""
    field = FIELDS[draw(st.integers(1, 16))]
    limit = MAX_WIDTH if sum_only else min(field.q - 1, MAX_WIDTH)
    width = draw(st.integers(1, limit))
    rows = build_rows(width, field, sum_only=sum_only)
    values = draw(st.lists(st.integers(0, field.q - 1), min_size=width, max_size=width))
    return field, rows, [field.element(v) for v in values]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_field_ops_match_schoolbook(data):
    field = FIELDS[data.draw(st.integers(1, 16))]
    a, b = (field.element(data.draw(st.integers(0, field.q - 1))) for _ in range(2))
    assert (a * b).value == schoolbook_mul(a.value, b.value, field)
    assert (a + b).value == a.value ^ b.value
    if b:
        assert schoolbook_mul(b.inverse().value, b.value, field) == 1


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_field_axioms(data):
    field = FIELDS[data.draw(st.integers(1, 16))]
    a, b, c = (field.element(data.draw(st.integers(0, field.q - 1))) for _ in range(3))
    zero, one = field.zero(), field.one()
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a + a == zero  # every element is its own additive inverse
    if a:
        assert a * a.inverse() == one
        assert (b / a) * a == b


@settings(max_examples=200, deadline=None)
@given(coded_round())
def test_encode_pair_matches_boxed_sum(case):
    field, rows, data = case
    y_sum, y_weighted = encode_pair(data, rows)
    assert y_sum == boxed_sum(data, field)
    assert y_weighted == boxed_sum((w * d for w, d in zip(rows.row_weighted, data)), field)


@settings(max_examples=200, deadline=None)
@given(coded_round(), st.data())
def test_one_and_two_erasures_round_trip(case, data):
    field, rows, values = case
    erased = sorted(data.draw(
        st.sets(st.integers(0, rows.width - 1), min_size=1, max_size=min(2, rows.width))
    ))
    y_sum, y_weighted = encode_pair(values, rows)
    known = [(r, v) for r, v in enumerate(values) if r not in erased]
    residual_sum = residualize(y_sum, known, Row.SUM, rows)
    residual_weighted = residualize(y_weighted, known, Row.WEIGHTED, rows)
    assert residual_sum == boxed_sum((values[t] for t in erased), field)
    assert residual_weighted == boxed_sum(
        (rows.row_weighted[t] * values[t] for t in erased), field
    )
    expect = tuple(values[t] for t in erased)
    if len(erased) == 1:
        for rs, rw in ((residual_sum, None), (None, residual_weighted)):
            assert (solve_one(erased[0], rs, rw, rows),) == expect
    else:  # the answer is in ascending rank order, whatever order the ranks come in
        for ranks in (erased, erased[::-1]):
            assert solve_two(ranks, residual_sum, residual_weighted, rows) == expect


@settings(max_examples=200, deadline=None)
@given(coded_round(sum_only=True), st.data())
def test_sum_only_recovers_single_erasures(case, data):
    field, rows, values = case
    rank = data.draw(st.integers(0, rows.width - 1))
    y_sum, y_weighted = encode_pair(values, rows)
    assert y_sum == y_weighted == boxed_sum(values, field)
    known = [(r, v) for r, v in enumerate(values) if r != rank]
    rs = residualize(y_sum, known, Row.SUM, rows)
    rw = residualize(y_weighted, known, Row.WEIGHTED, rows)
    assert rs == rw == values[rank]
    assert solve_one(rank, rs, None, rows) == values[rank]
    assert solve_one(rank, None, rw, rows) == values[rank]


@functools.cache
def twin(m: int) -> FieldSpec:
    """A spec equal to FIELDS[m] that is another instance."""
    field = FIELDS[m]
    return FieldSpec(m, field.reduction_poly, field.generator)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, MAX_WIDTH), st.data())
def test_sum_only_encode_over_gf2(width, data):
    # GF(2)'s exp table holds two entries, fewer than a sum-only row's ranks;
    # a symbol of an equal field from another instance counts the same
    field = FIELDS[1]
    rows = build_rows(width, field, sum_only=True)
    values = data.draw(st.lists(st.integers(0, 1), min_size=width, max_size=width))
    specs = data.draw(st.lists(st.sampled_from([field, twin(1)]), min_size=width,
                               max_size=width))
    symbols = [spec.element(v) for spec, v in zip(specs, values)]
    parity = field.element(functools.reduce(operator.xor, values))
    assert encode_pair(symbols, rows) == (parity, parity)
    assert all(y.spec is field for y in encode_pair(symbols, rows))


def checked_solve_one(rank, residual_sum, residual_weighted, rows):
    """solve_one with every check taken: the ranks through _check_ranks and
    each residual through the field's _check."""
    _check_ranks((rank,), 1, rows)
    field = rows.field
    if residual_sum is not None:
        field._check(residual_sum)
        return residual_sum
    if residual_weighted is not None:
        field._check(residual_weighted)
        w = 1 if rows.sum_only else field._exp[rank]
        return field.element(field._div(residual_weighted.value, w))
    raise UnrecoverableError(f"no protection residual available for rank {rank}")


def checked_solve_two(ranks, residual_sum, residual_weighted, rows):
    """solve_two with every check taken, as checked_solve_one."""
    t1, t2 = _check_ranks(ranks, 2, rows)
    if residual_sum is None or residual_weighted is None:
        raise UnrecoverableError(f"two unknowns at ranks {(t1, t2)} but a residual is missing")
    field = rows.field
    field._check(residual_sum, residual_weighted)
    w1, w2 = (1, 1) if rows.sum_only else (field._exp[t1], field._exp[t2])
    if not (det := w1 ^ w2):
        raise UnrecoverableError(f"protection rows are not independent over ranks {t1}, {t2}")
    rs = residual_sum.value
    x2 = field._div(residual_weighted.value ^ field._mul(w1, rs), det)
    return field.element(rs ^ x2), field.element(x2)


def answer(solve, *args):
    """The values and spec objects a solver returns, or its exception's type
    and message."""
    try:
        result = solve(*args)
    except Exception as exc:  # the property compares whatever either route raises
        return type(exc), str(exc)
    return [(e.value, id(e.spec)) for e in (result if isinstance(result, tuple) else (result,))]


RANK_CONTAINERS = {"list": list, "tuple": tuple, "set": set,
                   "generator": lambda ranks: (r for r in ranks)}


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_solvers_answer_as_their_checked_route(data):
    # the solvers skip _check_ranks and _check only for inputs those would
    # pass unchanged: any other rank container, order, count or range, or a
    # residual of another spec instance, gets the checked route's answer,
    # or its exception type and message
    m = data.draw(st.sampled_from([1, 2, 3, 4, 8, 16]))
    field = FIELDS[m]
    sum_only = data.draw(st.booleans())
    width = data.draw(st.integers(1, 16 if sum_only else min(field.q - 1, 16)))
    rows = build_rows(width, field, sum_only=sum_only)
    specs = {"same": field, "twin": twin(m), "foreign": FIELDS[4 if m == 3 else 3]}

    def residual():
        spec = specs.get(data.draw(st.sampled_from([None, *specs])))
        return None if spec is None else spec.element(data.draw(st.integers(0, spec.q - 1)))

    rank = st.one_of(st.integers(0, width - 1), st.sampled_from([-1, width]), st.booleans())
    rs, rw = residual(), residual()
    one = data.draw(rank)
    assert answer(solve_one, one, rs, rw, rows) == answer(checked_solve_one, one, rs, rw, rows)
    ranks = data.draw(st.lists(rank, max_size=3))
    make = RANK_CONTAINERS[data.draw(st.sampled_from(sorted(RANK_CONTAINERS)))]
    assert answer(solve_two, make(ranks), rs, rw, rows) == answer(
        checked_solve_two, make(ranks), rs, rw, rows)


GF8 = FIELDS[3]
GF16 = FIELDS[4]


def test_mixed_fields_rejected_at_codec_entry_points():
    rows = build_rows(3, GF8)
    good = [GF8.element(v) for v in (1, 2, 3)]
    stranger = GF16.element(2)
    with pytest.raises(FieldMismatchError):
        encode_pair([good[0], stranger, good[2]], rows)
    with pytest.raises(FieldMismatchError):
        residualize(stranger, [(0, good[0])], Row.SUM, rows)
    with pytest.raises(FieldMismatchError):
        residualize(good[0], [(0, good[0]), (1, stranger)], Row.WEIGHTED, rows)
    with pytest.raises(FieldMismatchError):
        solve_one(1, None, stranger, rows)
    with pytest.raises(FieldMismatchError):
        solve_two((0, 1), good[0], stranger, rows)


def test_equal_field_from_another_instance_is_accepted():
    twin = FieldSpec(3, GF8.reduction_poly, GF8.generator)
    assert twin is not GF8 and twin == GF8
    rows = build_rows(3, GF8)
    data = [twin.element(v) for v in (5, 0, 7)]
    assert encode_pair(data, rows) == encode_pair([GF8.element(v) for v in (5, 0, 7)], rows)
    y = residualize(twin.element(4), [(0, twin.element(5))], Row.SUM, rows)
    assert y == GF8.element(4 ^ 5)


def test_rows_width_checks():
    with pytest.raises(ValueError, match="positive"):
        CoefficientRows(0, GF8)
    with pytest.raises(FieldCapacityError, match="m >= 4"):
        CoefficientRows(8, GF8)
    rows = CoefficientRows(8, GF8, sum_only=True)
    assert rows.row_weighted == rows.row_sum == (GF8.one(),) * 8


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16), st.data())
def test_rows_derive_the_papers_pair(m, data):
    # the reference is the boxed construction: generator^t by field.pow
    f = FIELDS[m]
    width = data.draw(st.integers(1, min(f.q - 1, MAX_WIDTH)))
    rows = CoefficientRows(width, f)
    assert rows.row_weighted == tuple(f.pow(f.alpha(), t) for t in range(width))
    assert rows.row_sum == (f.one(),) * width
    # rows share the field's elements below 256; a larger value's is fresh
    assert all(e is f.element(e.value) if e.value < 256 else e == f.element(e.value)
               for e in rows.row_sum + rows.row_weighted)


def test_rows_equal_and_hash_by_width_field_and_sum_only():
    twin = FieldSpec(3, GF8.reduction_poly, GF8.generator)
    rows = CoefficientRows(5, GF8)
    assert rows == CoefficientRows(5, twin) == build_rows(5, GF8)
    assert hash(rows) == hash(CoefficientRows(5, twin))
    assert len({rows, CoefficientRows(5, twin), CoefficientRows(5, GF8, sum_only=True),
                CoefficientRows(4, GF8), CoefficientRows(5, GF16)}) == 4
    with pytest.raises(TypeError):
        CoefficientRows(2, GF8, False, (GF8.one(),) * 2)
