"""GF(2^m) arithmetic, checked exhaustively for small m against a
schoolbook polynomial oracle."""

import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import nps2
from nps2.field import FieldMismatchError, FieldSpec
from test_codec_properties import PRIMITIVE_POLYS

GF8 = FieldSpec(3, 0b1011, 0b010)
GF4 = FieldSpec(2, 0b111, 0b10)

# one spec per small degree, used by the axiom sweeps
SMALL_FIELDS = {
    1: FieldSpec(1, 0b11, 0b1),
    2: GF4,
    3: GF8,
    4: FieldSpec(4, 0b10011, 0b0010),
}


def ref_mul(a: int, b: int, poly: int, m: int) -> int:
    """Independent oracle: carryless multiply, then long division."""
    prod = 0
    shift = 0
    while b:
        if b & 1:
            prod ^= a << shift
        b >>= 1
        shift += 1
    for bit in range(prod.bit_length() - 1, m - 1, -1):
        if prod >> bit & 1:
            prod ^= poly << (bit - m)
    return prod


def test_add_is_self_inverse():
    for a in GF8.elements():
        assert a + a == GF8.zero()
        assert a + GF8.zero() == a


def test_add_example():
    assert GF8.add(GF8.element(0b011), GF8.element(0b101)) == 0b110


def test_add_round_trip():
    for a in GF8.elements():
        for b in GF8.elements():
            assert GF8.add(GF8.add(a, b), b) == a


def test_mul_identities():
    one, zero = GF8.one(), GF8.zero()
    for a in GF8.elements():
        assert a * one == a
        assert a * zero == zero


def test_mul_matches_schoolbook():
    # frozen from the oracle: (x+1)(x^2+1) mod x^3+x+1 = x^2
    assert GF8.mul(GF8.element(0b011), GF8.element(0b101)) == 0b100
    for a in range(8):
        for b in range(8):
            expect = ref_mul(a, b, 0b1011, 3)
            assert GF8.mul(GF8.element(a), GF8.element(b)) == expect


def test_inv_defining_property():
    assert GF8.inv(GF8.one()) == 1
    for a in range(1, 8):
        assert GF8.mul(GF8.element(a), GF8.inv(GF8.element(a))) == 1


def test_inv_example():
    # frozen from exhaustive search: the unique b with 0b010 * b == 1
    assert GF8.inv(GF8.element(0b010)) == 0b101
    found = [b for b in range(8) if ref_mul(0b010, b, 0b1011, 3) == 1]
    assert found == [0b101]


def test_inv_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        GF8.inv(GF8.zero())


def test_inv_round_trip_default_field():
    gf = FieldSpec()
    for a in range(1, gf.q):
        e = gf.element(a)
        assert gf.mul(e, gf.inv(e)) == 1


def test_pow_conventions():
    for a in GF8.elements():
        assert GF8.pow(a, 0) == 1  # including a = 0
        assert GF8.pow(a, 1) == a
    assert GF8.pow(GF8.alpha(), GF8.q - 1) == 1
    assert GF8.pow(GF8.zero(), 3) == 0
    with pytest.raises(ValueError):
        GF8.pow(GF8.one(), -1)


def test_pow_matches_repeated_mul():
    for a in GF8.elements():
        acc = GF8.one()
        for e in range(12):
            assert GF8.pow(a, e) == acc
            acc = acc * a


@pytest.mark.parametrize("m", sorted(SMALL_FIELDS))
def test_axioms_exhaustive(m):
    gf = SMALL_FIELDS[m]
    elems = list(gf.elements())
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_axioms_random_m8():
    gf = FieldSpec()
    rng = random.Random(20240817)
    for _ in range(2000):
        a, b, c = (gf.element(rng.randrange(gf.q)) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a


def test_generator_powers_distinct():
    gf = FieldSpec()
    powers = {gf.pow(gf.alpha(), e).value for e in range(gf.q - 1)}
    assert len(powers) == gf.q - 1


def test_non_primitive_generator_rejected():
    # alpha^5 has order 3 in GF(16)/x^4+x+1
    with pytest.raises(ValueError, match="not primitive"):
        FieldSpec(4, 0x13, 0x6)
    # 0x02 has order 51 under the 0x11b polynomial
    with pytest.raises(ValueError, match="not primitive"):
        FieldSpec(8, 0x11B, 0x02)


def test_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(0, 0b1, 1)
    with pytest.raises(ValueError):
        FieldSpec(17, (1 << 17) | 1, 2)
    with pytest.raises(ValueError):
        FieldSpec(3, 0b011, 2)  # no degree-3 term
    with pytest.raises(ValueError):
        FieldSpec(3, 0b1010, 2)  # no constant term
    # a negative value prints as -0x..., a positive one as before
    with pytest.raises(ValueError, match=r"^reduction polynomial -0xb does not have degree 3$"):
        FieldSpec(3, -0b1011, 2)  # negative bitmask
    with pytest.raises(ValueError, match=r"^reduction polynomial 0x1b does not have degree 3$"):
        FieldSpec(3, 0b11011, 2)
    with pytest.raises(ValueError, match=r"^generator 0x0 is outside GF\(2\^3\)$"):
        FieldSpec(3, 0b1011, 0)
    with pytest.raises(ValueError, match=r"^generator -0x1 is outside GF\(2\^3\)$"):
        FieldSpec(3, 0b1011, -1)
    with pytest.raises(ValueError, match=r"^generator 0x8 is outside GF\(2\^3\)$"):
        FieldSpec(3, 0b1011, 8)
    with pytest.raises(ValueError):
        FieldSpec(3, 0b1011, 1)  # 1 only generates itself when m > 1
    with pytest.raises(ValueError):
        GF8.element(8)
    with pytest.raises(ValueError):
        GF8.element(-1)


def test_binary_field():
    gf = SMALL_FIELDS[1]
    assert gf.q == 2
    assert gf.one() + gf.one() == 0
    assert gf.inv(gf.one()) == 1
    assert gf.pow(gf.one(), 5) == 1


def test_mismatched_specs_rejected():
    with pytest.raises(FieldMismatchError):
        GF8.element(1) + GF4.element(1)
    with pytest.raises(FieldMismatchError):
        GF8.mul(GF8.element(1), GF4.element(1))
    with pytest.raises(FieldMismatchError):
        GF4.inv(GF8.element(3))


def test_equality_and_hex():
    assert GF8.element(5) == FieldSpec(3, 0b1011, 0b010).element(5)
    assert GF8.element(1) != GF4.element(1)  # same value, different field
    assert GF8.element(5) != GF8.element(4)
    assert GF8.element(5) == 5
    assert GF8.element(5).hex == "5"
    assert FieldSpec().element(0x1D).hex == "1d"
    assert FieldSpec(16, 0x1100B, 0x02).element(0xBEEF).hex == "beef"


def test_equal_elements_and_ints_hash_alike():
    five, other_five = GF8.element(5), FieldSpec(3, 0b1011, 0b010).element(5)
    assert 5 in {five} and five in {5} and other_five in {five}
    assert {five: "x"}[5] == {5: "x"}[five] == {five: "x"}[other_five] == "x"
    assert hash(five) == hash(5) == hash(other_five)
    assert len({GF8.element(1), GF4.element(1)}) == 2  # equal hash, unequal elements


def test_elements_are_shared_instances():
    # one shared instance per value below 256, a fresh equal one above
    gf = FieldSpec(16, 0x1100B, 0x02)
    assert gf.element(0xEF) is gf.element(0xEF)
    assert gf.element(0xBEEF) == gf.element(0xBEEF)
    assert hash(gf.element(0xBEEF)) == hash(gf.element(0xBEEF))
    assert gf.zero() is gf.element(0) and gf.one() is gf.element(1)
    assert gf.alpha() is gf.element(gf.generator)
    assert gf.mul(gf.alpha(), gf.one()) is gf.alpha()
    assert list(GF8.elements()) == [GF8.element(v) for v in range(8)]
    assert all(a is b for a, b in zip(GF8.elements(), GF8.elements()))
    with pytest.raises(ValueError):
        gf.element(1 << 16)


def walk_tables(m: int, poly: int, g: int):
    """Reference exp/log tables by a shift-and-add walk over g's powers, or
    the error message FieldSpec gives when the walk is not a full cycle."""
    q, order = 1 << m, (1 << m) - 1
    exp, log, x = [0] * order, [0] * q, 1
    for i in range(order):
        if x == 1 and i > 0:
            return f"generator 0x{g:x} has order {i}, expected {order}; not primitive"
        exp[i], log[x] = x, i
        prod = 0
        for bit in range(m):
            if g >> bit & 1:
                prod ^= x
            x <<= 1
            if x & q:
                x ^= poly
        x = prod
    if x != 1:
        return f"generator 0x{g:x} does not have order {order}; 0x{poly:x} may be reducible"
    return exp + exp, log


def built_tables(m: int, poly: int, g: int):
    try:
        f = FieldSpec(m, poly, g)
    except ValueError as exc:
        return str(exc)
    return list(f._exp), list(f._log)


@pytest.mark.parametrize("m", sorted(PRIMITIVE_POLYS))
def test_tables_match_shift_and_add_walk(m):
    poly = PRIMITIVE_POLYS[m]
    generators = [1 if m == 1 else 2] + ([3] if m > 1 else [])
    for g in generators:
        expected = walk_tables(m, poly, g)
        assert built_tables(m, poly, g) == expected
        assert isinstance(expected, tuple) or g == 3  # the tabulated generator is primitive


def _any_field(m, data):
    """Any degree-m polynomial with a constant term, reducible or not, and any
    generator in 2..q-1 (1 for m = 1)."""
    poly = 1 << m | data.draw(st.integers(0, (1 << m - 1) - 1), label="middle bits") << 1 | 1
    return poly, 1 if m == 1 else data.draw(st.integers(2, (1 << m) - 1), label="generator")


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.data())
def test_tables_match_the_walk_on_both_sides_of_the_array_switch(m, data):
    # lists up to GF(2^8), arrays doubled by byte planes above: either gives the
    # walk's tables or its message
    poly, g = _any_field(m, data)
    assert built_tables(m, poly, g) == walk_tables(m, poly, g)


@settings(max_examples=6, deadline=None)  # the oracle walks up to 65,535 powers bit by bit
@given(st.integers(13, 16), st.data())
def test_tables_match_the_walk_up_to_gf65536(m, data):
    poly, g = _any_field(m, data)
    assert built_tables(m, poly, g) == walk_tables(m, poly, g)


def test_gf65536_early_order_and_reducible_messages():
    order3 = FieldSpec(16, 0x1100B, 2)._exp[65535 // 3]  # g^21845 has order 3
    x16_plus_1 = 0x10001  # x^16 + 1 = (x + 1)^16
    cases = {
        (16, 0x1100B, order3): f"generator 0x{order3:x} has order 3, expected 65535; not primitive",
        (16, x16_plus_1, 0x2): "generator 0x2 has order 16, expected 65535; not primitive",
        (16, x16_plus_1, 0x3): "generator 0x3 does not have order 65535; 0x10001 may be reducible",
        # the list side: x^8 + 1 = (x + 1)^8, and x returns to 1 after 8 steps, not 255
        (8, 0x101, 0x2): "generator 0x2 has order 8, expected 255; not primitive",
    }
    for (m, poly, g), message in cases.items():
        with pytest.raises(ValueError) as exc:
            FieldSpec(m, poly, g)
        assert str(exc.value) == message == walk_tables(m, poly, g)


def test_reducible_polynomial_message():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2: the walk of 0x7 never returns to 1
    with pytest.raises(ValueError) as exc:
        FieldSpec(4, 0x15, 0x7)
    assert str(exc.value) == "generator 0x7 does not have order 15; 0x15 may be reducible"


def test_tables_are_lists_to_gf256_and_16_bit_arrays_above():
    for m in (1, 8, 9, 16):
        f = FieldSpec(m, PRIMITIVE_POLYS[m], 1 if m == 1 else 2)
        for table, size in ((f._exp, 2 * (f.q - 1)), (f._log, f.q)):
            assert len(table) == size
            if m <= 8:
                assert type(table) is list
            else:
                assert type(table) is array and table.typecode == "H"
    assert type(f.element(40000).value) is int


@pytest.mark.parametrize("m", [8, 16])
def test_element_takes_ints_only(m):
    f = FieldSpec(m, PRIMITIVE_POLYS[m], 2)
    snapshot = list(f._elements)  # the shared elements, built with the spec
    assert all(f.element(v) is f.element(v) for v in range(min(f.q, 256)))
    one = f.element(True)
    assert type(one.value) is int and one.value == 1
    assert type(f.element(True).value) is int and f.element(True) is one
    # in the shared range and above it, before the value is boxed and after
    for value in (v for v in (1, 3, 200, 40000) if v < f.q):
        for _ in range(2):
            for probe in (float(value), Fraction(value)):
                with pytest.raises(TypeError):
                    f.element(probe)
            assert f.element(value).value == value
    assert len(snapshot) == min(f.q, 256) and list(f._elements) == snapshot
    assert all(a is b for a, b in zip(f._elements, snapshot))
    outside = {8: ("0x100", "-0x1"), 16: ("0x10000", "-0x1")}[m]
    for value, text in zip((f.q, -1), outside):
        with pytest.raises(ValueError, match=rf"^value {text} is outside GF\(2\^{m}\)$"):
            f.element(value)


def test_gf65536_tables_stay_small():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f = FieldSpec(16, 0x1100B, 2)
        held, peak = (v - before for v in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert f.q == 1 << 16 and held <= 0.5 * 2**20 and peak <= 0.5 * 2**20


def test_gf256_sweep_never_imports_array():
    # only a table build above GF(2^8) loads the array module, and only the two
    # capacity readers load fractions (and with it decimal); nothing loads datetime
    code = (
        "import sys\n"
        "from nps2.cli import parse_config, run\n"
        "assert run(parse_config(['sweep', '--scheme', 'nps2-i', '--n', '6'])) == 0\n"
        "assert 'array' not in sys.modules, 'GF(2^8)'\n"
        "loaded = {'fractions', 'decimal', 'datetime'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "from nps2 import FailurePattern, FieldSpec, Scheme, build_schedule, run_session\n"
        "from nps2 import schedule_capacity\n"
        "capacity = schedule_capacity(build_schedule(Scheme.NPS2_I, 6))\n"
        "result = run_session(Scheme.NPS2_II, 6, FieldSpec(), FailurePattern({2, 5}))\n"
        "from fractions import Fraction\n"
        "assert type(capacity) is Fraction and capacity == Fraction(2, 3), capacity\n"
        "share = result.normalized_capacity\n"
        "assert type(share) is Fraction and share == Fraction(2, 3), share\n"
        "run(parse_config(['run', '--n', '6', '--field-m', '16', '--field-poly', '1100b']))\n"
        "assert 'array' in sys.modules, 'GF(2^16)'\n"
    )
    src = os.path.dirname(os.path.dirname(nps2.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
