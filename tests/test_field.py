"""GF(2^m) arithmetic, checked exhaustively for small m against a
schoolbook polynomial oracle."""

import random

import pytest

from nps2.field import FieldMismatchError, FieldSpec

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
    with pytest.raises(ValueError):
        FieldSpec(3, -0b1011, 2)  # negative bitmask
    with pytest.raises(ValueError):
        FieldSpec(3, 0b1011, 0)
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
    gf = FieldSpec(16, 0x1100B, 0x02)
    assert gf.element(0xBEEF) is gf.element(0xBEEF)
    assert gf.zero() is gf.element(0) and gf.one() is gf.element(1)
    assert gf.alpha() is gf.element(gf.generator)
    assert gf.mul(gf.alpha(), gf.one()) is gf.alpha()
    assert list(GF8.elements()) == [GF8.element(v) for v in range(8)]
    assert all(a is b for a, b in zip(GF8.elements(), GF8.elements()))
    with pytest.raises(ValueError):
        gf.element(1 << 16)
