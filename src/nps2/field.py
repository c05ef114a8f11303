"""Exact arithmetic in binary extension fields GF(2^m).

Elements are integers below 2^m read as polynomials over GF(2): bit i is
the coefficient of x^i. Addition is XOR (characteristic 2, so it is its
own inverse); products are reduced modulo the configured irreducible
polynomial.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from operator import index

DEFAULT_M = 8
DEFAULT_REDUCTION_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1
DEFAULT_GENERATOR = 0x02


class FieldMismatchError(ValueError):
    """Elements from differently configured fields were combined."""


def _check_int(name: str, value) -> None:
    """The library's int-argument rule: TypeError naming ``name`` unless ``value``
    is an int, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")


def _spans(c: int, poly: int, q: int, low: int, high: int) -> tuple[list[int], list[int]]:
    """c * x as lo[x % 2^low] ^ hi[x >> low], since it is GF(2)-linear in x."""
    lo, hi = [0], [0]
    for t in [lo] * low + [hi] * high:
        t += [x ^ c for x in t]
        c <<= 1
        if c & q:
            c ^= poly
    return lo, hi


def _double(powers: list[int], c: int, poly: int, q: int) -> bytearray:
    """g^0 .. g^(q-1) as native 16-bit values, from the first powers and c, the next
    one: each pass appends c times the known powers, by split-table lookups on byte
    planes (as in RAID-6 and Plank, Greenan and Miller, FAST 2013), and squares c."""
    planes = [bytearray(x >> s & 255 for x in powers) for s in (0, 8)]  # low, high
    while len(planes[0]) < q:
        lo, hi = _spans(c, poly, q, 8, 8)  # by the low and by the high byte of x
        low_lo, high_lo, low_hi, high_hi = (
            int.from_bytes(p.translate(bytes(x >> s & 255 for x in t)), "little")
            for s in (0, 8) for p, t in zip(planes, (lo, hi)))
        n = len(planes[0])
        planes[0] += (low_lo ^ high_lo).to_bytes(n, "little")
        planes[1] += (low_hi ^ high_hi).to_bytes(n, "little")
        c = lo[c & 255] ^ hi[c >> 8]
    packed, low_at = bytearray(2 * q), int(sys.byteorder == "big")
    packed[low_at::2], packed[1 - low_at::2] = planes
    return packed


class FieldSpec:
    """GF(2^m) defined by a reduction polynomial and a primitive generator.

    Parameters
    ----------
    m : int
        Extension degree, 1 <= m <= 16. Each argument is an int, not a bool.
    reduction_poly : int
        Bitmask of the degree-m irreducible polynomial (bit i is the
        coefficient of x^i); bits m and 0 must be set.
    generator : int
        Element whose multiplicative order must be exactly 2^m - 1.

    Construction walks the generator's first powers and, for m > 8, doubles
    them by byte-plane table lookups to build the exp/log tables. The
    tables double as validation: a full cycle of length 2^m - 1 is
    possible only if the polynomial is irreducible and the generator is
    primitive, which the coefficient rows rely on for distinct weights.
    """

    __slots__ = ("m", "q", "reduction_poly", "generator", "_exp", "_log", "_elements")

    def __init__(
        self,
        m: int = DEFAULT_M,
        reduction_poly: int = DEFAULT_REDUCTION_POLY,
        generator: int = DEFAULT_GENERATOR,
    ):
        for name, value in (("m", m), ("reduction_poly", reduction_poly), ("generator", generator)):
            _check_int(name, value)
        if not 1 <= m <= 16:
            raise ValueError(f"extension degree must be in 1..16, got {m}")
        if reduction_poly < 0 or reduction_poly.bit_length() != m + 1:
            raise ValueError(
                f"reduction polynomial {reduction_poly:#x} does not have degree {m}"
            )
        if not reduction_poly & 1:
            raise ValueError(
                f"reduction polynomial 0x{reduction_poly:x} has no constant term"
            )
        q = 1 << m
        if not 0 < generator < q:
            raise ValueError(f"generator {generator:#x} is outside GF(2^{m})")

        self.m = m
        self.q = q
        self.reduction_poly = reduction_poly
        self.generator = generator
        self._build_tables()
        self._elements = tuple([FieldElement(v, self) for v in range(min(q, 256))])  # shared

    def _build_tables(self) -> None:
        m, q, poly, g, order = self.m, self.q, self.reduction_poly, self.generator, self.q - 1
        h = (m + 1) // 2  # walk the first min(q, 256) powers, x * g as lo[x & mask] ^ hi[x >> h]
        lo, hi = _spans(g, poly, q, h, m - h)
        exp, x, mask = [0] * min(q, 256), 1, (1 << h) - 1
        for i in range(len(exp)):
            exp[i] = x
            x = lo[x & mask] ^ hi[x >> h]
        if m <= 8:  # every value is a cached small int, and a list is the faster read
            log = [0] * q
        else:  # 16-bit arrays keep no int object per value, as lists would
            from array import array
            exp, log = array("H", _double(exp, x, poly, q)), array("H", [0]) * q
        for i, x in zip(range(order), exp):
            log[x] = i
        if log[1]:  # a later power overwrote g^0 = 1: the first such is at g's order
            raise ValueError(
                f"generator 0x{g:x} has order {exp.index(1, 1)}, expected {order}; not primitive"
            )
        if exp[order] != 1:
            raise ValueError(
                f"generator 0x{g:x} does not have order {order}; 0x{poly:x} may be reducible"
            )
        del exp[order:]
        exp *= 2  # doubled, so a sum of two logs needs no reduction
        self._exp, self._log = exp, log

    # -- element construction -------------------------------------------

    def element(self, value: int) -> FieldElement:
        """The immutable element of this spec holding ``value``, as FieldElement checks
        it: below 256 one of the instances built with the spec (every value for m <= 8),
        above it a fresh one."""
        shared = self._elements
        if 0 <= value < len(shared):
            return shared[value]  # a float or a Fraction is no index
        return FieldElement(value, self)

    def zero(self) -> FieldElement:
        return self.element(0)

    def one(self) -> FieldElement:
        return self.element(1)

    def alpha(self) -> FieldElement:
        """The configured generator as an element."""
        return self.element(self.generator)

    def elements(self):
        """All q elements in value order."""
        return (self.element(v) for v in range(self.q))

    # -- arithmetic on elements ------------------------------------------

    def _check(self, *elems: FieldElement) -> None:
        for e in elems:
            if e.spec is not self and e.spec != self:
                raise FieldMismatchError(
                    f"element of GF(2^{e.spec.m})/0x{e.spec.reduction_poly:x} "
                    f"used in GF(2^{self.m})/0x{self.reduction_poly:x}"
                )

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        """Characteristic-2 sum; doubles as subtraction."""
        self._check(a, b)
        return self.element(a.value ^ b.value)

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self._check(a, b)
        x, y = a.value, b.value
        return self.element(self._exp[self._log[x] + self._log[y]] if x and y else 0)

    def inv(self, a: FieldElement) -> FieldElement:
        self._check(a)
        if not a:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.element(self._exp[self.q - 1 - self._log[a.value]])

    def pow(self, a: FieldElement, e: int) -> FieldElement:
        """e-fold product; pow(a, 0) is 1 by convention, including a = 0."""
        self._check(a)
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e == 0:
            return self.one()
        return self.element(self._exp[self._log[a.value] * e % (self.q - 1)] if a else 0)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (
            self.m == other.m
            and self.reduction_poly == other.reduction_poly
            and self.generator == other.generator
        )

    def __hash__(self) -> int:
        return hash((self.m, self.reduction_poly, self.generator))

    def __repr__(self) -> str:
        return (
            f"FieldSpec(m={self.m}, reduction_poly=0x{self.reduction_poly:x}, "
            f"generator=0x{self.generator:x})"
        )


@dataclass(frozen=True, slots=True)
class FieldElement:
    """A value of the ambient FieldSpec, kept reduced below 2^m: the boundary
    type of the library, whose engine computes on the int values: an int (a bool
    counts as 0 or 1) in 0..2^m - 1 of a FieldSpec, else ValueError or TypeError."""

    value: int
    spec: FieldSpec

    def __init__(self, value: int, spec: FieldSpec):
        if not isinstance(spec, FieldSpec):
            raise TypeError(f"element spec must be a FieldSpec, got {type(spec).__name__}")
        value = index(value)  # TypeError for a float or a Fraction
        if value >> spec.m:  # 0 exactly when 0 <= value < 2^m
            raise ValueError(f"value {value:#x} is outside GF(2^{spec.m})")
        # the slots' own setters: the frozen dataclass's __init__ goes through
        # object.__setattr__, ~0.9 us an element against ~0.45 us for these
        _set_value(self, value)
        _set_spec(self, spec)

    def __add__(self, other: FieldElement) -> FieldElement:
        return self.spec.add(self, other)

    __sub__ = __add__  # subtraction equals addition in characteristic 2

    def __mul__(self, other: FieldElement) -> FieldElement:
        return self.spec.mul(self, other)

    def __truediv__(self, other: FieldElement) -> FieldElement:
        return self.spec.mul(self, self.spec.inv(other))

    def __pow__(self, e: int) -> FieldElement:
        return self.spec.pow(self, e)

    def inverse(self) -> FieldElement:
        return self.spec.inv(self)

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self is other or (self.value == other.value and self.spec == other.spec)
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)  # equal to the int it equals, as __eq__ requires

    @property
    def hex(self) -> str:
        """Zero-padded lowercase hex, width fixed by the field degree."""
        return f"{self.value:0{(self.spec.m + 3) // 4}x}"

    def __repr__(self) -> str:
        return f"FieldElement(0x{self.hex})"


_set_value, _set_spec = FieldElement.value.__set__, FieldElement.spec.__set__
