"""Exact arithmetic in binary extension fields GF(2^m).

Elements are integers below 2^m read as polynomials over GF(2): bit i is
the coefficient of x^i. Addition is XOR (characteristic 2, so it is its
own inverse); products are reduced modulo the configured irreducible
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_M = 8
DEFAULT_REDUCTION_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1
DEFAULT_GENERATOR = 0x02


class FieldMismatchError(ValueError):
    """Elements from differently configured fields were combined."""


class FieldSpec:
    """GF(2^m) defined by a reduction polynomial and a primitive generator.

    Parameters
    ----------
    m : int
        Extension degree, 1 <= m <= 16.
    reduction_poly : int
        Bitmask of the degree-m irreducible polynomial (bit i is the
        coefficient of x^i); bits m and 0 must be set.
    generator : int
        Element whose multiplicative order must be exactly 2^m - 1.

    Construction walks the generator's powers to build exp/log tables.
    That walk doubles as validation: a full cycle of length 2^m - 1 is
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
        if not 1 <= m <= 16:
            raise ValueError(f"extension degree must be in 1..16, got {m}")
        if reduction_poly < 0 or reduction_poly.bit_length() != m + 1:
            raise ValueError(
                f"reduction polynomial 0x{reduction_poly:x} does not have degree {m}"
            )
        if not reduction_poly & 1:
            raise ValueError(
                f"reduction polynomial 0x{reduction_poly:x} has no constant term"
            )
        q = 1 << m
        if not 0 < generator < q:
            raise ValueError(f"generator 0x{generator:x} is outside GF(2^{m})")
        if generator == 1 and m > 1:
            raise ValueError("generator 1 cannot generate a field with more than 2 elements")

        self.m = m
        self.q = q
        self.reduction_poly = reduction_poly
        self.generator = generator
        self._elements: dict[int, FieldElement] = {}  # filled on first use of each value
        self._build_tables()

    def _build_tables(self) -> None:
        q, poly, g = self.q, self.reduction_poly, self.generator
        order = q - 1
        exp = [0] * order
        log = [0] * q
        x = 1
        for i in range(order):
            if x == 1 and i > 0:
                raise ValueError(
                    f"generator 0x{self.generator:x} has order {i}, "
                    f"expected {order}; not primitive"
                )
            exp[i] = x
            log[x] = i
            # x * g by shift-and-add, reducing x each time it reaches degree m
            prod, rest = 0, g
            while rest:
                if rest & 1:
                    prod ^= x
                rest >>= 1
                x <<= 1
                if x & q:
                    x ^= poly
            x = prod
        if x != 1:
            raise ValueError(
                f"generator 0x{self.generator:x} does not have order {order}; "
                f"0x{self.reduction_poly:x} may be reducible"
            )
        self._exp = exp + exp  # doubled, so a sum of two logs needs no reduction
        self._log = log

    # -- element construction -------------------------------------------

    def element(self, value: int) -> FieldElement:
        """The one shared, immutable element of this spec holding ``value``."""
        try:
            return self._elements[value]
        except KeyError:
            if not 0 <= value < self.q:
                raise ValueError(f"value 0x{value:x} is outside GF(2^{self.m})") from None
            return self._elements.setdefault(value, FieldElement(value, self))

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

    # -- arithmetic on int values, shared by the boxed operations and codec --

    def _mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def _div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[self._log[a] - self._log[b] + self.q - 1] if a else 0

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
        return self.element(self._mul(a.value, b.value))

    def inv(self, a: FieldElement) -> FieldElement:
        self._check(a)
        return self.element(self._div(1, a.value))

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
    type of the library, whose engine computes on the int values."""

    value: int
    spec: FieldSpec

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
        return hash((self.value, self.spec))

    @property
    def hex(self) -> str:
        """Zero-padded lowercase hex, width fixed by the field degree."""
        return f"{self.value:0{(self.spec.m + 3) // 4}x}"

    def __repr__(self) -> str:
        return f"FieldElement(0x{self.hex})"
