"""Protection-symbol coding and erasure recovery.

Two coefficient rows combine the n-2 working symbols of a round into two
protection symbols: a plain sum row and a weighted row whose coefficient
at rank t is generator^t. Any one or two erased working symbols are then
recovered by subtracting the known contributions from the received
protection symbols and solving the remaining 1x1 or 2x2 system.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

from .field import FieldElement, FieldSpec, _check_int


class Row(Enum):
    SUM = "sum"
    WEIGHTED = "weighted"


_WEIGHTED = Row.WEIGHTED  # read once: a read through the class is slow


class FieldCapacityError(ValueError):
    """The field is too small to give the weighted row distinct entries."""


class UnrecoverableError(Exception):
    """Fewer usable protection residuals than erased symbols."""


def _not_an_element(symbol) -> TypeError:
    """The error for a symbol without an element's spec and value, such as an int."""
    return TypeError(f"expected a FieldElement, got {type(symbol).__name__}")


@dataclass(frozen=True)
class CoefficientRows:
    """The two generator rows over ``width`` protected slots, fixed by
    (width, field, sum_only) and compared and hashed by those three.

    row_sum is all ones (RAID-6's P, added by XOR); row_weighted holds
    generator^t at rank t (Q), so any two columns form an invertible 2x2
    minor, or under sum_only generator^0 (parity, one erasure only). Both are
    built on first read from _exponents, the weighted row's one rule.
    """

    width: int
    field: FieldSpec
    sum_only: bool = False

    def __post_init__(self):
        width, field = self.width, self.field
        _check_int("width", width)
        if not isinstance(field, FieldSpec):
            raise TypeError(f"field must be a FieldSpec, got {field!r}")
        if not isinstance(self.sum_only, bool):
            raise TypeError(f"sum_only must be a bool, got {self.sum_only!r}")
        if width < 1:
            raise ValueError(f"width must be positive, got {width}")
        if not self.sum_only and width > field.q - 1:
            raise FieldCapacityError(
                f"width {width} exceeds the {field.q - 1} distinct nonzero elements "
                f"of GF(2^{field.m}); needs m >= {width.bit_length()}"
            )

    @cached_property
    def _exponents(self) -> Sequence[int]:  # rank t's weighted coefficient is g^_exponents[t]
        return (0,) * self.width if self.sum_only else range(self.width)

    @cached_property
    def row_sum(self) -> tuple[FieldElement, ...]:
        return (self.field.one(),) * self.width

    @cached_property
    def row_weighted(self) -> tuple[FieldElement, ...]:
        return tuple([self.field.element(self.field._exp[e]) for e in self._exponents])


def build_rows(width: int, field: FieldSpec, *, sum_only: bool = False) -> CoefficientRows:
    """New coefficient rows for ``width`` protected slots.

    Requires width <= 2^m - 1 so the weighted entries are pairwise
    distinct. With ``sum_only`` both rows are all ones and the bound is
    waived; this is the binary-field parity mode, good for one erasure.
    """
    return CoefficientRows(width, field, sum_only)


def encode_pair(
    data: Sequence[FieldElement], rows: CoefficientRows
) -> tuple[FieldElement, FieldElement]:
    """Form the (sum, weighted) protection pair over one round's data: v at
    rank t adds v to the sum and its weighted coefficient times v to the other."""
    if len(data) != rows.width:
        raise ValueError(f"expected {rows.width} data symbols, got {len(data)}")
    field = rows.field
    exp, log = field._exp, field._log
    y_sum = y_weighted = 0
    try:
        for e, d in zip(rows._exponents, data):
            if d.spec is not field:
                field._check(d)
            if v := d.value:
                y_sum ^= v
                y_weighted ^= exp[log[v] + e]
    except AttributeError:
        raise _not_an_element(d) from None
    return field.element(y_sum), field.element(y_weighted)


def residualize(
    y_received: FieldElement,
    known: Iterable[tuple[int, FieldElement]],
    row: Row,
    rows: CoefficientRows,
) -> FieldElement:
    """Strip the known contributions from a received protection symbol.

    ``known`` ascends strictly by rank. What remains is the row's sum over
    the missing ranks (subtraction is addition in characteristic 2): a known
    v at rank t goes out as v from the sum row, generator^t * v from the other,
    which for sum-only rows is the sum row.
    """
    field = rows.field
    exp, log, width = field._exp, field._log, rows.width
    prev, value = -1, y_received  # value: the symbol being read, named if it is no element
    try:
        if y_received.spec is not field:
            field._check(y_received)
        if not isinstance(row, Row):
            raise TypeError(f"row must be a Row, got {row!r}")
        weighted = row is _WEIGHTED and not rows.sum_only
        residual = y_received.value
        for rank, value in known:
            if not prev < rank < width:
                raise ValueError(
                    f"rank {rank} out of range for width {width}" if not 0 <= rank < width
                    else f"duplicate rank {rank} in known contributions" if rank == prev
                    else f"rank {rank} follows rank {prev}: known ranks must ascend")
            prev = rank
            if value.spec is not field:
                field._check(value)
            if v := value.value:
                residual ^= exp[log[v] + rank] if weighted else v
    except AttributeError:
        raise _not_an_element(value) from None
    return field.element(residual)


def solve_one(
    rank: int,
    residual_sum: FieldElement | None,
    residual_weighted: FieldElement | None,
    rows: CoefficientRows,
) -> FieldElement:
    """Recover a single erased symbol from whichever residual survived
    (None marks a lost protection symbol).

    The sum row is preferred when both are available (its coefficient is
    1, no inversion needed).
    """
    field = rows.field
    if not 0 <= rank < rows.width:
        raise ValueError(f"rank {rank} out of range for width {rows.width}")
    try:
        if residual_sum is not None:
            if residual_sum.spec is not field:
                field._check(residual_sum)
            return residual_sum
        if residual_weighted is None:
            raise UnrecoverableError(f"no protection residual available for rank {rank}")
        if residual_weighted.spec is not field:
            field._check(residual_weighted)
        v = residual_weighted.value
    except AttributeError:
        raise _not_an_element(residual_weighted if residual_sum is None else residual_sum) from None
    e = rows._exponents[rank]  # v / generator^e is a read of the tables
    return field.element(field._exp[field._log[v] - e + field.q - 1] if v else 0)


def solve_two(
    ranks: Sequence[int],
    residual_sum: FieldElement | None,
    residual_weighted: FieldElement | None,
    rows: CoefficientRows,
) -> tuple[FieldElement, FieldElement]:
    """Recover two erased symbols by closed-form 2x2 elimination.

    With w1, w2 the weighted coefficients of the missing ranks, the first
    equation (x1 + x2 = rs) is scaled by w1 and subtracted from the
    second (w1*x1 + w2*x2 = rw), leaving (w1 + w2)*x2 = rw + w1*rs.
    Results come back in ascending rank order.
    """
    if len(ranks) != 2:
        raise ValueError(f"expected 2 missing rank(s), got {len(ranks)}")
    t1, t2 = ranks
    if t1 == t2:
        raise ValueError(f"missing ranks must be distinct, got {tuple(ranks)}")
    for t in (t1, t2):
        if not 0 <= t < rows.width:
            raise ValueError(f"rank {t} out of range for width {rows.width}")
    if t1 > t2:
        t1, t2 = t2, t1
    if residual_sum is None or residual_weighted is None:
        raise UnrecoverableError(f"two unknowns at ranks {(t1, t2)} but a residual is missing")
    field = rows.field
    try:
        if residual_sum.spec is not field or residual_weighted.spec is not field:
            field._check(residual_sum, residual_weighted)
        rs, rw = residual_sum.value, residual_weighted.value
    except AttributeError:
        raise _not_an_element(residual_weighted if isinstance(residual_sum, FieldElement)
                              else residual_sum) from None
    exp, log, e = field._exp, field._log, rows._exponents
    w1, w2 = exp[e[t1]], exp[e[t2]]
    if not (det := w1 ^ w2):
        raise UnrecoverableError(f"protection rows are not independent over ranks {t1}, {t2}")
    y = rw ^ (exp[log[w1] + log[rs]] if rs else 0)  # rw + w1 * rs
    x2 = exp[log[y] - log[det] + field.q - 1] if y else 0  # y / det
    return field.element(rs ^ x2), field.element(x2)
