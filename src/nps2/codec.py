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
from typing import Iterable, Sequence

from .field import FieldElement, FieldSpec


class Row(Enum):
    SUM = "sum"
    WEIGHTED = "weighted"


class FieldCapacityError(ValueError):
    """The field is too small to give the weighted row distinct entries."""


class UnrecoverableError(Exception):
    """Fewer usable protection residuals than erased symbols."""


@dataclass(frozen=True)
class CoefficientRows:
    """The two generator rows over ``width`` protected slots.

    row_sum is all ones. row_weighted holds generator^t at rank t, so any
    two columns form an invertible 2x2 minor; in sum-only mode both rows
    are all ones (plain parity, single-erasure protection only). ``logs``
    holds each row's coefficient logs for the int engine.
    """

    width: int
    row_sum: tuple[FieldElement, ...]
    row_weighted: tuple[FieldElement, ...]
    field: FieldSpec

    def __post_init__(self):
        self.field._check(*self.row_sum, *self.row_weighted)
        if not all(self.row_sum + self.row_weighted):
            raise ValueError("coefficients must be nonzero")
        log = self.field._log
        logs = {r: tuple(log[e.value] for e in self.row(r)) for r in Row}
        object.__setattr__(self, "logs", logs)

    def row(self, which: Row) -> tuple[FieldElement, ...]:
        return self.row_sum if which is Row.SUM else self.row_weighted

    @property
    def distinct_weights(self) -> bool:
        return len({e.value for e in self.row_weighted}) == self.width


def check_width(width: int, field: FieldSpec) -> None:
    """Raise FieldCapacityError unless the weighted row over ``width`` slots
    can have pairwise distinct entries: width <= 2^m - 1."""
    if width > field.q - 1:
        raise FieldCapacityError(
            f"width {width} exceeds the {field.q - 1} distinct nonzero elements "
            f"of GF(2^{field.m}); needs m >= {width.bit_length()}"
        )


def build_rows(width: int, field: FieldSpec, *, sum_only: bool = False) -> CoefficientRows:
    """Build the coefficient rows for ``width`` protected slots.

    Requires width <= 2^m - 1 so the weighted entries are pairwise
    distinct. With ``sum_only`` both rows are all ones and the bound is
    waived; this is the binary-field parity mode, good for one erasure.
    """
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    if not sum_only:
        check_width(width, field)
    one = field.one()
    row_sum = (one,) * width
    if sum_only:
        row_weighted = row_sum
    else:
        row_weighted = tuple(field.pow(field.alpha(), t) for t in range(width))
    return CoefficientRows(width, row_sum, row_weighted, field)


def encode_pair(
    data: Sequence[FieldElement], rows: CoefficientRows
) -> tuple[FieldElement, FieldElement]:
    """Form the (sum, weighted) protection pair over one round's data."""
    if len(data) != rows.width:
        raise ValueError(f"expected {rows.width} data symbols, got {len(data)}")
    field = rows.field
    exp, log = field._exp, field._log
    field._check(*data)
    y_sum = y_weighted = 0
    for lw, d in zip(rows.logs[Row.WEIGHTED], data):
        if v := d.value:
            y_sum ^= v
            y_weighted ^= exp[log[v] + lw]
    return field.element(y_sum), field.element(y_weighted)


def residualize(
    y_received: FieldElement,
    known: Iterable[tuple[int, FieldElement]],
    row: Row,
    rows: CoefficientRows,
) -> FieldElement:
    """Strip the known contributions from a received protection symbol.

    What remains is the row's coefficient combination over the missing
    ranks only (subtraction is addition in characteristic 2).
    """
    field = rows.field
    field._check(y_received)
    exp, log = field._exp, field._log
    logs = rows.logs[row]
    residual = y_received.value
    seen = [False] * rows.width
    for rank, value in known:
        if not 0 <= rank < rows.width:
            raise ValueError(f"rank {rank} out of range for width {rows.width}")
        if seen[rank]:
            raise ValueError(f"duplicate rank {rank} in known contributions")
        seen[rank] = True
        if value.spec is not field:
            field._check(value)
        if v := value.value:
            residual ^= exp[log[v] + logs[rank]]
    return field.element(residual)


def _check_ranks(ranks: Sequence[int], count: int, rows: CoefficientRows) -> tuple[int, ...]:
    """``ranks`` in ascending order, once each is known to be one of
    ``count`` distinct ranks in 0..width-1."""
    if len(ranks) != count:
        raise ValueError(f"expected {count} missing rank(s), got {len(ranks)}")
    if len(set(ranks)) != count:
        raise ValueError(f"missing ranks must be distinct, got {tuple(ranks)}")
    for r in ranks:
        if not 0 <= r < rows.width:
            raise ValueError(f"rank {r} out of range for width {rows.width}")
    return tuple(sorted(ranks))


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
    _check_ranks((rank,), 1, rows)
    if residual_sum is not None:
        rows.field._check(residual_sum)
        return residual_sum
    if residual_weighted is not None:
        rows.field._check(residual_weighted)
        return rows.field.element(
            rows.field._div(residual_weighted.value, rows.row_weighted[rank].value))
    raise UnrecoverableError(f"no protection residual available for rank {rank}")


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
    t1, t2 = _check_ranks(ranks, 2, rows)
    if residual_sum is None or residual_weighted is None:
        raise UnrecoverableError(f"two unknowns at ranks {(t1, t2)} but a residual is missing")
    field = rows.field
    field._check(residual_sum, residual_weighted)
    w1 = rows.row_weighted[t1].value
    det = w1 ^ rows.row_weighted[t2].value
    if not det:
        raise UnrecoverableError(f"protection rows are not independent over ranks {t1}, {t2}")
    rs = residual_sum.value
    x2 = field._div(residual_weighted.value ^ field._mul(w1, rs), det)
    return field.element(rs ^ x2), field.element(x2)
