"""Coded protection of n disjoint sender-receiver paths against one or
two persistent link failures per session (schemes NPS2-I and NPS2-II)."""

from .codec import (
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
from .field import FieldElement, FieldMismatchError, FieldSpec
from .schemes import (
    ProtectedSlot,
    Scheme,
    SessionSchedule,
    SlotKind,
    build_schedule,
    protected_slots,
    schedule_capacity,
)
from .simnet import (
    NO_FAILURES,
    FailurePattern,
    Outcome,
    Scenario,
    SessionResult,
    SweepReport,
    all_patterns,
    generate_source_data,
    recover_round,
    run_session,
    sweep_failures,
    trace_lines,
    transmit_round,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientRows",
    "FailurePattern",
    "FieldCapacityError",
    "FieldElement",
    "FieldMismatchError",
    "FieldSpec",
    "NO_FAILURES",
    "Outcome",
    "ProtectedSlot",
    "Row",
    "Scenario",
    "Scheme",
    "SessionResult",
    "SessionSchedule",
    "SlotKind",
    "SweepReport",
    "UnrecoverableError",
    "all_patterns",
    "build_rows",
    "build_schedule",
    "encode_pair",
    "generate_source_data",
    "protected_slots",
    "recover_round",
    "residualize",
    "run_session",
    "schedule_capacity",
    "solve_one",
    "solve_two",
    "sweep_failures",
    "trace_lines",
    "transmit_round",
]
