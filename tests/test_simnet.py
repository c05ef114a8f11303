"""Session engine: transmission, per-round recovery, sweeps."""

import json
import random
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import pytest

import nps2.simnet
from nps2.cli import _entry
from nps2.codec import build_rows, encode_pair
from nps2.field import FieldSpec
from nps2.schemes import Scheme, SlotKind, build_schedule, schedule_capacity
from nps2.simnet import (
    NO_FAILURES,
    FailurePattern,
    Outcome,
    Scenario,
    SweepReport,
    all_patterns,
    generate_source_data,
    recover_round,
    run_session,
    sweep_failures,
    trace_lines,
    transmit_round,
)
from test_schemes import cells, working_slots

GF256 = FieldSpec()
GF4 = FieldSpec(2, 0b111, 0b10)
GF2 = FieldSpec(1, 0b11, 0b1)


def test_generate_source_data_deterministic():
    a = generate_source_data(6, 3, 2, 1234, GF256)
    b = generate_source_data(6, 3, 2, 1234, GF256)
    assert a == b
    assert len(a) == 2 and len(a[0]) == 6 and len(a[0][0]) == 3


def test_generate_source_data_seed_sensitivity():
    a = generate_source_data(8, 4, 1, 1, GF256)
    b = generate_source_data(8, 4, 1, 2, GF256)
    assert a != b


def test_transmit_round_nps2ii_n4_round1():
    sched = build_schedule(Scheme.NPS2_II, 4)
    rows = build_rows(2, GF256)
    data = generate_source_data(4, 2, 1, 5, GF256)[0]
    survivors = transmit_round(sched, 1, data, NO_FAILURES, rows)
    assert list(survivors) == [1, 2, 3, 4]
    assert [cells(sched)[0][p - 1][0] for p in survivors] == [
        SlotKind.PROTECTION_SUM,
        SlotKind.PROTECTION_WEIGHTED,
        SlotKind.WORKING,
        SlotKind.WORKING,
    ]
    y_sum, y_weighted = encode_pair([data[2][0], data[3][0]], rows)
    assert survivors == {1: y_sum, 2: y_weighted, 3: data[2][0], 4: data[3][0]}


def test_transmit_round_erases_failed_path():
    sched = build_schedule(Scheme.NPS2_II, 4)
    rows = build_rows(2, GF256)
    data = generate_source_data(4, 2, 1, 5, GF256)[0]
    survivors = transmit_round(sched, 1, data, FailurePattern({3}), rows)
    assert list(survivors) == [1, 2, 4]


def test_transmit_round_zero_tensor_zero_protection():
    sched = build_schedule(Scheme.NPS2_II, 6)
    rows = build_rows(4, GF256)
    data = [[GF256.zero()] * 3 for _ in range(6)]
    for r in (1, 2, 3):
        survivors = transmit_round(sched, r, data, NO_FAILURES, rows)
        assert len(survivors) == 6
        assert all(payload == 0 for payload in survivors.values())


def test_recover_round_protection_only():
    # dedicated pair (4, 5): losing both protection paths needs no solve
    result = run_session(Scheme.NPS2_I, 5, GF256, FailurePattern({4, 5}), seed=3,
                         session_index=4)
    assert result.schedule.pairs[0] == (4, 5)
    assert result.outcome is Outcome.COMPLETE
    assert result.recovered_count == 0
    assert all(s is Scenario.PROTECTION_ONLY for s in result.round_scenarios.values())


def test_recover_round_two_working_exhaustive_oracle():
    sched = build_schedule(Scheme.NPS2_II, 4)
    rows = build_rows(2, GF4)
    data = generate_source_data(4, 2, 1, 21, GF4)[0]
    failure = FailurePattern({3, 4})
    packets = transmit_round(sched, 1, data, failure, rows)
    rec = recover_round(packets, sched, 1, rows)
    assert rec.scenario is Scenario.DOUBLE_WORKING
    assert rec.delivered[(3, 1)] == data[2][0]
    assert rec.delivered[(4, 1)] == data[3][0]
    # exhaustive substitution over all GF(4)^2 candidate pairs
    y_sum, y_weighted = encode_pair([data[2][0], data[3][0]], rows)
    matches = [
        (u, v)
        for u in GF4.elements()
        for v in GF4.elements()
        if encode_pair([u, v], rows) == (y_sum, y_weighted)
    ]
    assert matches == [(data[2][0], data[3][0])]


def test_recover_round_mixed_failure_both_rounds():
    # paths {1, 3}: each is protection in one round and working in the other
    result = run_session(Scheme.NPS2_II, 4, GF256, FailurePattern({1, 3}), seed=8)
    assert result.round_scenarios == {
        1: Scenario.SINGLE_WORKING,
        2: Scenario.SINGLE_WORKING,
    }
    assert result.outcome is Outcome.COMPLETE
    assert result.recovered_count == 2


def test_recover_round_sum_row_failed_uses_weighted():
    sched = build_schedule(Scheme.NPS2_II, 4)
    rows = build_rows(2, GF256)
    data = generate_source_data(4, 2, 1, 13, GF256)[0]
    failure = FailurePattern({1, 4})  # round 1: sum carrier and one working slot
    packets = transmit_round(sched, 1, data, failure, rows)
    rec = recover_round(packets, sched, 1, rows)
    assert rec.scenario is Scenario.SINGLE_WORKING
    assert rec.delivered[(4, 1)] == data[3][0]


def test_recover_round_excess_loss_keeps_direct_survivors():
    # NPS2-I session 0 protects on paths 1 and 2; three working losses leave
    # three unknowns for two rows
    sched = build_schedule(Scheme.NPS2_I, 6)
    rows = build_rows(4, GF256)
    data = generate_source_data(6, 6, 1, 11, GF256)[0]
    failure = FailurePattern({3, 4, 5})
    rec = recover_round(transmit_round(sched, 2, data, failure, rows), sched, 2, rows)
    assert rec.scenario is Scenario.EXCESS_LOSS
    assert rec.recovered == ()
    assert rec.lost == (3, 4, 5)
    assert rec.delivered == {(6, 2): data[5][1]}
    result = run_session(Scheme.NPS2_I, 6, GF256, failure, seed=11)
    assert result.unrecoverable_rounds == tuple((r, (3, 4, 5)) for r in range(1, 7))
    assert result.recovered_count == 0


def test_transmit_round_refuses_a_failed_path_beyond_n():
    # one failed-path rule for the engine and the one-round API: a path the
    # schedule does not have is refused with run_session's message
    sched = build_schedule(Scheme.NPS2_I, 6)
    rows = build_rows(4, GF256)
    data = generate_source_data(6, 6, 1, 11, GF256)[0]
    message = r"^failed path 9 exceeds path count 6$"
    with pytest.raises(ValueError, match=message):
        transmit_round(sched, 1, data, [3, 9], rows)
    with pytest.raises(ValueError, match=message):
        run_session(Scheme.NPS2_I, 6, GF256, [3, 9], data=data)


def round_one_without_path_3():
    """NPS2-I n=6 session 0 over GF(2^8), where x_p^d = 10(p-1) + d: round 1's
    schedule, rows, data and the packets that arrive when path 3 fails."""
    sched, rows = build_schedule(Scheme.NPS2_I, 6), build_rows(4, GF256)
    data = [[GF256.element(10 * (p - 1) + d) for d in range(1, 7)] for p in range(1, 7)]
    return sched, rows, data, transmit_round(sched, 1, data, [3], rows)


def test_recover_round_reads_a_missing_packet_as_a_failed_path():
    # path 5's packet is gone too: the round has two unknowns, x_3^1 and x_5^1,
    # and both come back exact from the two carriers
    sched, rows, data, survivors = round_one_without_path_3()
    del survivors[5]
    rec = recover_round(survivors, sched, 1, rows)
    assert rec.scenario is Scenario.DOUBLE_WORKING and rec.lost == ()
    assert rec.recovered == ((3, 1), (5, 1))
    assert [v.value for v in rec.values] == [0x15, 0x29]
    assert list(rec.delivered.items()) == [((p, 1), data[p - 1][0]) for p in (4, 6, 3, 5)]


@pytest.mark.parametrize("payload", [0x15, 0x63], ids=hex)
def test_recover_round_reads_an_arrived_packet_as_a_live_path(payload):
    # a packet on path 3 means path 3 delivered: the collector solves nothing and
    # delivers what arrived, x_3^1 = 0x15 when path 3 sends its own symbol
    sched, rows, data, survivors = round_one_without_path_3()
    survivors[3] = GF256.element(payload)
    rec = recover_round(survivors, sched, 1, rows)
    assert rec.scenario is Scenario.NO_FAILURE and rec.lost == ()
    assert rec.recovered == () and rec.values == ()
    assert rec.delivered == {(3, 1): GF256.element(payload),
                             **{(p, 1): data[p - 1][0] for p in (4, 5, 6)}}


def test_transmit_round_refuses_rows_too_short_for_their_units():
    # run_session's shape rule: path 3 sends 6 units, so a 5-unit row is refused
    sched, rows = build_schedule(Scheme.NPS2_I, 6), build_rows(4, GF256)
    data = generate_source_data(6, 6, 1, 11, GF256)[0]
    data[2] = data[2][:5]
    message = (r"^data must be 6 rows at least \[0, 0, 6, 6, 6, 6\] long, "
               r"got \[6, 6, 5, 6, 6, 6\]$")
    for call in (lambda: transmit_round(sched, 1, data, NO_FAILURES, rows),
                 lambda: run_session(Scheme.NPS2_I, 6, GF256, data=data)):
        with pytest.raises(ValueError, match=message):
            call()


def test_recover_round_sum_only_double_working_is_lost():
    # over GF(2) with sum-only rows, two unknowns share one independent row
    sched = build_schedule(Scheme.NPS2_II, 6)
    rows = build_rows(4, GF2, sum_only=True)
    data = generate_source_data(6, 3, 1, 12, GF2)[0]
    failure = FailurePattern({3, 5})
    rec = recover_round(transmit_round(sched, 1, data, failure, rows), sched, 1, rows)
    assert rec.scenario is Scenario.DOUBLE_WORKING
    assert rec.recovered == ()
    assert rec.lost == (3, 5)
    assert rec.delivered == {(4, 1): data[3][0], (6, 1): data[5][0]}


def test_sum_only_session_loses_a_double_working_loss():
    # run_session builds its own rows, so sum_only holds over a large field too
    failure = FailurePattern({3, 5})
    assert not run_session(Scheme.NPS2_II, 6, GF256, failure, seed=1, sum_only=True).complete
    assert run_session(Scheme.NPS2_II, 6, GF256, failure, seed=1).complete
    report = sweep_failures(Scheme.NPS2_II, 6, GF256, seed=1, sum_only=True)
    assert 0 < report.complete_count < report.session_count


def test_recovered_round_loses_nothing():
    sched = build_schedule(Scheme.NPS2_II, 6)
    rows = build_rows(4, GF256)
    data = generate_source_data(6, 3, 1, 13, GF256)[0]
    for failure in (NO_FAILURES, FailurePattern({1}), FailurePattern({3}), FailurePattern({3, 5})):
        rec = recover_round(transmit_round(sched, 1, data, failure, rows), sched, 1, rows)
        assert rec.lost == ()
        assert rec.delivered == {(p, d): data[p - 1][d - 1] for p, d in rec.delivered}
        assert len(rec.delivered) == 4


def test_sweep_report_totals_follow_results():
    report = sweep_failures(Scheme.NPS2_II, 6, GF2, seed=14, sum_only=True)
    results = report.results
    assert [f.name for f in fields(report)] == ["results"]
    lost = [r for r in results if not r.complete]
    assert lost and all(r.unrecoverable_rounds for r in lost)
    assert report.complete_count == len(results) - len(lost)
    assert report.complete_rate == (len(results) - len(lost)) / len(results)
    histogram = {}
    for r in results:
        histogram[r.scenario.value] = histogram.get(r.scenario.value, 0) + 1
    assert report.scenario_histogram == histogram
    assert "double-working" in histogram
    # recovery writes only to failed paths' slots
    assert report.recovered_total == sum(p in r.failure for r in results for p, _ in r.delivered)


def test_run_session_no_failures():
    for scheme in Scheme:
        result = run_session(scheme, 6, GF256, seed=9)
        assert result.outcome is Outcome.COMPLETE
        assert result.recovered_count == 0
        assert result.scenario is Scenario.NO_FAILURE
        assert result.normalized_capacity == 1


def test_run_session_binary_single_failures():
    for scheme in Scheme:
        for n in (4, 8):
            for p in range(1, n + 1):
                result = run_session(
                    scheme, n, GF2, FailurePattern({p}), seed=31, sum_only=True
                )
                assert result.outcome is Outcome.COMPLETE, (scheme, n, p)


def test_run_session_three_failures_unrecoverable():
    result = run_session(Scheme.NPS2_II, 6, GF256, FailurePattern({1, 3, 5}), seed=2)
    assert result.outcome is Outcome.UNRECOVERABLE
    assert result.unrecoverable_rounds
    assert "round" in result.detail and "failed paths" in result.detail
    # every round is lost, yet each round's direct survivors still arrive
    assert set(result.round_scenarios.values()) == {Scenario.EXCESS_LOSS}
    assert set(result.delivered) == {(p, d) for p in (2, 4, 6) for d in (1, 2)}
    result = run_session(Scheme.NPS2_I, 5, GF256, FailurePattern({1, 2, 3}), seed=2)
    assert result.outcome is Outcome.UNRECOVERABLE


def test_conservation():
    # every erased working symbol is recovered exactly once, never doubly
    for scheme, n in ((Scheme.NPS2_I, 6), (Scheme.NPS2_II, 6)):
        sched = build_schedule(scheme, n)
        for pattern in all_patterns(n):
            result = run_session(scheme, n, GF256, pattern, seed=44)
            erased = sum(
                1
                for row in cells(sched)
                for path, (kind, _) in enumerate(row, 1)
                if kind is SlotKind.WORKING and path in pattern
            )
            assert result.recovered_count == erased
            assert set(result.delivered) == {s for row in working_slots(sched) for s in row}


def test_capacity_accounting():
    for pattern in (NO_FAILURES, FailurePattern({2}), FailurePattern({1, 5})):
        result = run_session(Scheme.NPS2_II, 6, GF256, pattern, seed=7)
        assert result.normalized_capacity == Fraction(6 - len(pattern), 6)
        assert schedule_capacity(result.schedule) == Fraction(4, 6)


def test_scenario_tag_matches_slot_kinds():
    # re-derive the tag from the cells' kinds, independently of the engine
    for scheme, n in ((Scheme.NPS2_I, 5), (Scheme.NPS2_II, 6)):
        for pattern in all_patterns(n):
            result = run_session(scheme, n, GF256, pattern, seed=3)
            sched = result.schedule
            for r, tag in result.round_scenarios.items():
                kinds = [
                    cells(sched)[r - 1][p - 1][0]
                    for p in sorted(pattern.failed_paths)
                ]
                working = kinds.count(SlotKind.WORKING)
                protection = len(kinds) - working
                if not kinds:
                    expect = Scenario.NO_FAILURE
                elif working == 0:
                    expect = Scenario.PROTECTION_ONLY
                elif working > 2 - protection:
                    expect = Scenario.EXCESS_LOSS
                elif working == 1:
                    expect = Scenario.SINGLE_WORKING
                else:
                    expect = Scenario.DOUBLE_WORKING
                assert tag is expect


def test_determinism():
    kwargs = dict(seed=77, session_index=1)
    a = run_session(Scheme.NPS2_I, 6, GF256, FailurePattern({2, 4}), **kwargs)
    b = run_session(Scheme.NPS2_I, 6, GF256, FailurePattern({2, 4}), **kwargs)
    assert a.delivered == b.delivered
    assert trace_lines(a) == trace_lines(b)


GOLDEN_TRACE = [
    '{"kind":"protection-sum","path":1,"payload_hex":"5","round":1,"sender":1,"session":0}',
    '{"kind":"working","path":3,"payload_hex":"6","round":1,"sender":3,"session":0}',
    '{"kind":"working","path":4,"payload_hex":"3","round":1,"sender":4,"session":0}',
    '{"kind":"working","path":1,"payload_hex":"7","round":2,"sender":1,"session":0}',
    '{"kind":"protection-sum","path":3,"payload_hex":"3","round":2,"sender":3,"session":0}',
    '{"kind":"protection-weighted","path":4,"payload_hex":"4","round":2,"sender":4,"session":0}',
]


def test_trace_golden_file():
    # pins the wire format; round 1 loses y_2^1 with path 2, round 2 loses
    # x_2^1, recovered as 3 xor 7 = 4 on the sum row
    gf8 = FieldSpec(3, 0b1011, 0b010)
    result = run_session(Scheme.NPS2_II, 4, gf8, FailurePattern({2}), seed=2024)
    assert trace_lines(result) == GOLDEN_TRACE
    assert result.complete and result.recovered_count == 1


def test_trace_record_shape():
    result = run_session(Scheme.NPS2_II, 4, GF256, FailurePattern({2}), seed=5)
    records = [json.loads(line) for line in trace_lines(result)]
    assert len(records) == 3 * 2  # three survivors per round, two rounds
    assert set(records[0]) == {"session", "round", "sender", "path", "kind", "payload_hex"}
    keys = [(p["session"], p["round"], p["sender"]) for p in records]
    assert keys == sorted(keys)
    assert all(p["path"] == p["sender"] for p in records)


def test_sweep_nps2ii_n6():
    report = sweep_failures(Scheme.NPS2_II, 6, GF256, seed=15)
    assert report.session_count == 1 + 6 + 15
    assert report.complete_rate == 1.0


def test_sweep_nps2i_n4_histogram():
    report = sweep_failures(Scheme.NPS2_I, 4, GF256, seed=15)
    assert report.session_count == 11
    assert sum(report.scenario_histogram.values()) == 11
    assert report.complete_rate == 1.0
    # session 0 dedicates paths {1, 2}: 3 patterns hit only protection
    assert report.scenario_histogram == {
        "no-failure": 1,
        "protection-only": 3,
        "single-working": 6,
        "double-working": 1,
    }


def test_sweep_minimal_n3():
    report = sweep_failures(Scheme.NPS2_I, 3, GF256, seed=6)
    assert report.session_count == 7
    assert report.complete_rate == 1.0


def test_field_limit_width():
    # width equal to the number of nonzero elements is the last legal size
    gf16 = FieldSpec(4, 0x13, 0x2)
    result = run_session(Scheme.NPS2_I, 17, gf16, FailurePattern({3, 9}), seed=12)
    assert result.complete
    result = run_session(Scheme.NPS2_I, 257, GF256, FailurePattern({100, 257}), seed=12)
    assert result.complete


def test_sweep_rotates_dedicated_pair_across_sessions():
    # every rotation of a full cycle; odd n wraps to (n, 1), whose sum
    # carrier is the higher path
    expected = {
        5: [(1, 2), (3, 4), (5, 1), (2, 3), (4, 5)],
        6: [(1, 2), (3, 4), (5, 6)] * 2,
        7: [(1, 2), (3, 4), (5, 6), (7, 1), (2, 3), (4, 5), (6, 7)],
    }
    for n, pairs in expected.items():
        rotated = []
        for idx in range(n):
            report = sweep_failures(Scheme.NPS2_I, n, GF256, seed=4, session_index=idx)
            assert report.complete_rate == 1.0, (n, idx)
            rotated.append(report.results[0].schedule.pairs[0])
        assert rotated == pairs


def test_failure_pattern_validation():
    with pytest.raises(ValueError):
        FailurePattern({0})
    with pytest.raises(ValueError):
        FailurePattern({-3, 1})
    assert len(FailurePattern({1, 2})) == 2
    assert 1 in FailurePattern({1})
    # the paths are kept distinct and ascending, whatever order they come in
    assert FailurePattern([2, 1, 2]) == FailurePattern({1, 2})
    assert hash(FailurePattern([2, 1, 2])) == hash(FailurePattern({1, 2}))
    assert FailurePattern([2, 1, 2]).failed_paths == (1, 2)
    assert FailurePattern([5, 3]) != FailurePattern([3])
    assert repr(FailurePattern([5, 3])) == "FailurePattern([3, 5])"


def test_failure_pattern_is_the_tuple_of_its_paths():
    pattern = FailurePattern([3, 1, 3])
    assert isinstance(pattern, tuple) and FailurePattern.__slots__ == ()
    assert pattern == (1, 3) and (1, 3) == pattern and hash(pattern) == hash((1, 3))
    assert pattern.failed_paths is pattern
    assert {(1, 3): "pair"}[pattern] == "pair"
    # tuple's own protocol, none written again
    deleted = {"__init__", "__len__", "__contains__", "__eq__", "__hash__"}
    assert not deleted & vars(FailurePattern).keys()
    with pytest.raises(ValueError, match=r"^path labels are positive integers, got 0$"):
        FailurePattern([2, 0])


def test_round_recovery_keeps_only_what_recover_round_computed():
    sched = build_schedule(Scheme.NPS2_II, 6)
    rows = build_rows(4, GF256)
    data = generate_source_data(6, sched.rounds, 1, 5, GF256)[0]
    failure = FailurePattern({3, 5})
    survivors = transmit_round(sched, 1, data, failure, rows)
    rec = recover_round(survivors, sched, 1, rows)
    assert [f.name for f in fields(rec)] == ["scenario", "recovered", "values", "lost",
                                             "delivered"]
    assert rec.delivered is rec.delivered
    before = dict(rec.delivered)
    assert before == {(p, 1): data[p - 1][0] for p in (3, 4, 5, 6)}
    # the caller's map is not kept: a later change to it leaves the recovery as it was
    survivors[4] = GF256.element(survivors[4].value ^ 1)
    del survivors[6]
    assert rec.delivered == before


def test_failed_path_out_of_range():
    with pytest.raises(ValueError, match="exceeds"):
        run_session(Scheme.NPS2_II, 4, GF256, FailurePattern({9}), seed=1)


@pytest.mark.parametrize("rows, length", [(4, 3), (3, 4), (5, 4)])
def test_data_of_the_wrong_shape_is_refused(rows, length):
    data = [[GF256.one()] * length] * rows
    for call in (run_session, sweep_failures):
        with pytest.raises(ValueError, match=r"data must be 4 rows at least \[0, 0, 4, 4\] long"):
            call(Scheme.NPS2_I, 4, GF256, data=data)


def test_data_rows_need_only_the_units_their_paths_send():
    # NPS2-I session 0 protects on paths 1 and 2, so their rows may be empty;
    # an NPS2-II path sends n/2 - 1 units and a longer row is not read past that
    short = [[], [], *[[GF256.element(p)] * 4 for p in (3, 4)]]
    result = run_session(Scheme.NPS2_I, 4, GF256, FailurePattern({3}), data=short)
    assert result.complete
    # the trace takes its payload width from a symbol the session sent, not
    # from the empty row 1
    y_sum, y_weighted = encode_pair(short[2][:1] + short[3][:1], build_rows(2, GF256))
    assert [json.loads(line) for line in trace_lines(result)] == [
        {"kind": kind, "path": path, "payload_hex": payload, "round": r, "sender": path,
         "session": 0}
        for r in range(1, 5)
        for path, kind, payload in ((1, "protection-sum", y_sum.hex),
                                    (2, "protection-weighted", y_weighted.hex),
                                    (4, "working", "04"))]
    assert y_sum.hex == "07"
    nps2ii = [[GF256.element(p)] * 3 for p in range(1, 7)]
    assert sweep_failures(Scheme.NPS2_II, 6, GF256, data=nps2ii).complete_rate == 1.0
    with pytest.raises(ValueError, match=r"at least \[2, 2, 2, 2, 2, 2\] long, got \[3, 3, 3, 3, 3, 1\]"):
        run_session(Scheme.NPS2_II, 6, GF256, data=[*nps2ii[:5], nps2ii[5][:1]])


def test_sweep_results_keep_two_flat_tuples():
    # a session keeps its solved symbols and arrived protection payloads as
    # two flat tuples and a reference to the sweep's one frozen tensor, which
    # no session copies; the recovered dict is built only when read
    data = tuple(map(tuple, generate_source_data(16, 16, 1, 5, GF256)[0]))
    sweep_failures(Scheme.NPS2_I, 16, GF256, data=data)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = sweep_failures(Scheme.NPS2_I, 16, GF256, data=data)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.complete_rate == 1.0
    assert kept / report.session_count < 1_000
    assert len({id(r.data) for r in report.results}) == 1 and report.results[0].data == data
    assert not any("recovered" in vars(r) for r in report.results)
    last = report.results[-1]
    assert len(last.recovered) == last.recovered_count == len(last.solved) == 2 * 16
    assert "recovered" in vars(last)


def result_fields(result):
    """What a session computed, with the spec of every element it holds."""
    boxed = [(v.value, v.spec) for v in result.solved] + [
        None if y is None else (y.value, y.spec) for y in result.received]
    return (boxed, result.outcome, result.scenarios, result.unrecoverable_rounds,
            result.delivered)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_sweep_sessions_equal_lone_sessions(scheme):
    # a sweep's sessions read the rounds their shared rows gathered once; a
    # lone session given the same rows as tuples gathers each round itself,
    # keeps that very tuple and no gathered round, and computes the same
    n = 8
    data = tuple(map(tuple, generate_source_data(
        n, build_schedule(scheme, n).rounds, 1, 13, GF256)[0]))
    report = sweep_failures(scheme, n, GF256, data=data)
    shared = report.results[0].data
    assert all(r.data is shared for r in report.results)
    assert shared == data and shared is not data
    assert all(type(row) is tuple for row in shared)
    for swept in report.results:
        lone = run_session(scheme, n, GF256, swept.failure, data=data)
        assert lone.data is data and type(lone.data) is tuple
        assert result_fields(lone) == result_fields(swept)
    # rows given as lists are frozen into plain tuple rows, as before
    listed = run_session(scheme, n, GF256, FailurePattern({3, 6}), data=[*map(list, data)])
    assert type(listed.data) is tuple and listed.data == data
    assert all(type(row) is tuple for row in listed.data)


@pytest.mark.parametrize("scheme, other, index", [
    (Scheme.NPS2_I, Scheme.NPS2_II, 0), (Scheme.NPS2_II, Scheme.NPS2_I, 0),
    (Scheme.NPS2_I, Scheme.NPS2_I, 3)], ids=["i-then-ii", "ii-then-i", "i-session-3"])
def test_a_sweeps_rows_under_another_schedule_run_as_a_lone_session(scheme, other, index):
    # a sweep's rows hold the rounds of its one schedule only: a session under
    # another schedule, the other scheme's or another NPS2-I session's, gathers
    # its own rounds as a lone session does and leaves the rows as they were
    n = 8
    data = tuple(map(tuple, generate_source_data(n, n, 1, 17, GF256)[0]))
    rows = sweep_failures(scheme, n, GF256, data=data).results[0].data
    assert rows.schedule is build_schedule(scheme, n) and rows == data
    kept = dict(vars(rows))
    assert kept.keys() == {"schedule", "rounds"}
    for pattern in all_patterns(n):
        on_rows = run_session(other, n, GF256, pattern, session_index=index, data=rows)
        lone = run_session(other, n, GF256, pattern, session_index=index, data=data)
        assert on_rows.data is rows and on_rows.schedule is not rows.schedule
        assert result_fields(on_rows) == result_fields(lone)
    assert vars(rows).keys() == kept.keys()
    assert all(vars(rows)[key] is value for key, value in kept.items())
    # nothing of the other schedules stays once their results are dropped
    def sessions(data):
        for session in range(1, n):
            run_session(Scheme.NPS2_I, n, GF256, FailurePattern({3, 5}), session_index=session,
                        data=data)

    sessions(data)  # builds the schedules, which the builder keeps
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sessions(rows)
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < 2_000


def test_complete_rate_folds_the_results_once():
    class Counted(tuple):
        def __iter__(self):
            self.iterations += 1
            return super().__iter__()

    report = sweep_failures(Scheme.NPS2_II, 6, GF256, seed=3)
    counted = Counted(report.results)
    for name in ("complete_rate", "session_count", "complete_count", "recovered_total",
                 "scenario_histogram"):
        counted.iterations = 0
        assert getattr(SweepReport(counted), name) == getattr(report, name)
        assert counted.iterations == 1, name
    assert report.complete_rate == 1.0


@pytest.mark.parametrize("counts, error, message", [
    ((2, -1, 1), ValueError, "rounds_per_session must be nonnegative, got -1"),
    ((-2, 1, 1), ValueError, "n must be nonnegative, got -2"),
    ((2, 1, -1), ValueError, "sessions must be nonnegative, got -1"),
    ((True, 1, 1), TypeError, "n must be an int, got True"),
    ((2, 1.0, 1), TypeError, "rounds_per_session must be an int, got 1.0"),
    ((2, 1, "1"), TypeError, "sessions must be an int, got '1'"),
    ((2, False, -1), TypeError, "rounds_per_session must be an int, got False"),
], ids=["negative-rounds", "negative-n", "negative-sessions", "bool-n", "float-rounds",
        "str-sessions", "type-before-sign"])
def test_generate_source_data_refuses_a_count_that_is_no_size(counts, error, message):
    # the counts are checked before the first draw: a shared RNG keeps its state
    rng = random.Random(4)
    state = rng.getstate()
    with pytest.raises(error) as info:
        generate_source_data(*counts, rng, GF256)
    assert type(info.value) is error and str(info.value) == message
    assert rng.getstate() == state
    # zero is an empty draw, and a draw after one keeps the stream
    assert generate_source_data(0, 3, 2, rng, GF256) == [[], []]
    assert generate_source_data(2, 0, 1, rng, GF256) == [[[], []]]
    assert generate_source_data(2, 3, 0, rng, GF256) == []
    assert rng.getstate() == state
    assert generate_source_data(2, 3, 1, rng, GF256) == generate_source_data(2, 3, 1, 4, GF256)


def test_run_session_refuses_untyped_inputs():
    # a scheme's string value is refused, not run as NPS2-II on an unchecked n
    with pytest.raises(TypeError, match="scheme must be a Scheme"):
        run_session("nps2-i", 8, GF256)
    with pytest.raises(TypeError, match="scheme must be a Scheme"):
        run_session("nps2-ii", 7, GF256)
    with pytest.raises(TypeError, match="session_index must be an int"):
        run_session(Scheme.NPS2_I, 8, GF256, session_index=1.5)


def test_classify_round_direct():
    # NPS2-II, n=4: paths 1, 2 protect in round 1 and carry data in round 2
    def tags(*failed):
        return run_session(Scheme.NPS2_II, 4, GF256, FailurePattern(failed)).round_scenarios

    assert tags(1, 2) == {1: Scenario.PROTECTION_ONLY, 2: Scenario.DOUBLE_WORKING}
    assert tags(1, 2, 3) == {1: Scenario.EXCESS_LOSS, 2: Scenario.EXCESS_LOSS}


@pytest.mark.parametrize("scheme, plans", [(Scheme.NPS2_I, 1), (Scheme.NPS2_II, 4)])
def test_one_plan_per_protection_pair(monkeypatch, scheme, plans):
    # NPS2-I keeps its pair for all 8 rounds, NPS2-II moves it every round
    made = []
    plan = nps2.simnet._round_plan
    monkeypatch.setattr(nps2.simnet, "_round_plan", lambda *args: made.append(args) or plan(*args))
    result = run_session(scheme, 8, GF256, FailurePattern({3, 4}), seed=2)
    assert len(made) == len(result.scenarios) == plans
    assert result.complete and len(result.round_scenarios) == result.schedule.rounds
    assert set(result.round_scenarios.values()) == set(result.scenarios)


def test_concurrent_sessions_share_immutable_state():
    # distinct sessions only share the field and the schedule; run them in
    # parallel and check each sink matches a sequential rerun
    from concurrent.futures import ThreadPoolExecutor

    patterns = all_patterns(6)

    def job(pattern):
        return run_session(Scheme.NPS2_II, 6, GF256, pattern, seed=50)

    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(job, patterns))
    for pattern, result in zip(patterns, parallel):
        again = job(pattern)
        assert result.delivered == again.delivered
        assert result.outcome is again.outcome
        assert result.complete


def test_failure_pattern_rejects_bool_paths():
    with pytest.raises(ValueError):
        FailurePattern({True})
    with pytest.raises(ValueError):
        FailurePattern([2, False])


@pytest.mark.parametrize("scheme", list(Scheme))
def test_sweep_sessions_share_schedule_but_not_delivered(scheme):
    report = sweep_failures(scheme, 6, GF256, seed=21)
    assert len({id(r.schedule) for r in report.results}) == 1
    assert len({id(r.delivered) for r in report.results}) == len(report.results)
    first, second = report.results[:2]
    key = next(iter(first.delivered))
    before = second.delivered[key]
    first.delivered[key] = GF256.element(first.delivered[key].value ^ 1)
    assert second.delivered[key] is before
    # sessions 0 and 3 of n=6 share a protection pair, hence one schedule object;
    # the session number lives on the result, so packets and report entries keep it
    zero, three = (run_session(scheme, 6, GF256, FailurePattern({2}), seed=21, session_index=s)
                   for s in (0, 3))
    assert zero.schedule is three.schedule
    assert [{json.loads(line)["session"] for line in trace_lines(r)} for r in (zero, three)] == [
        {0}, {3}]
    assert [json.loads(_entry(r, r.scenario.value))["session"] for r in (zero, three)] == [0, 3]


@pytest.mark.parametrize("solver, failed", [("solve_two", {3, 4}), ("solve_one", {3})])
def test_a_wrong_solve_makes_the_session_unrecoverable(monkeypatch, solver, failed):
    # only recovered symbols are checked against the source, so a solver
    # answer one bit off in one round must still fail the session
    original = getattr(nps2.simnet, solver)
    calls = []

    def off_by_one_bit(*args):
        answer = original(*args)
        calls.append(args)
        if len(calls) > 1:
            return answer
        if solver == "solve_one":
            return GF256.element(answer.value ^ 1)
        return answer[0], GF256.element(answer[1].value ^ 1)

    monkeypatch.setattr(nps2.simnet, solver, off_by_one_bit)
    failure = FailurePattern(failed)
    result = run_session(Scheme.NPS2_I, 6, GF256, failure, seed=3)
    assert len(calls) == 6  # one solve per round, all six rounds solved
    assert result.outcome is Outcome.UNRECOVERABLE and not result.complete
    assert result.unrecoverable_rounds == () and result.recovered_count == 6 * len(failed)
    data = generate_source_data(6, 6, 1, 3, GF256)[0]
    wrong = {k: v.value for k, v in result.delivered.items() if v != data[k[0] - 1][k[1] - 1]}
    assert wrong == {(max(failed), 1): data[max(failed) - 1][0].value ^ 1}
    monkeypatch.undo()
    assert run_session(Scheme.NPS2_I, 6, GF256, failure, seed=3).complete


@pytest.mark.parametrize("scheme", list(Scheme))
def test_sweep_report_totals_equal_a_naive_count(scheme):
    # on sum-only rows a sweep's sessions that lose two working paths in a
    # round are unrecoverable, and three failed paths lose every round
    results = sweep_failures(scheme, 6, GF256, seed=4, sum_only=True).results + tuple(
        run_session(scheme, 6, GF256, FailurePattern({1, 3, 5}), seed=s) for s in (1, 2))
    report = SweepReport(results)
    complete = sum(r.outcome is Outcome.COMPLETE for r in results)
    assert 0 < complete < len(results)
    histogram = {}
    for r in results:
        histogram[r.scenario.value] = histogram.get(r.scenario.value, 0) + 1
    assert report.session_count == len(results)
    assert report.complete_count == complete
    assert report.complete_rate == complete / len(results)
    assert report.recovered_total == sum(len(r.recovered) for r in results) > 0
    assert list(report.scenario_histogram.items()) == list(histogram.items())
    # the totals are read off the results each time, so they follow a new batch
    report.results = results[:3]  # no failure, then paths 1 and 2
    assert (report.session_count, report.complete_count) == (3, 3)


def closed_form_histogram(scheme: Scheme, n: int) -> dict[str, int]:
    """Sessions per summary scenario in an exhaustive sweep, counted from
    the layouts alone; the tag is the same with and without sum_only rows."""
    pairs = n * (n - 1) // 2
    if scheme is Scheme.NPS2_I:
        # two carriers for all n rounds: a pattern is protection-only when it
        # hits carriers only, single-working with one working loss, and
        # double-working with two
        hist = {"no-failure": 1, "protection-only": 3,
                "single-working": (n - 2) + 2 * (n - 2), "double-working": (n - 2) * (n - 3) // 2}
    else:
        # every path carries protection in one round: a single loss and a
        # pair from two rounds' carriers are single-working in those rounds,
        # and any round where both of a pair work is double-working; with
        # n = 4 a split pair has no such round
        split = pairs - n // 2
        hist = {"no-failure": 1, "single-working": n + split * (n == 4),
                "double-working": n // 2 + split * (n > 4)}
    return {tag: count for tag, count in hist.items() if count}


@pytest.mark.parametrize("sum_only", [False, True])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_scenario_histogram_has_a_closed_form(scheme, sum_only):
    for n in range(4 if scheme is Scheme.NPS2_II else 3, 17, 2 if scheme is Scheme.NPS2_II else 1):
        for session_index in (0, 1):
            report = sweep_failures(scheme, n, GF256, seed=n, session_index=session_index,
                                    sum_only=sum_only)
            assert report.scenario_histogram == closed_form_histogram(scheme, n), (n, session_index)
            assert report.session_count == 1 + n + n * (n - 1) // 2
