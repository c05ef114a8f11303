"""Session engine: transmission, per-round recovery, sweeps."""

from dataclasses import fields
from fractions import Fraction

import pytest

from nps2.cli import _session_entry
from nps2.codec import build_rows, encode_pair
from nps2.field import FieldSpec
from nps2.schemes import Scheme, SlotKind, build_schedule, schedule_capacity
from nps2.simnet import (
    NO_FAILURES,
    FailurePattern,
    Outcome,
    Scenario,
    all_patterns,
    generate_source_data,
    recover_round,
    run_session,
    sweep_failures,
    trace_lines,
    transmit_round,
)

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
    assert [sched.grid[0][p - 1].kind for p in survivors] == [
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
    rec = recover_round(packets, sched, 1, rows, failure)
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
    rec = recover_round(packets, sched, 1, rows, failure)
    assert rec.scenario is Scenario.SINGLE_WORKING
    assert rec.delivered[(4, 1)] == data[3][0]


def test_recover_round_excess_loss_keeps_direct_survivors():
    # NPS2-I session 0 protects on paths 1 and 2; three working losses leave
    # three unknowns for two rows
    sched = build_schedule(Scheme.NPS2_I, 6)
    rows = build_rows(4, GF256)
    data = generate_source_data(6, 6, 1, 11, GF256)[0]
    failure = FailurePattern({3, 4, 5})
    rec = recover_round(transmit_round(sched, 2, data, failure, rows), sched, 2, rows, failure)
    assert rec.scenario is Scenario.EXCESS_LOSS
    assert rec.recovered == ()
    assert rec.lost == (3, 4, 5)
    assert rec.delivered == {(6, 2): data[5][1]}
    result = run_session(Scheme.NPS2_I, 6, GF256, failure, seed=11)
    assert result.unrecoverable_rounds == tuple((r, (3, 4, 5)) for r in range(1, 7))
    assert result.recovered_count == 0


def test_recover_round_sum_only_double_working_is_lost():
    # over GF(2) with sum-only rows, two unknowns share one independent row
    sched = build_schedule(Scheme.NPS2_II, 6)
    rows = build_rows(4, GF2, sum_only=True)
    data = generate_source_data(6, 3, 1, 12, GF2)[0]
    failure = FailurePattern({3, 5})
    rec = recover_round(transmit_round(sched, 1, data, failure, rows), sched, 1, rows, failure)
    assert rec.scenario is Scenario.DOUBLE_WORKING
    assert rec.recovered == ()
    assert rec.lost == (3, 5)
    assert rec.delivered == {(4, 1): data[3][0], (6, 1): data[5][0]}


def test_recovered_round_loses_nothing():
    sched = build_schedule(Scheme.NPS2_II, 6)
    rows = build_rows(4, GF256)
    data = generate_source_data(6, 3, 1, 13, GF256)[0]
    for failure in (NO_FAILURES, FailurePattern({1}), FailurePattern({3}), FailurePattern({3, 5})):
        rec = recover_round(transmit_round(sched, 1, data, failure, rows), sched, 1, rows, failure)
        assert rec.lost == ()
        assert rec.delivered == {s: data[s.path - 1][s.data_index - 1] for s in rec.delivered}
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
                for row in sched.grid
                for path, slot in enumerate(row, 1)
                if slot.kind is SlotKind.WORKING and path in pattern
            )
            assert result.recovered_count == erased
            assert set(result.delivered) == sched.emitted()


def test_capacity_accounting():
    for pattern in (NO_FAILURES, FailurePattern({2}), FailurePattern({1, 5})):
        result = run_session(Scheme.NPS2_II, 6, GF256, pattern, seed=7)
        assert result.normalized_capacity == Fraction(6 - len(pattern), 6)
        assert schedule_capacity(result.schedule) == Fraction(4, 6)


def test_scenario_tag_matches_slot_kinds():
    # re-derive the tag from the schedule grid, independently of the engine
    for scheme, n in ((Scheme.NPS2_I, 5), (Scheme.NPS2_II, 6)):
        for pattern in all_patterns(n):
            result = run_session(scheme, n, GF256, pattern, seed=3)
            sched = result.schedule
            for r, tag in result.round_scenarios.items():
                kinds = [
                    sched.grid[r - 1][p - 1].kind
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
    assert a.packets == b.packets
    assert trace_lines(a.packets) == trace_lines(b.packets)


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
    assert trace_lines(result.packets) == GOLDEN_TRACE
    assert result.complete and result.recovered_count == 1


def test_trace_record_shape():
    result = run_session(Scheme.NPS2_II, 4, GF256, FailurePattern({2}), seed=5)
    lines = trace_lines(result.packets)
    assert len(lines) == 3 * 2  # three survivors per round, two rounds
    first = result.packets[0].record()
    assert set(first) == {"session", "round", "sender", "path", "kind", "payload_hex"}
    keys = [(p.session, p.round, p.sender_id) for p in result.packets]
    assert keys == sorted(keys)


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


def test_failed_path_out_of_range():
    with pytest.raises(ValueError, match="exceeds"):
        run_session(Scheme.NPS2_II, 4, GF256, FailurePattern({9}), seed=1)


def test_classify_round_direct():
    # NPS2-II, n=4: paths 1, 2 protect in round 1 and carry data in round 2
    def tags(*failed):
        return run_session(Scheme.NPS2_II, 4, GF256, FailurePattern(failed)).round_scenarios

    assert tags(1, 2) == {1: Scenario.PROTECTION_ONLY, 2: Scenario.DOUBLE_WORKING}
    assert tags(1, 2, 3) == {1: Scenario.EXCESS_LOSS, 2: Scenario.EXCESS_LOSS}


def test_concurrent_sessions_share_immutable_state():
    # distinct sessions only share the field and rows; run them in parallel
    # and check each sink matches a sequential rerun
    from concurrent.futures import ThreadPoolExecutor

    rows = build_rows(4, GF256)
    patterns = all_patterns(6)

    def job(pattern):
        return run_session(Scheme.NPS2_II, 6, GF256, pattern, seed=50, rows=rows)

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
def test_sweep_sessions_share_grid_but_not_delivered(scheme):
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
    assert {p.session for p in zero.packets} == {0} and {p.session for p in three.packets} == {3}
    assert [_session_entry(r)["session"] for r in (zero, three)] == [0, 3]
