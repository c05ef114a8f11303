"""Property tests of the session engine: trace_lines formats exactly
json.dumps of the records of an eager transmission built from the data
tensor, the paper's cell rule and encode_pair, both for data that
run_session draws from a seed and for given data, and transmit_round
returns the same payloads; schedule_labels, transmit_round and trace_lines
read the same cells on any valid schedule, and a round's plan ranks each
failed working path by its position in the round's working slots. The
``delivered`` maps of a result and of a round equal an eager collector's
map, key order included, and a result builds its map only when it is
first read. run_session equals a session pieced together round by round
from transmit_round and recover_round. generate_source_data draws the
randrange stream, and a shared RNG drawn one session at a time continues
it. The symbols a session recovers from a XOR b are those it recovers
from a XOR those from b. Each engine entry runs failed path labels, in any
order, form or repetition, as their FailurePattern, and refuses the labels
it refuses with its ValueError."""

import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from nps2.codec import build_rows, encode_pair
from nps2.schemes import (
    Scheme,
    SessionSchedule,
    SlotKind,
    build_schedule,
    protected_slots,
    schedule_labels,
)
from nps2.simnet import (
    NO_FAILURES,
    FailurePattern,
    Outcome,
    Scenario,
    SessionResult,
    _round_plan,
    all_patterns,
    generate_source_data,
    recover_round,
    run_session,
    sweep_failures,
    trace_lines,
    transmit_round,
)
from test_codec_properties import FIELDS
from test_schemes import WORKING, cells, working_slots


def eager_packets(schedule, data, failure, rows) -> list[tuple]:
    """Every surviving packet as (round, path, kind, payload), (round, path)
    order, straight from the cell oracle: a working cell sends its own symbol,
    a carrier its row's protection symbol over the round's working symbols in
    path order."""
    packets = []
    for r, row in enumerate(cells(schedule), 1):
        working = [data[p - 1][d - 1] for p, (kind, d) in enumerate(row, 1) if kind is WORKING]
        y = dict(zip((SlotKind.PROTECTION_SUM, SlotKind.PROTECTION_WEIGHTED),
                     encode_pair(working, rows)))
        for path, (kind, d) in enumerate(row, 1):
            if path not in failure:
                packets.append((r, path, kind, data[path - 1][d - 1] if d else y[kind]))
    return packets


@st.composite
def sessions(draw):
    """A scheme, n <= 12, a field wide enough for n-2 weighted slots (or
    GF(2) in sum-only mode), a session index, a seed and 0-3 failed paths."""
    scheme = draw(st.sampled_from(Scheme))
    n = draw(st.integers(2, 6)) * 2 if scheme is Scheme.NPS2_II else draw(st.integers(3, 12))
    sum_only = draw(st.booleans())
    m = 1 if sum_only else draw(st.integers((n - 2).bit_length(), 16))
    failed = draw(st.lists(st.integers(1, n), max_size=3, unique=True))
    return (scheme, n, FIELDS[m], sum_only, draw(st.integers(0, 3)),
            draw(st.integers(0, 2**32)), FailurePattern(failed))


def eager_case(case):
    """(schedule, data, rows) of a drawn case: its schedule, the data that
    run_session draws from the seed for session ``session_index``, and its
    rows."""
    scheme, n, field, sum_only, session_index, seed, failure = case
    schedule = build_schedule(scheme, n, session_index)
    data = generate_source_data(n, schedule.rounds, session_index + 1, seed, field)[session_index]
    return schedule, data, build_rows(n - 2, field, sum_only=sum_only)


def records(session, packets) -> list[dict]:
    return [{"session": session, "round": r, "sender": path, "path": path,
             "kind": kind.value, "payload_hex": payload.hex}
            for r, path, kind, payload in packets]


@settings(max_examples=150, deadline=None)
@given(sessions(), st.integers(0, 10**8))
def test_packets_match_eager_transmission(case, laps):
    scheme, n, field, sum_only, session_index, seed, failure = case
    schedule, data, rows = eager_case(case)
    expect = eager_packets(schedule, data, failure, rows)
    # a session n * laps later runs on the same schedule; its data is given,
    # as drawing that many sessions' tensors is not feasible
    session = session_index + n * laps
    result = run_session(scheme, n, field, failure, session_index=session, sum_only=sum_only,
                         data=data)
    assert len(expect) == schedule.rounds * (n - len(failure))
    assert [json.loads(line) for line in trace_lines(result)] == records(session, expect)
    for r in range(1, schedule.rounds + 1):
        survivors = transmit_round(schedule, r, data, failure, rows)
        assert list(survivors.items()) == [(path, payload)
                                           for rr, path, _, payload in expect if rr == r]


@st.composite
def any_schedules(draw):
    """Any valid schedule, of either scheme's name: n in 3..40 paths and 1..n
    rounds, each on two distinct carriers in either order; with data for it,
    0-3 failed paths and rows over a field wide enough for n-2 slots."""
    n = draw(st.integers(3, 40))
    pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True).map(tuple)
    schedule = SessionSchedule(draw(st.sampled_from(Scheme)), n,
                               tuple(draw(st.lists(pair, min_size=1, max_size=n))))
    field = FIELDS[draw(st.integers((n - 2).bit_length(), 16))]
    rng = random.Random(draw(st.integers(0, 2**32)))  # one draw, not one per symbol
    data = tuple(tuple(field.element(rng.randrange(field.q)) for _ in range(n))
                 for _ in range(n))
    failed = draw(st.lists(st.integers(1, n), max_size=3, unique=True))
    return schedule, data, FailurePattern(failed), build_rows(n - 2, field)


@settings(max_examples=150, deadline=None)
@given(any_schedules(), st.integers(0, 1000))
def test_any_schedule_reads_its_cells_from_pairs(case, session):
    # the labels, a round's survivors and a session's trace, checked against the cell
    # oracle on schedules that neither scheme builds
    schedule, data, failure, rows = case
    matrix = cells(schedule)
    assert schedule_labels(schedule) == [
        [f"x_{p}^{d}" if kind is WORKING else f"y_{p}^{r}"
         for r, (kind, d) in enumerate((row[p - 1] for row in matrix), 1)]
        for p in range(1, schedule.n + 1)]
    expect = eager_packets(schedule, data, failure, rows)
    received = []
    for r, pair in enumerate(schedule.pairs, 1):
        survivors = transmit_round(schedule, r, data, failure, rows)
        assert list(survivors.items()) == [(path, payload)
                                           for rr, path, _, payload in expect if rr == r]
        y_pair = encode_pair([data[p - 1][d - 1] for p, d in protected_slots(schedule, r)], rows)
        received += (y if p not in failure else None for p, y in zip(pair, y_pair))
    result = SessionResult(schedule, session, failure, data, solved=(), outcome=Outcome.COMPLETE,
                           scenarios=(), received=tuple(received))
    assert [json.loads(line) for line in trace_lines(result)] == records(session, expect)


@settings(max_examples=150, deadline=None)
@given(any_schedules())
def test_round_plan_ranks_are_positions_in_protected(case):
    # the rank rule, p - 1 less the carriers below p, checked against a failed
    # working path's position among the round's working slots on any schedule
    schedule, _, failure, _ = case
    for r, slots in enumerate(working_slots(schedule), 1):
        paths = [p for p, _ in slots]
        _, missing, _ = _round_plan(schedule, r, failure.failed_paths)
        assert missing == [paths.index(p) for p in failure.failed_paths if p in paths]


@settings(max_examples=150, deadline=None)
@given(sessions())
def test_trace_line_is_json_dumps_of_record(case):
    # run_session draws its own data here, so this also checks its draw for
    # sessions past the first against generate_source_data
    scheme, n, field, sum_only, session_index, seed, failure = case
    schedule, data, rows = eager_case(case)
    expect = eager_packets(schedule, data, failure, rows)
    result = run_session(scheme, n, field, failure, seed=seed, session_index=session_index,
                         sum_only=sum_only)
    lines = trace_lines(result)
    assert lines == [json.dumps(rec, sort_keys=True, separators=(",", ":"))
                     for rec in records(session_index, expect)]
    assert {len(json.loads(line)["payload_hex"]) for line in lines} <= {(field.m + 3) // 4}


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2**64), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 3))
def test_draws_are_the_randrange_stream(m, seed, n, rounds, count):
    # the tensor is rng.randrange(q) drawn in [session][source][unit] order,
    # and a shared rng drawn one session at a time continues that stream
    field = FIELDS[m]
    rng = random.Random(seed)
    expect = [[[field.element(rng.randrange(field.q)) for _ in range(rounds)]
               for _ in range(n)] for _ in range(count)]
    assert generate_source_data(n, rounds, count, seed, field) == expect
    shared = random.Random(seed)
    assert [generate_source_data(n, rounds, 1, shared, field)[0] for _ in range(count)] == expect
    assert shared.getstate() == rng.getstate()


def round_by_round(scheme, n, field, failure, session_index, sum_only, data):
    """A session's (recovered, received, unrecoverable_rounds, outcome,
    round_scenarios) from the one-round API: transmit_round, then
    recover_round, for each round in turn."""
    schedule = build_schedule(scheme, n, session_index)
    rows = build_rows(n - 2, field, sum_only=sum_only)
    recovered, received, lost, scenarios = {}, [], [], {}
    for r, pair in enumerate(schedule.pairs, 1):
        survivors = transmit_round(schedule, r, data, failure, rows)
        received += (survivors.get(p) for p in pair)
        rec = recover_round(survivors, schedule, r, rows, failure)
        recovered.update(zip(rec.recovered, rec.values))
        if rec.lost:
            lost.append((r, rec.lost))
        scenarios[r] = rec.scenario
    exact = all(v == data[p - 1][d - 1] for (p, d), v in recovered.items())
    outcome = Outcome.COMPLETE if exact and not lost else Outcome.UNRECOVERABLE
    return recovered, tuple(received), tuple(lost), outcome, scenarios


@settings(max_examples=200, deadline=None)
@given(sessions())
def test_run_session_equals_the_one_round_api(case):
    scheme, n, field, sum_only, session_index, seed, failure = case
    schedule = build_schedule(scheme, n, session_index)
    data = generate_source_data(n, schedule.rounds, 1, seed, field)[0]
    result = run_session(scheme, n, field, failure, session_index=session_index,
                         sum_only=sum_only, data=data)
    recovered, received, lost, outcome, scenarios = round_by_round(
        scheme, n, field, failure, session_index, sum_only, data)
    assert list(result.recovered.items()) == list(recovered.items())
    assert result.received == received
    assert result.unrecoverable_rounds == lost
    assert result.outcome is outcome
    assert list(result.round_scenarios.items()) == list(scenarios.items())
    assert result.scenario is max(scenarios.values(), key=list(Scenario).index)


# the forms a caller may pass failed path labels in, each built afresh per call
LABEL_FORMS = {
    "list": list,
    "tuple": tuple,
    "set": set,
    "reversed": lambda labels: list(reversed(labels)),
    "generator": lambda labels: (p for p in labels),
}


@st.composite
def label_inputs(draw):
    """A scheme, an n valid for it up to 12, a seed, 0-3 path labels from 1..n,
    repeats allowed, and the form to pass them in."""
    scheme = draw(st.sampled_from(Scheme))
    n = draw(st.integers(2, 6)) * 2 if scheme is Scheme.NPS2_II else draw(st.integers(3, 12))
    labels = draw(st.lists(st.integers(1, n), max_size=3))
    return scheme, n, draw(st.integers(0, 2**32)), labels, LABEL_FORMS[draw(
        st.sampled_from(sorted(LABEL_FORMS)))]


@settings(max_examples=150, deadline=None)
@given(label_inputs())
@example((Scheme.NPS2_II, 6, 5, [5, 3, 5], list))  # descending and repeated labels, first
def test_every_entry_point_runs_failed_labels_as_their_pattern(case):
    scheme, n, seed, labels, form = case
    field, pattern = FIELDS[8], FailurePattern(labels)
    result = run_session(scheme, n, field, form(labels), seed=seed)
    expect = run_session(scheme, n, field, pattern, seed=seed)
    assert type(result.failure) is FailurePattern and result.failure.failed_paths == pattern
    for name in ("failure", "solved", "received", "outcome", "scenarios",
                 "unrecoverable_rounds"):
        assert getattr(result, name) == getattr(expect, name), name
    assert list(result.delivered.items()) == list(expect.delivered.items())
    schedule, data, rows = expect.schedule, expect.data, build_rows(n - 2, field)
    r = seed % schedule.rounds + 1  # one round, transmitted then recovered
    survivors = transmit_round(schedule, r, data, form(labels), rows)
    expect_survivors = transmit_round(schedule, r, data, pattern, rows)
    assert list(survivors.items()) == list(expect_survivors.items())
    rec = recover_round(survivors, schedule, r, rows, form(labels))
    expect_rec = recover_round(expect_survivors, schedule, r, rows, pattern)
    assert rec == expect_rec and list(rec.delivered) == list(expect_rec.delivered)


@pytest.mark.parametrize("label", [0, -1, 2.0, True, "2"], ids=repr)
def test_every_entry_point_refuses_a_label_the_pattern_refuses(label):
    schedule, field = build_schedule(Scheme.NPS2_II, 6), FIELDS[8]
    rows, data = build_rows(4, field), generate_source_data(6, 3, 1, 7, field)[0]
    survivors = transmit_round(schedule, 1, data, NO_FAILURES, rows)
    calls = (lambda failure: run_session(Scheme.NPS2_II, 6, field, failure, seed=7),
             lambda failure: transmit_round(schedule, 1, data, failure, rows),
             lambda failure: recover_round(survivors, schedule, 1, rows, failure))
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call([label])
        assert str(exc.value) == f"path labels are positive integers, got {label!r}"


def eager_delivered(schedule, data, failure, sum_only) -> list[list[tuple]]:
    """Per round, the (source, data_index) -> symbol items an exact collector
    delivers: the working slots on live paths in path order, then, unless the
    round is lost, the failed ones. A round is lost when its failed working
    paths outnumber its live carriers, or two share a sum-only row."""
    rounds = []
    for row in cells(schedule):
        working = [(p, d) for p, (kind, d) in enumerate(row, 1) if kind is WORKING]
        failed = [k for k in working if k[0] in failure]
        carriers = sum(p not in failure for p, (kind, _) in enumerate(row, 1)
                       if kind is not WORKING)
        lost = len(failed) > carriers or (sum_only and len(failed) == 2)
        keys = [k for k in working if k not in failed] + ([] if lost else failed)
        rounds.append([(k, data[k[0] - 1][k[1] - 1]) for k in keys])
    return rounds


@settings(max_examples=150, deadline=None)
@given(sessions())
def test_delivered_views_match_an_eager_collector(case):
    scheme, n, field, sum_only, session_index, seed, failure = case
    schedule = build_schedule(scheme, n, session_index)
    data = generate_source_data(n, schedule.rounds, session_index + 1, seed, field)[session_index]
    result = run_session(scheme, n, field, failure, session_index=session_index,
                         sum_only=sum_only, data=data)
    expect = eager_delivered(schedule, data, failure, sum_only)
    assert "delivered" not in vars(result)  # not built until it is read
    assert list(result.delivered.items()) == [item for items in expect for item in items]
    assert result.delivered is result.delivered
    rows = build_rows(n - 2, field, sum_only=sum_only)
    for r, items in enumerate(expect, 1):
        rec = recover_round(transmit_round(schedule, r, data, failure, rows), schedule, r, rows,
                            failure)
        assert list(rec.delivered.items()) == items


@settings(max_examples=100, deadline=None)
@given(sessions())
def test_delivered_writes_stay_with_their_result(case):
    scheme, n, field, sum_only, session_index, seed, failure = case
    schedule = build_schedule(scheme, n, session_index)
    data = generate_source_data(n, schedule.rounds, 1, seed, field)[0]
    a, b = (run_session(scheme, n, field, failure, session_index=session_index,
                        sum_only=sum_only, data=data) for _ in range(2))
    assert a == b and a.delivered == b.delivered and a.delivered is not b.delivered
    if a.delivered:
        key = next(iter(a.delivered))
        before = b.delivered[key]
        a.delivered[key] = field.element(before.value ^ 1)
        assert a.delivered[key].value == before.value ^ 1  # the write persists
        assert b.delivered[key] is before
    # one other emitted symbol makes another result, whatever the pattern
    other = [list(row) for row in data]
    p, d = min(s for row in working_slots(schedule) for s in row)
    other[p - 1][d - 1] = field.element(data[p - 1][d - 1].value ^ 1)
    assert run_session(scheme, n, field, failure, session_index=session_index,
                       sum_only=sum_only, data=other) != b


@settings(max_examples=20, deadline=None)
@given(scheme=st.sampled_from(Scheme), half_n=st.integers(2, 6), sum_only=st.booleans())
def test_sweep_builds_no_delivered_map(scheme, half_n, sum_only):
    report = sweep_failures(scheme, 2 * half_n, FIELDS[8], seed=half_n, sum_only=sum_only)
    assert not any("delivered" in vars(r) for r in report.results)
    assert [r.failure for r in report.results] == all_patterns(2 * half_n)


def test_sweep_results_keep_little_memory():
    # an NPS2-I n=24 sweep keeps its recovered symbols (at most two per
    # round), not a map of every symbol; data, schedule and field elements
    # exist before the sweep, so they are not counted
    field = FIELDS[8]
    data = generate_source_data(24, 24, 1, 5, field)[0]
    sweep_failures(Scheme.NPS2_I, 24, field, data=data)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = sweep_failures(Scheme.NPS2_I, 24, field, data=data)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.complete_rate == 1.0 and report.results[0].failure == NO_FAILURES
    assert kept / report.session_count < 10_000


@st.composite
def tensor_pairs(draw):
    """A scheme, n <= 10, a field of m >= 2 wide enough for n-2 weighted slots,
    0-3 failed paths, and two data tensors of symbol values for session 0."""
    scheme = draw(st.sampled_from(Scheme))
    n = draw(st.integers(2, 5)) * 2 if scheme is Scheme.NPS2_II else draw(st.integers(3, 10))
    field = FIELDS[draw(st.integers(max(2, (n - 2).bit_length()), 16))]
    failed = draw(st.lists(st.integers(1, n), max_size=3, unique=True))
    rng = random.Random(draw(st.integers(0, 2**32)))  # one draw, not one per symbol
    a, b = ([[rng.randrange(field.q) for _ in range(n)] for _ in range(n)] for _ in "ab")
    return scheme, n, field, FailurePattern(failed), a, b


@settings(max_examples=100, deadline=None)
@given(tensor_pairs())
def test_decode_is_linear_over_gf2(case):
    # the premise of acceptance criterion 9: under a fixed pattern the symbols
    # recovered from a XOR b are those from a XOR those from b, slot by slot
    scheme, n, field, failure, a, b = case

    def recovered(values):
        data = [[field.element(v) for v in row] for row in values]
        result = run_session(scheme, n, field, failure, data=data)
        return {slot: symbol.value for slot, symbol in result.recovered.items()}

    from_a, from_b = recovered(a), recovered(b)
    assert from_a.keys() == from_b.keys()
    xor = [[u ^ v for u, v in zip(row_a, row_b)] for row_a, row_b in zip(a, b)]
    assert recovered(xor) == {slot: from_a[slot] ^ from_b[slot] for slot in from_a}
