"""Property tests of the session engine: the packets a SessionResult rebuilds
on demand equal an eager transmission built from the data tensor, the grid
and encode_pair, and trace_lines writes exactly json.dumps of each record.
Sweeps construct no Packet at all."""

import json

from hypothesis import given, settings, strategies as st

import nps2.simnet
from nps2.codec import build_rows, encode_pair
from nps2.schemes import Scheme, SlotKind, build_schedule
from nps2.simnet import (
    FailurePattern,
    Packet,
    generate_source_data,
    run_session,
    sweep_failures,
    trace_lines,
    transmit_round,
)
from test_codec_properties import FIELDS


def json_line(packet: Packet) -> str:
    return json.dumps(packet.record(), sort_keys=True, separators=(",", ":"))


def eager_packets(schedule, session, data, failure, rows) -> tuple[Packet, ...]:
    """Every surviving packet, (round, path) order, straight from the grid:
    a working slot sends its own symbol, a carrier its row's protection
    symbol over the round's working symbols in path order."""
    packets = []
    for r, row in enumerate(schedule.grid, 1):
        working = [data[p - 1][s.data_index - 1]
                   for p, s in enumerate(row, 1) if s.kind is SlotKind.WORKING]
        y = dict(zip((SlotKind.PROTECTION_SUM, SlotKind.PROTECTION_WEIGHTED),
                     encode_pair(working, rows)))
        for path, slot in enumerate(row, 1):
            if path not in failure:
                payload = (data[path - 1][slot.data_index - 1]
                           if slot.kind is SlotKind.WORKING else y[slot.kind])
                packets.append(Packet(path, payload, r, session, slot.kind))
    return tuple(packets)


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


@settings(max_examples=150, deadline=None)
@given(sessions())
def test_packets_match_eager_transmission(case):
    scheme, n, field, sum_only, session_index, seed, failure = case
    result = run_session(scheme, n, field, failure, seed=seed, session_index=session_index,
                         sum_only=sum_only)
    schedule = build_schedule(scheme, n, session_index)
    data = generate_source_data(n, schedule.rounds, session_index + 1, seed, field)[session_index]
    rows = build_rows(n - 2, field, sum_only=sum_only)
    expect = eager_packets(schedule, session_index, data, failure, rows)
    assert result.packets == expect
    assert len(expect) == schedule.rounds * (n - len(failure))
    assert trace_lines(result.packets) == [json_line(p) for p in expect]
    for r in range(1, schedule.rounds + 1):
        survivors = transmit_round(schedule, r, data, failure, rows)
        assert list(survivors.items()) == [(p.sender_id, p.payload) for p in expect if p.round == r]


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 16),
    value=st.data(),
    kind=st.sampled_from(SlotKind),
    path=st.integers(1, 10**6),
    round_index=st.integers(1, 10**6),
    session=st.integers(0, 10**9),
)
def test_trace_line_is_json_dumps_of_record(m, value, kind, path, round_index, session):
    field = FIELDS[m]
    payload = field.element(value.draw(st.integers(0, field.q - 1)))
    packet = Packet(path, payload, round_index, session, kind)
    (line,) = trace_lines([packet])
    assert line == json_line(packet)
    assert len(json.loads(line)["payload_hex"]) == (m + 3) // 4


def test_sweep_constructs_no_packet_and_rebuilds_them_on_demand(monkeypatch):
    made = []

    class CountingPacket(Packet):
        __slots__ = ()

        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(nps2.simnet, "Packet", CountingPacket)
    field = FIELDS[8]
    report = sweep_failures(Scheme.NPS2_I, 8, field, seed=3)
    assert report.complete_rate == 1.0
    assert made == []
    single = report.results[5]  # empty pattern, then singles: path 5 failed
    assert single.failure == FailurePattern({5})
    packets = single.packets
    assert len(made) == len(packets) == 8 * 7
    assert all(type(p) is CountingPacket for p in packets)
    monkeypatch.undo()
    assert trace_lines(packets) == trace_lines(single.packets)
