"""Per-layer tracing for the benchmark's traced run.

The wrappers go on from outside, where callers look the names up: simnet
reaches codec and schemes (and its own helpers) through ``nps2.simnet``
globals, the CLI reaches simnet through ``nps2.cli`` globals, and every
field operation goes through a ``FieldSpec`` class attribute. Nothing under
``src/`` is edited, and ``installed`` puts every original back on exit.

Two tracers share those sites but never run together. ``Spans`` times each
call and its self time (duration minus the child spans it covers).
``Counts`` only counts, and is the only one that wraps field operations:
they run millions of times per sweep, and timing them would bury the codec's
self time under the wrappers' own cost.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

# name looked up in nps2.simnet -> span name
SIMNET_SITES = {
    "build_rows": "codec.build_rows",
    "encode_pair": "codec.encode_pair",
    "residualize": "codec.residualize",
    "solve_one": "codec.solve_one",
    "solve_two": "codec.solve_two",
    "build_schedule": "schemes.build_schedule",
    "protected_slots": "schemes.protected_slots",
    "generate_source_data": "simnet.generate_source_data",
    "transmit_round": "simnet.transmit_round",
    "recover_round": "simnet.recover_round",
    "run_session": "simnet.run_session",
    "sweep_failures": "simnet.sweep_failures",
}

# name looked up in nps2.cli -> span name
CLI_SITES = {
    "build_rows": "codec.build_rows",
    "build_schedule": "schemes.build_schedule",
    "generate_source_data": "simnet.generate_source_data",
    "run_session": "simnet.run_session",
    "sweep_failures": "simnet.sweep_failures",
    "trace_lines": "simnet.trace_lines",
    "parse_config": "cli.parse_config",
    "run": "cli.run",
}

# FieldSpec class attribute -> counter name (Counts only)
FIELD_OPS = {
    "add": "field.add",
    "mul": "field.mul",
    "inv": "field.inv",
    "__eq__": "field.spec_eq",
}


class Spans:
    """Call count, total time and self time per span name."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._stack: list[float] = []  # child time covered, one cell per open span

    def wrap(self, name, fn):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                covered = stack.pop()
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - covered
                if stack:
                    stack[-1] += dur

        return wrapper

    def table(self) -> dict:
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_s[name],
                "self_s": self.self_s[name],
            }
            for name in sorted(self.calls)
        }


def _encode_key(data, rows):
    # plain ints only: hashing FieldElements would call the counted __eq__
    f = rows.field
    return (
        tuple(d.value for d in data),
        tuple(w.value for w in rows.row_weighted),
        (f.m, f.reduction_poly, f.generator),
    )


def _schedule_key(scheme, n, session_index=0):
    return scheme.value, n, session_index


class Counts:
    """Call counts, distinct inputs of encode_pair and build_schedule, and
    the number of packets transmit_round returns."""

    DISTINCT = {"codec.encode_pair": _encode_key, "schemes.build_schedule": _schedule_key}

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)

    def wrap(self, name, fn):
        calls = self.calls
        key = self.DISTINCT.get(name)
        seen = self.distinct[name]

        if name == "simnet.transmit_round":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                packets = fn(*args, **kwargs)
                calls["simnet.packets"] += len(packets)
                return packets
        elif key is not None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                seen.add(key(*args, **kwargs))
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

        return wrapper

    def table(self) -> dict:
        return {
            "calls": dict(sorted(self.calls.items())),
            "distinct": {name: len(keys) for name, keys in sorted(self.distinct.items()) if keys},
        }


@contextlib.contextmanager
def installed(tracer):
    """Wrap every traced name with ``tracer.wrap`` and restore the originals
    on exit, also when the traced code raises."""
    import nps2.cli
    import nps2.simnet
    from nps2.field import FieldSpec

    sites = [(nps2.simnet, SIMNET_SITES), (nps2.cli, CLI_SITES)]
    if isinstance(tracer, Counts):
        sites.append((FieldSpec, FIELD_OPS))
    else:
        sites.append((FieldSpec, {"__init__": "field.tables"}))
    saved = []
    try:
        for owner, names in sites:
            for attr, name in names.items():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
