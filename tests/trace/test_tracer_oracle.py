"""The slot-ring tracer against the frozen deque-and-dict tracer.

``tests/trace/_reference_tracer.py`` is the tracer as it stood before the
ring became a preallocated cell list.  Any sequence of clock ticks, emits
and context pushes and pops must leave both with the same events (as
exported JSON lines), the same answer to ``get`` for every eid ever issued,
the same causal slices, the same counters and the same Lamport stamps -- at
ring sizes small enough that every operation runs into the eviction
boundary.  The network hooks are not compared: a send and a delivery record
no event (DESIGN.md D22), and ``tests/net/test_send_eid.py`` pins them.

Two goldens pin the JSONL export of two real runs to the byte.  A golden
may move only with a change to what those runs do or to what the tracer
records of them -- never with a change meant to leave both alone -- and the
change that moves one names the event kinds whose counts moved.
"""

import hashlib
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import TraceConfig
from repro.harness.common import build_kv_system, run_kv_batch
from repro.trace import InvariantMonitor, Tracer

from tests.trace import _reference_tracer as reference

RING_SIZES = (1, 2, 3, 7, 64)


class _Spy(InvariantMonitor):
    """Subscribes to everything (declares no ``kinds``); on the reference
    tracer that is the only behaviour there is."""

    name = "spy"

    def __init__(self):
        self.seen = []

    def on_event(self, event, tracer):
        self.seen.append(event.to_json_line())


class _Pair:
    """The reference tracer and the tracer under test, driven in step."""

    def __init__(self, ring_size):
        self.clock = types.SimpleNamespace(now=0.0)
        config = TraceConfig(ring_size=ring_size, monitors=())
        self.old = reference.Tracer(self.clock, config)
        self.new = Tracer(self.clock, config)
        self.spies = (_Spy(), _Spy())
        self.old.install_monitors([self.spies[0]])
        self.new.install_monitors([self.spies[1]])
        self.depth = 0

    def apply(self, op):
        name, args = op[0], op[1:]
        if name == "tick":
            self.clock.now += args[0]
        elif name == "emit":
            kind, node, parents, data = args
            issued = self.old.emit(kind, node=node, parents=parents, **data)
            assert self.new.emit(kind, node=node, parents=parents, **data) == issued
        elif name == "push":
            self.old.push(args[0])
            self.new.push(args[0])
            self.depth += 1
        elif name == "pop":
            if self.depth:
                self.old.pop()
                self.new.pop()
                self.depth -= 1
        assert self.old.current() == self.new.current()

    def assert_equal(self):
        old, new = self.old, self.new
        assert new.events_emitted == old.events_emitted
        assert new.events_evicted == old.events_evicted
        assert _lines(new.events()) == _lines(old.events())
        for eid in range(-1, old.events_emitted + 3):
            assert _line(new.get(eid)) == _line(old.get(eid)), eid
            for limit in (1, 3, 50):
                assert _lines(new.causal_slice(eid, limit=limit)) == _lines(
                    old.causal_slice(eid, limit=limit)
                ), (eid, limit)
        assert self.spies[1].seen == self.spies[0].seen


def _line(event):
    return None if event is None else event.to_json_line()


def _lines(events):
    return [event.to_json_line() for event in events]


# -- operation sequences -----------------------------------------------------

nodes = st.sampled_from([None, "", "n0", "n1", "n2"])
kinds = st.sampled_from(["fault", "record_added", "msg_drop", "timer_fire"])
# parents name earlier events, the event itself, events not yet issued and
# ids that never exist: none of them may be mistaken for a ring entry
eids = st.integers(-2, 40)
values = st.one_of(st.integers(-5, 5), st.text(max_size=3), st.booleans(), st.none())
data = st.dictionaries(st.sampled_from(["a", "b", "reason", "ts"]), values, max_size=3)

ops = st.one_of(
    st.tuples(st.just("tick"), st.floats(0.0, 2.0)),
    st.tuples(
        st.just("emit"), kinds, nodes, st.lists(eids, max_size=3).map(tuple), data
    ),
    st.tuples(st.just("push"), eids),
    st.tuples(st.just("pop")),
)


@pytest.mark.parametrize("ring_size", RING_SIZES)
@settings(max_examples=60, deadline=None)
@given(sequence=st.lists(ops, max_size=40))
def test_any_sequence_records_what_the_reference_records(ring_size, sequence):
    pair = _Pair(ring_size)
    for op in sequence:
        pair.apply(op)
    pair.assert_equal()


@pytest.mark.parametrize("ring_size", RING_SIZES)
def test_long_run_wraps_the_ring_many_times(ring_size):
    pair = _Pair(ring_size)
    for index in range(5 * ring_size + 11):
        pair.apply(("emit", "timer_fire", f"n{index % 3}", (index,), {"delay": 1.0}))
        pair.apply(("push", pair.new.events_emitted))
        pair.apply(("emit", "record_added", f"n{index % 3}", (), {"ts": index}))
        pair.apply(("emit", "msg_drop", f"a/{index % 2}", (index - 1,), {"ts": index}))
        pair.apply(("pop",))
        if index % 4 == 0:
            pair.apply(("tick", 0.5))
    pair.assert_equal()


def test_oldest_ring_entry_is_still_a_visible_parent():
    # The off-by-one to pin: when event N is emitted the ring still holds
    # N - ring_size (it is evicted by N's own store), so that parent's
    # Lamport stamp counts; N - ring_size - 1 is gone and does not.
    for tracer in (_Pair(2).old, _Pair(2).new):
        tracer.emit("fault", node="a")  # 1: L1
        tracer.emit("fault", node="a")  # 2: L2
        third = tracer.emit("fault", node="b", parents=(1,))  # ring {1, 2}
        assert tracer.get(third).lamport == 2  # past event 1's L1
        fourth = tracer.emit("fault", node="c", parents=(2,))  # ring {2, 3}
        assert tracer.get(fourth).lamport == 3  # past event 2's L2
        fifth = tracer.emit("fault", node="d", parents=(2,))  # ring {3, 4}
        assert tracer.get(fifth).lamport == 1  # event 2 was already evicted
        assert tracer.get(third) is None and tracer.events_evicted == 3


# -- goldens -----------------------------------------------------------------


def _export_sha256(txns, **trace):
    rt, _kv, _clients, driver, spec = build_kv_system(
        seed=77, n_cohorts=3, trace=TraceConfig(monitors="all", **trace)
    )
    run_kv_batch(rt, driver, spec, txns, read_fraction=0.5, concurrency=2)
    rt.quiesce()
    digest = hashlib.sha256()
    for event in rt.tracer.events():
        digest.update(event.to_json_line().encode() + b"\n")
    return digest.hexdigest(), rt.tracer.events_emitted, rt.tracer.events_evicted


def test_golden_export_of_the_seed_77_run():
    # tests/trace/test_determinism.py::_traced_run(seed=77), default ring
    assert _export_sha256(60) == (
        "22a59a71f14ce17f91afc884739691b27bf4ecb4b02b342dc8b001fde5c989d2",
        1433,
        0,
    )


def test_golden_export_of_a_wrapped_5000_slot_ring():
    # 1000 slots since a message stopped being two events: 3994 events, so
    # the ring still wraps
    assert _export_sha256(200, ring_size=1000) == (
        "8b7f6b2ec0a85b8e7befdb8b4fd9a7133568d712c34050157fcda69a563c05bc",
        3994,
        2994,
    )
