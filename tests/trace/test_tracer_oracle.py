"""The slot-ring tracer against the frozen deque-and-dict tracer.

``tests/trace/_reference_tracer.py`` is the tracer as it stood before the
ring became a preallocated cell list and the send's eid moved onto the
envelope.  Any sequence of emits, context pushes/pops and network hooks
must leave both with the same events (as exported JSON lines), the same
answer to ``get`` for every eid ever issued, the same causal slices, the
same counters and the same Lamport stamps -- at ring sizes small enough
that every operation runs into the eviction boundary.

Two goldens pin the export of real runs to bytes a tracer change may not
move.  They were first computed on PR 13's parent, before the tracer was
touched, and recomputed twice since, by PRs that touched nothing under
``src/repro/trace/`` but changed the runs themselves.  PR 17: the buffer
sends each record to each backup once, so the same 60 / 200 transactions put
fewer ``BufferMsg`` / ``BufferAckMsg`` sends, deliveries and timer fires on
the wire (6 175 -> 5 547 and 19 519 -> 17 267 events).  PR 18: completed-call
records are delivered in the background, so a prepare rarely waits a round
trip for its force, every transaction is ~1.2 units shorter and (two
clients) more forces find a record already shipped: 384 -> 364 and 1 222 ->
1 211 ``BufferMsg`` (and as many acks), and the 200-transaction load now
ends inside the driver's second 500-unit slice instead of its third, which
takes 600 ``ImAliveMsg`` and 520 timer fires with it (5 547 -> 5 469 and
17 267 -> 15 473 events; the per-kind counts of every protocol event --
``record_added`` 720 / 2 400, ``commit_point`` 60 / 200, ... -- are
unchanged).  With the tracer unchanged and the oracle above green on it, the
new bytes are the old format over a shorter event stream.  (PR 22 recomputed
them too: fewer ``ImAliveMsg``, 5 469 -> 5 073 and 15 473 -> 13 995.)

PR 23: a transaction whose participants were all read-only commits at the
last accept, so the 23 / 85 reads of the two runs add no ``Committing`` and
no ``Done`` -- ``record_added`` of each 180 -> 111 and 600 -> 345 over the
three cohorts -- and the coordinator's group ships as many fewer buffer
messages: ``BufferMsg`` and ``BufferAckMsg`` sends and deliveries 368 -> 302
and 1 172 -> 973 each.  The shorter reads shift what the clocks coincide with:
``ImAliveMsg`` sends 438 -> 465 / 569 -> 676, janitor ``QueryMsg`` 6 -> 3 /
24 -> 15 (``QueryReplyMsg`` 0 -> 1 / 2 -> 3), two call probes in the long
run (``CallMsg`` / ``ReplyMsg`` 200 -> 202), ``timer_fire`` one fewer in
both.  ``commit_point`` stays 60 / 200 and is the one event whose *format*
moved: it now carries ``plist``, with ``force_ts`` null where no record was
forced.  Every other kind's count is unchanged (5 073 -> 4 720 and
13 995 -> 12 894 events).

Then a write whose pset names one group began to commit at its prepare
(DESIGN.md D17).  Every transaction of these runs names ``kv`` alone, so the
coordinator's group adds no record: ``record_added`` 582 -> 360 and 1 890 ->
1 200 (``Committing`` and ``Done`` 111 / 345 each gone), ``CommitMsg`` and
``CommitAckMsg`` 37 / 115 each -> 0, ``BufferMsg`` and ``BufferAckMsg`` sends
260 -> 166 and 831 -> 538 each, janitor ``QueryMsg`` 3 / 18 -> 0
(``QueryReplyMsg`` 0 / 2 -> 0).  The
coordinator group's links are silent now and beacon: ``ImAliveMsg`` 466 ->
546 and 656 -> 926.  ``CallMsg`` / ``ReplyMsg`` 201 -> 200 in the long run,
``timer_fire`` 559 -> 554 and 1 093 -> 1 077.  ``commit_point`` stays 60 /
200 but is emitted where the decision is made, at the ``kv`` primary, and
``prepare_decision`` carries ``committed`` where it carried ``read_only``
(4 552 -> 3 955 and 12 286 -> 10 444 events, 7 286 -> 5 444 evicted).

Then a backup that trusts its primary stopped beaconing its fellow backups
(DESIGN.md D19): ``ImAliveMsg`` sends 546 -> 336 and 926 -> 514.  The network
draws fewer delays, so the same transactions meet the sweeps differently:
``BufferMsg`` and ``BufferAckMsg`` sends 166 -> 162 and 538 -> 529 each.
Every protocol event kind's count over the whole of the short run is
unchanged (3 955 -> 3 519 and 10 444 -> 9 584 events, 5 444 -> 4 584
evicted).
"""

import hashlib
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import TraceConfig
from repro.harness.common import build_kv_system, run_kv_batch
from repro.net.messages import Envelope
from repro.trace import InvariantMonitor, Tracer

from tests.trace import _reference_tracer as reference

RING_SIZES = (1, 2, 3, 7, 64)


class _Payload:
    msg_type = "BufferMsg"


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
        # msg index -> one envelope per tracer: the new tracer writes the
        # send's eid onto its envelope, the reference keeps a side table
        self.envelopes = {}

    def _envelopes(self, index):
        if index not in self.envelopes:
            self.envelopes[index] = tuple(
                Envelope(index, f"a/{index % 3}", f"b/{index % 2}", _Payload(), 0.0)
                for _ in range(2)
            )
        return self.envelopes[index]

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
        elif name == "send":
            old_env, new_env = self._envelopes(args[0])
            self.old.on_send(old_env)
            self.new.on_send(new_env)
        elif name == "drop":
            old_env, new_env = self._envelopes(args[0])
            issued = self.old.on_drop(old_env, args[1], args[2])
            assert self.new.on_drop(new_env, args[1], args[2]) == issued
        elif name == "deliver":
            # a delivery is the causal context of what its handler emits;
            # the new tracer pushes it itself, the reference left that to
            # the network
            old_env, new_env = self._envelopes(args[0])
            issued = self.old.on_deliver(old_env)
            self.old.push(issued)
            assert self.new.on_deliver(new_env) == issued
            self.depth += 1
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
kinds = st.sampled_from(["fault", "record_added", "msg_deliver", "timer_fire"])
# parents name earlier events, the event itself, events not yet issued and
# ids that never exist: none of them may be mistaken for a ring entry
eids = st.integers(-2, 40)
values = st.one_of(st.integers(-5, 5), st.text(max_size=3), st.booleans(), st.none())
data = st.dictionaries(st.sampled_from(["a", "b", "sent", "ts"]), values, max_size=3)
msgs = st.integers(0, 5)
reasons = st.sampled_from(["link_loss", "destination_down"])

ops = st.one_of(
    st.tuples(st.just("tick"), st.floats(0.0, 2.0)),
    st.tuples(
        st.just("emit"), kinds, nodes, st.lists(eids, max_size=3).map(tuple), data
    ),
    st.tuples(st.just("push"), eids),
    st.tuples(st.just("pop")),
    st.tuples(st.just("send"), msgs),
    st.tuples(st.just("drop"), msgs, reasons, nodes),
    st.tuples(st.just("deliver"), msgs),
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
        pair.apply(("send", index))
        pair.apply(("deliver", index))
        pair.apply(("emit", "record_added", f"n{index % 3}", (), {"ts": index}))
        pair.apply(("send", index + 1000))
        pair.apply(("pop",))
        if index % 4 == 0:
            pair.apply(("drop", index + 1000, "link_loss", "n0"))
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
        "e9c893d7d4e3d26ac9b56f58e16467d55661644a3cb2da050a231ff3f4e46d3f",
        3519,
        0,
    )


def test_golden_export_of_a_wrapped_5000_slot_ring():
    assert _export_sha256(200, ring_size=5000) == (
        "164ffdde0fe825bd32f695a06ffc0306c33a58d741423257c88a303c8aa9af26",
        9584,
        4584,
    )
