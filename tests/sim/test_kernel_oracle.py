"""The handle-less kernel against the frozen one-``Timer``-per-event kernel.

``tests/sim/_reference_kernel.py`` is the kernel as it stood before heap
entries carried their own callback.  Any sequence of ``schedule`` / ``post``
/ ``call_soon`` / ``cancel`` / ``step`` / ``run`` -- including callbacks that
schedule and cancel from inside the run -- must fire the same events in the
same order at the same virtual times and leave the same clock, the same
``events_processed``, the same four perf counters and the same pending
count, at compaction thresholds that never, always and ordinarily compact.
``max_events`` must trip on the same event.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.errors import SchedulingInPastError, SimulationLimitExceeded
from repro.sim.kernel import Simulator

from tests.sim import _reference_kernel as reference

COMPACT_THRESHOLDS = (0, 1, 1024)
COUNTERS = (
    "events_processed",
    "timers_created",
    "timers_cancelled",
    "heap_compactions",
    "peak_heap_size",
    "pending",
)


class _Side:
    """One kernel and the record of what it did."""

    def __init__(self, simulator_cls, compact_threshold, max_events):
        self.sim = simulator_cls(
            seed=0, max_events=max_events, compact_threshold=compact_threshold
        )
        self.fired = []  # (label, virtual time)
        self.handles = []  # every Timer ever handed out
        self.tripped = None  # events_processed when max_events tripped

    def fire(self, label, then=()):
        """A callback: record the fire, then do *then* from inside the run."""
        self.fired.append((label, self.sim.now))
        for op in then:
            self.apply(op)

    def apply(self, op):
        name, args = op[0], op[1:]
        sim = self.sim
        if name == "schedule":
            delay, label, then = args
            self.handles.append(sim.schedule(delay, self.fire, label, then))
        elif name == "post":
            delay, label = args
            sim.post(delay, self.fire, label)
        elif name == "call_soon":
            label, then = args
            self.handles.append(sim.call_soon(self.fire, label, then))
        elif name == "cancel":  # by position, so a double cancel is common
            if self.handles:
                self.handles[args[0] % len(self.handles)].cancel()
        elif self.tripped is None:
            try:
                if name == "step":
                    for _ in range(args[0]):
                        sim.step()
                elif name == "run":
                    sim.run(until=None if args[0] is None else sim.now + args[0])
            except SimulationLimitExceeded:
                self.tripped = sim.events_processed

    def state(self):
        counters = self.sim.perf_counters()
        return (
            self.fired,
            self.sim.now,
            self.sim.events_processed,
            [counters[name] for name in COUNTERS],
            [handle.active for handle in self.handles],
            [handle.when for handle in self.handles],
            self.tripped,
        )


labels = st.integers(0, 999)
delays = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5, 7.0])
# what a callback may do from inside the run: arm, post and cancel
inner = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), delays, labels, st.just(())),
        st.tuples(st.just("post"), delays, labels),
        st.tuples(st.just("cancel"), st.integers(0, 50)),
    ),
    max_size=3,
).map(tuple)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), delays, labels, inner),
        st.tuples(st.just("post"), delays, labels),
        st.tuples(st.just("call_soon"), labels, inner),
        st.tuples(st.just("cancel"), st.integers(0, 50)),
        st.tuples(st.just("step"), st.integers(1, 4)),
        st.tuples(st.just("run"), st.sampled_from([None, 0.0, 0.5, 1.0, 3.0])),
    ),
    max_size=40,
)


@pytest.mark.parametrize("compact_threshold", COMPACT_THRESHOLDS)
@settings(max_examples=120, deadline=None)
@given(ops=ops, max_events=st.sampled_from([3, 12, 5_000_000]))
def test_same_fires_clock_and_counters(compact_threshold, ops, max_events):
    old = _Side(reference.Simulator, compact_threshold, max_events)
    new = _Side(Simulator, compact_threshold, max_events)
    for op in ops:
        old.apply(op)
        new.apply(op)
        assert new.state() == old.state(), op
    for side in (old, new):
        side.apply(("run", None))  # drain what is left
    assert new.state() == old.state()


@pytest.mark.parametrize("compact_threshold", COMPACT_THRESHOLDS)
def test_schedule_and_cancel_loop_compacts_alike(compact_threshold):
    """The retransmission-timer shape: arm, cancel, re-arm, thousands deep."""
    sides = [
        _Side(cls, compact_threshold, 5_000_000)
        for cls in (reference.Simulator, Simulator)
    ]
    for side in sides:
        for round_ in range(3000):
            side.apply(("schedule", 5.0 + round_ % 7, round_, ()))
            side.apply(("post", 1.0, -round_))
            if round_ % 5:
                side.apply(("cancel", round_))
            if round_ % 200 == 0:
                side.apply(("run", 0.5))
        side.apply(("run", None))
    old, new = sides
    assert new.state() == old.state()
    assert (old.sim.heap_compactions > 0) == (compact_threshold > 0)


def test_cancel_from_inside_its_own_callback_and_twice():
    for cls in (reference.Simulator, Simulator):
        sim = cls(compact_threshold=1)
        fired = []

        def fire():
            fired.append(sim.now)
            handle.cancel()  # already consumed: not a cancellation
            later.cancel()
            later.cancel()  # counted once

        handle = sim.schedule(1.0, fire)
        later = sim.schedule(2.0, fired.append, "never")
        sim.run()
        assert fired == [1.0]
        assert (sim.timers_cancelled, sim.events_processed) == (1, 1)


def test_post_rejects_a_negative_delay_like_schedule():
    for cls in (reference.Simulator, Simulator):
        sim = cls()
        with pytest.raises(SchedulingInPastError):
            sim.post(-0.1, print, None)
        with pytest.raises(SchedulingInPastError):
            sim.schedule(-0.1, print)
        assert sim.perf_counters()["timers_created"] == 0
        assert sim.run() == 0.0


def test_post_requires_a_callable():
    # The heap marks a kept handle with a None callback; that encoding is
    # not part of post()'s contract.
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.post(1.0, None, "x")
    assert sim.perf_counters()["timers_created"] == 0
    assert sim.run() == 0.0


def test_now_is_a_plain_attribute():
    sim = Simulator()
    assert "now" in vars(sim) and not isinstance(vars(Simulator).get("now"), property)
    sim.post(2.0, lambda _arg: None, None)
    sim.run(until=5.0)
    assert sim.now == 5.0
