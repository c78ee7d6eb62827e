"""Tracer unit tests: Lamport clocks, causal context, ring eviction."""

import pytest

from repro.config import TraceConfig
from repro.sim.kernel import Simulator
from repro.trace import EVENT_KINDS, Tracer


def make_tracer(ring_size=65_536):
    sim = Simulator(seed=1)
    return Tracer(sim, TraceConfig(ring_size=ring_size))


def test_eids_are_sequential_and_lamport_advances_per_node():
    tracer = make_tracer()
    first = tracer.emit("fault", node="n1", action="x")
    second = tracer.emit("fault", node="n1", action="y")
    third = tracer.emit("fault", node="n2", action="z")
    assert (first, second, third) == (1, 2, 3)
    assert tracer.get(first).lamport == 1
    assert tracer.get(second).lamport == 2
    # independent node: its clock starts fresh
    assert tracer.get(third).lamport == 1


def test_explicit_parent_advances_lamport_past_it():
    tracer = make_tracer()
    parent = tracer.emit("fault", node="n1")
    tracer.emit("fault", node="n1")
    tracer.emit("fault", node="n1")
    child = tracer.emit("fault", node="n2", parents=(3,))
    # n2's clock (0) must jump past the parent's lamport (3)
    assert tracer.get(child).lamport == 4
    assert tracer.get(parent).lamport == 1


def test_context_stack_becomes_implicit_parent():
    tracer = make_tracer()
    outer = tracer.emit("timer_fire", node="n1", delay=1.0)
    tracer.push(outer)
    try:
        inner = tracer.emit("record_added", node="n1")
    finally:
        tracer.pop()
    after = tracer.emit("fault", node="n1")
    assert outer in tracer.get(inner).parents
    assert outer not in tracer.get(after).parents
    assert tracer.current() is None


def test_ring_eviction_bounds_memory_and_counts():
    tracer = make_tracer(ring_size=10)
    for index in range(25):
        tracer.emit("fault", node="n1", index=index)
    assert tracer.events_emitted == 25
    assert tracer.events_evicted == 15
    events = tracer.events()
    assert len(events) == 10
    assert [event.eid for event in events] == list(range(16, 26))
    assert tracer.get(1) is None  # evicted
    assert tracer.get(25) is not None


def test_causal_slice_walks_ancestry_with_limit():
    tracer = make_tracer()
    chain = [tracer.emit("fault", node="n1")]
    for _ in range(99):
        chain.append(tracer.emit("fault", node="n1", parents=(chain[-1],)))
    full = tracer.causal_slice(chain[10])
    assert [event.eid for event in full] == chain[: 11]
    capped = tracer.causal_slice(chain[-1], limit=50)
    assert len(capped) == 50
    # BFS from the target: the slice is the 50 nearest ancestors
    assert capped[-1].eid == chain[-1]
    assert all(a.eid < b.eid for a, b in zip(capped, capped[1:]))


def test_causal_slice_tolerates_evicted_parents():
    tracer = make_tracer(ring_size=5)
    chain = [tracer.emit("fault", node="n1")]
    for _ in range(20):
        chain.append(tracer.emit("fault", node="n1", parents=(chain[-1],)))
    tail = tracer.causal_slice(chain[-1], limit=50)
    assert 0 < len(tail) <= 5


def test_unknown_monitor_name_rejected():
    from repro.trace import build_monitors
    from repro.trace.monitors import MONITORS

    with pytest.raises(ValueError, match="unknown monitor"):
        build_monitors(("no_such_monitor",))
    assert build_monitors(()) == []
    assert len(build_monitors("all")) == len(MONITORS)


def test_event_kind_catalog_covers_emitted_kinds():
    # every kind the instrumentation emits in a real run is cataloged
    from repro.config import TraceConfig
    from repro.harness.common import build_kv_system, run_kv_batch

    rt, _kv, _clients, driver, spec = build_kv_system(
        seed=3, n_cohorts=3, trace=TraceConfig(monitors="all")
    )
    run_kv_batch(rt, driver, spec, 20, read_fraction=0.5, concurrency=2)
    rt.quiesce()
    seen = {event.kind for event in rt.tracer.events()}
    assert seen  # the run actually traced something
    assert seen <= set(EVENT_KINDS)


def test_disabled_traceconfig_leaves_runtime_untraced():
    from repro import Runtime
    from repro.config import TraceConfig as TC

    rt = Runtime(seed=1, trace=TC(enabled=False))
    assert rt.tracer is None
    assert rt.network.tracer is None


def test_view_started_sits_on_the_new_primarys_node():
    """Every event of an activation is the new primary's, ``view_started``
    too: on its node's lane and its node's Lamport clock."""
    from repro import EmptyModule, Runtime

    rt = Runtime(seed=2, trace=TraceConfig(monitors="all"))
    group = rt.create_group("g", EmptyModule(), n_cohorts=3)
    rt.run_for(50)
    group.crash_primary()
    rt.run_for(400)
    primary = group.active_primary()
    (started,) = [event for event in rt.tracer.events() if event.kind == "view_started"]
    assert started.node == primary.node.node_id
    earlier = [
        event.lamport
        for event in rt.tracer.events()
        if event.node == started.node and event.eid < started.eid
    ]
    assert started.lamport > max(earlier)
