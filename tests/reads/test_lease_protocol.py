"""End-to-end lease protocol tests: a leased primary serves linearizable
local reads, a disabled config falls back to the call path, and -- the
safety core -- an old primary partitioned mid-lease stops serving before
the new primary can commit, with the stale_lease monitor armed
throughout."""

from repro.config import ProtocolConfig, ReadConfig, TraceConfig
from repro.harness.common import build_kv_system
from repro.workloads.loadgen import run_closed_loop


def reads_config(**kwargs):
    return ProtocolConfig(reads=ReadConfig(enabled=True, **kwargs))


def run_read(rt, driver, groupid, uid, max_time=3_000.0, **kwargs):
    out = {}
    driver.read(groupid, uid, **kwargs).add_done_callback(
        lambda future: out.setdefault("result", future.result())
    )
    deadline = rt.sim.now + max_time
    while "result" not in out and rt.sim.now < deadline:
        rt.run_for(10.0)
    assert "result" in out, "read never resolved"
    return out["result"]


def commit_write(rt, driver, key, value):
    stats = run_closed_loop(
        rt, driver, "clients", [("write", ("kv", key, value))], max_attempts=None
    )
    deadline = rt.sim.now + 30_000.0
    while stats.committed < 1 and rt.sim.now < deadline:
        rt.run_for(100.0)
    assert stats.committed == 1, "write never committed"


def test_leased_primary_serves_linearizable_local_reads():
    rt, kv, _clients, driver, spec = build_kv_system(
        seed=21, config=reads_config(), trace=TraceConfig()
    )
    rt.run_for(150.0)
    commit_write(rt, driver, spec.key(0), 11)
    result = run_read(rt, driver, "kv", spec.key(0))
    assert result.ok
    assert result.mode == "lease"
    assert result.value == 11
    assert result.staleness == 0.0
    assert rt.metrics.counters.get("lease_reads:kv", 0) >= 1
    kinds = {event.kind for event in rt.tracer.events()}
    assert "lease_grant" in kinds
    assert "lease_read" in kinds


def test_disabled_reads_reject_and_fall_back_to_the_call_path():
    rt, _kv, _clients, driver, spec = build_kv_system(seed=22)
    rt.run_for(150.0)
    commit_write(rt, driver, spec.key(1), 5)
    via_txn = run_read(
        rt, driver, "kv", spec.key(1),
        fallback=("clients", "read", ("kv", spec.key(1))),
    )
    assert via_txn.ok
    assert via_txn.mode == "txn"
    assert via_txn.value == 5
    without_fallback = run_read(rt, driver, "kv", spec.key(1))
    assert not without_fallback.ok
    assert without_fallback.mode == "none"


def test_partitioned_old_primary_stops_serving_before_new_commit():
    """The lease safety argument, exercised: partition the leased primary
    (with a client on its side), let the majority elect and activate a
    new primary, and commit a write.  The old primary may serve its
    client only while its lease lasts -- by commit time it must be
    rejecting -- and the armed stale_lease monitor would raise on any
    overlap."""
    rt, kv, _clients, driver, spec = build_kv_system(
        seed=23, config=reads_config(), trace=TraceConfig()
    )
    stale_driver = rt.create_driver("stale-driver")
    rt.run_for(150.0)
    commit_write(rt, driver, spec.key(0), 1)
    first = run_read(rt, stale_driver, "kv", spec.key(0))
    assert first.ok and first.mode == "lease" and first.value == 1

    old = kv.active_primary()
    old_view = old.cur_view
    stale_side = {old.node.node_id, stale_driver.node.node_id}
    rt.faults.partition(stale_side, set(rt.nodes) - stale_side)

    # grants already held outlive the partition briefly: the old primary
    # keeps serving its own client, still linearizably (no newer view
    # can form without a grantor whose promise defers activation)
    during = run_read(rt, stale_driver, "kv", spec.key(0), retries=0)
    assert during.ok and during.mode == "lease" and during.value == 1

    base_changes = len(rt.ledger.view_changes_for("kv"))
    deadline = rt.sim.now + 10_000.0
    while (
        len(rt.ledger.view_changes_for("kv")) == base_changes
        and rt.sim.now < deadline
    ):
        rt.run_for(50.0)
    assert len(rt.ledger.view_changes_for("kv")) > base_changes, (
        "majority side never formed a new view"
    )
    commit_write(rt, driver, spec.key(0), 2)

    # ...by which time the old lease must have lapsed: grants cannot
    # have been renewed across the partition
    (leases,) = old.extensions
    assert not leases.state.lease_valid(old_view)
    after = run_read(
        rt, stale_driver, "kv", spec.key(0), retries=1, max_time=2_000.0
    )
    assert not after.ok

    # the new primary's activation was deferred past the lease promises
    # its acceptors reported at formation
    assert rt.metrics.counters.get("lease_waits:kv", 0) >= 1
    kinds = {event.kind for event in rt.tracer.events()}
    assert "lease_wait" in kinds
    assert "lease_expire" in kinds

    rt.faults.heal()
    rt.run_for(400.0)
    healed = run_read(rt, stale_driver, "kv", spec.key(0))
    assert healed.ok and healed.value == 2
    rt.check_invariants(require_convergence=False)
