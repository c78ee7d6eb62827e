"""Partitions: split-brain prevention, minority stalls, reconciliation."""


from repro import EmptyModule, Runtime
from repro.workloads.kv import KVStoreSpec, update_program, write_program



def await_primary(rt, group, deadline=3000):
    limit = rt.sim.now + deadline
    while rt.sim.now < limit:
        primary = group.active_primary()
        if primary is not None:
            return primary
        rt.run_for(50)
    raise AssertionError(f"no active primary for {group.groupid}")


def build_partitioned_kv(seed=55):
    rt = Runtime(seed=seed)
    spec = KVStoreSpec(n_keys=4)
    kv = rt.create_group("kv", spec, n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    clients.register_program("update", update_program)
    clients.register_program("write", write_program)
    driver = rt.create_driver("driver")
    return rt, kv, clients, driver, spec


def test_majority_side_elects_new_primary():
    rt, kv, _clients, driver, spec = build_partitioned_kv()
    f = driver.call("clients", "update", "kv", spec.key(0))
    rt.run_for(300)
    assert f.result()[0] == "committed"
    old = kv.active_primary()
    rt.network.partition([{old.node.node_id}, ])
    primary = None
    limit = rt.sim.now + 3000
    while rt.sim.now < limit:
        rt.run_for(50)
        primary = kv.active_primary()
        if primary is not None and primary.mymid != old.mymid:
            break
    assert primary is not None and primary.mymid != old.mymid


def test_minority_primary_cannot_commit():
    """The fenced primary accepts calls but its forces never complete, so
    nothing it does after the partition commits (section 4.1)."""
    rt, kv, _clients, driver, spec = build_partitioned_kv()
    f = driver.call("clients", "update", "kv", spec.key(0))
    rt.run_for(300)
    assert f.result()[0] == "committed"
    commits_before = rt.ledger.commit_count

    old = kv.active_primary()
    # Trap the whole client group + driver with the old primary so their
    # transactions go to the fenced side.
    minority = {old.node.node_id, "driver-node"}
    minority |= {n.node_id for n in rt.groups["clients"].nodes()}
    rt.network.partition([minority, set(rt.nodes) - minority])

    f = driver.call("clients", "update", "kv", spec.key(1), retries=1)
    rt.run_for(2500)
    assert rt.ledger.commit_count == commits_before
    # The trapped transaction must not be reported committed.
    if f.done:
        assert f.result()[0] != "committed"


def test_partition_heals_and_group_reconciles():
    rt, kv, _clients, driver, spec = build_partitioned_kv()
    f = driver.call("clients", "write", "kv", spec.key(0), 5)
    rt.run_for(300)
    assert f.result()[0] == "committed"
    old = kv.active_primary()
    rt.network.partition([{old.node.node_id}])
    rt.run_for(1500)
    rt.network.heal()
    rt.run_for(2000)
    rt.quiesce()
    primary = await_primary(rt, kv)
    # The old primary is back in the view, as a member of one view.
    assert old.mymid in primary.cur_view
    viewids = {c.cur_viewid for c in kv.active_cohorts()}
    assert len(viewids) == 1
    rt.check_invariants()
    assert kv.read_object(spec.key(0)) == 5


def test_paper_abc_partition_scenario():
    """Section 4's worked example: A committed a transaction forcing its
    event records to B but not C, then A crashed and recovered, and a
    partition separated B from A and C.  'In this case we cannot form a
    new view until the partition is repaired because A has lost
    information and there are forced events that C does not know.'"""
    rt, kv, clients, driver, spec = build_partitioned_kv(seed=56)
    # A = mid 0 (primary), B = mid 1, C = mid 2.
    a, b, c = kv.cohort(0), kv.cohort(1), kv.cohort(2)
    # Cut A->C and B->C buffer traffic... simplest faithful setup: let C
    # fall behind by severing its links before the transaction runs.
    rt.network.fail_link(a.node.node_id, c.node.node_id)
    rt.network.fail_link(b.node.node_id, c.node.node_id)
    f = driver.call("clients", "write", "kv", spec.key(0), 9)
    rt.run_for(120)  # commit forced to B only (C is unreachable)
    assert f.result()[0] == "committed"
    assert b.store.get(spec.key(0)).base == 9
    assert c.store.get(spec.key(0)).base == 0  # C never saw it

    # A crashes and recovers (losing volatile state); B partitions away;
    # A's links to C are repaired.
    a.node.crash()
    rt.network.repair_link(a.node.node_id, c.node.node_id)
    rt.network.repair_link(b.node.node_id, c.node.node_id)
    rt.network.partition([{b.node.node_id}])
    a.node.recover()
    rt.run_for(4000)
    # A (crashed, viewid v1) + C (normal backup of v1): condition 3 fails.
    assert kv.active_primary() is None

    # Repairing the partition brings B back: B's normal acceptance carries
    # the forced events, and the view forms without losing the commit.
    rt.network.heal()
    primary = await_primary(rt, kv, deadline=4000)
    rt.quiesce()
    assert primary.store.get(spec.key(0)).base == 9
    rt.check_invariants()


def test_flapping_partition_saftey():
    """Repeated partition/heal cycles never violate safety."""
    rt, kv, _clients, driver, spec = build_partitioned_kv(seed=57)
    outcomes = []
    for round_index in range(4):
        f = driver.call("clients", "update", "kv", spec.key(round_index % 4))
        rt.run_for(200)
        outcomes.append(f.result()[0] if f.done else "pending")
        nodes = sorted(n.node_id for n in kv.nodes())
        rt.network.partition([{nodes[round_index % 3]}])
        rt.run_for(400)
        rt.network.heal()
        rt.run_for(600)
    rt.quiesce(duration=800)
    rt.check_invariants(require_convergence=False)
    assert "committed" in outcomes  # the system made progress


def test_link_failure_between_backups_tolerated():
    """A severed backup-to-backup link doesn't stop the group: the buffer
    flows primary->backup, so commits continue."""
    rt, kv, _clients, driver, spec = build_partitioned_kv(seed=58)
    primary = kv.active_primary()
    backups = [mid for mid in range(3) if mid != primary.mymid]
    rt.network.fail_link(
        kv.cohort(backups[0]).node.node_id, kv.cohort(backups[1]).node.node_id
    )
    f = driver.call("clients", "update", "kv", spec.key(0))
    rt.run_for(400)
    assert f.result()[0] == "committed"
