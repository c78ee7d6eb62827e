"""Gray failures: one-way cuts, slow nodes, disk faults, and heal_all."""

import pytest

from repro import Nemesis
from repro.faults.nemesis import (
    AsymmetricPartitionRule,
    DiskFaultRule,
    SlowNodeRule,
)
from tests.conftest import build_counter_system


def _node_ids(group):
    return [node.node_id for node in group.nodes()]


def _addr(rt, node_id):
    return rt.nodes[node_id].actors[0].address


# -- controller primitives ----------------------------------------------------


def test_fail_link_oneway_blocks_only_one_direction():
    rt, counter, _clients, _driver = build_counter_system(seed=31)
    a, b = _node_ids(counter)[:2]
    rt.faults.fail_link_oneway(a, b)
    addr_a, addr_b = _addr(rt, a), _addr(rt, b)
    assert not rt.network.can_communicate(addr_a, addr_b)
    assert rt.network.can_communicate(addr_b, addr_a)
    rt.faults.repair_link_oneway(a, b)
    assert rt.network.can_communicate(addr_a, addr_b)


def test_isolate_oneway_outbound_silences_the_victim():
    rt, counter, _clients, _driver = build_counter_system(seed=32)
    ids = _node_ids(counter)
    victim = ids[0]
    rt.faults.isolate_oneway(victim, "outbound")
    for other in ids[1:]:
        assert not rt.network.can_communicate(_addr(rt, victim), _addr(rt, other))
        assert rt.network.can_communicate(_addr(rt, other), _addr(rt, victim))


def test_isolate_oneway_inbound_deafens_the_victim():
    rt, counter, _clients, _driver = build_counter_system(seed=33)
    ids = _node_ids(counter)
    victim = ids[0]
    rt.faults.isolate_oneway(victim, "inbound")
    for other in ids[1:]:
        assert rt.network.can_communicate(_addr(rt, victim), _addr(rt, other))
        assert not rt.network.can_communicate(_addr(rt, other), _addr(rt, victim))


def test_isolate_oneway_rejects_unknown_direction():
    rt, counter, _clients, _driver = build_counter_system(seed=34)
    with pytest.raises(ValueError):
        rt.faults.isolate_oneway(_node_ids(counter)[0], "sideways")


def test_slow_node_overrides_links_and_restore_undoes_them():
    rt, counter, _clients, _driver = build_counter_system(seed=35)
    victim = _node_ids(counter)[0]
    assert not rt.network.link_overrides()
    rt.faults.slow_node(victim, factor=8.0)
    overrides = rt.network.link_overrides()
    assert overrides
    slowed = next(iter(overrides.values()))
    assert slowed.base_delay == rt.network.link.base_delay * 8.0
    rt.faults.restore_node(victim)
    assert not rt.network.link_overrides()
    # Restoring an already-restored node is a silent no-op.
    rt.faults.restore_node(victim)


def test_slow_node_factor_below_one_rejected():
    rt, counter, _clients, _driver = build_counter_system(seed=36)
    with pytest.raises(ValueError):
        rt.faults.slow_node(_node_ids(counter)[0], factor=0.5)


def test_disk_primitives_target_every_store_on_the_node():
    rt, counter, _clients, _driver = build_counter_system(seed=37)
    victim = _node_ids(counter)[0]
    rt.faults.disk_fail(victim)
    stores = rt.nodes[victim].stable_stores
    assert stores and all(store.fail_writes for store in stores)
    rt.faults.disk_slow(victim, factor=4.0)
    assert all(store.slow_factor == 4.0 for store in stores)
    rt.faults.disk_heal(victim)
    assert all(store.faults_active() == [] for store in stores)


def test_disk_fault_on_storeless_node_is_an_error():
    rt, _counter, _clients, _driver = build_counter_system(seed=38)
    node_id = next(
        node_id for node_id, node in rt.nodes.items()
        if not node.stable_stores
    )
    with pytest.raises(ValueError):
        rt.faults.disk_fail(node_id)


def test_heal_all_restores_every_disruption():
    """The full contract heal() deliberately does not provide."""
    rt, counter, _clients, _driver = build_counter_system(seed=39)
    ids = _node_ids(counter)
    rt.run_for(200)
    rt.faults.partition({ids[0]}, set(ids[1:]))
    rt.faults.fail_link(ids[0], ids[1])
    rt.faults.fail_link_oneway(ids[1], ids[2])
    rt.faults.slow_node(ids[2], factor=8.0)
    rt.faults.lossy(0.5)
    rt.faults.disk_fail(ids[0])
    rt.faults.crash(ids[1])
    assert rt.network.disrupted(rt.faults._default_link)

    rt.faults.heal_all()

    assert rt.network.partition_blocks() is None
    assert rt.network.failed_links() == []
    assert not rt.network.link_overrides()
    assert rt.network.link == rt.faults._default_link
    assert not rt.network.disrupted(rt.faults._default_link)
    assert all(node.up for node in counter.nodes())
    for node in counter.nodes():
        for store in node.stable_stores:
            assert store.faults_active() == []
    kinds = [event.kind for event in rt.faults.timeline]
    assert kinds[-1] == "heal_all"
    assert "recover" in kinds  # the crashed node came back through recover()
    # The healed group must re-form and keep working.
    rt.run_for(2000)
    assert counter.active_primary() is not None


# -- nemesis rules ------------------------------------------------------------


def test_disk_fault_rule_injects_and_heals():
    rt, counter, _clients, _driver = build_counter_system(seed=41)
    rt.inject(
        Nemesis("disks").disk_faults(
            _node_ids(counter), mean_healthy=150.0, mean_faulty=80.0,
            mode="fail",
        )
    )
    rt.run_for(2000)
    assert rt.faults.count("disk_fail") >= 1
    assert rt.faults.count("disk_heal") >= 1


def test_disk_fault_rule_torn_mode_recovers_the_victim():
    rt, counter, _clients, driver = build_counter_system(seed=42)
    driver.call("clients", "bump", 1)
    rt.run_for(300)
    rt.inject(
        Nemesis("torn").disk_faults(
            _node_ids(counter), mean_healthy=100.0, mean_faulty=200.0,
            mode="torn",
        )
    )
    rt.run_for(4000)
    assert rt.faults.count("disk_torn") >= 1
    # Torn faults crash the victim on its next write; the rule must bring
    # every such victim back so the schedule stays healable.
    rt.faults.stop()
    rt.faults.heal_all()
    rt.run_for(2000)
    assert all(node.up for node in counter.nodes())


def test_asymmetric_partition_rule_cuts_and_repairs():
    rt, counter, _clients, _driver = build_counter_system(seed=43)
    rt.inject(
        Nemesis("asym").asymmetric_partition(
            _node_ids(counter), mean_healthy=150.0, mean_partitioned=100.0
        )
    )
    rt.run_for(2000)
    assert rt.faults.count("isolate_oneway") >= 1
    assert rt.faults.count("repair_link_oneway") >= 1
    # A round repairs in one step whatever it cut, clients' and the
    # driver's links included: after its last repair nothing is left cut.
    while rt.faults.timeline[-1].kind != "repair_link_oneway":
        rt.run_for(10)
    assert rt.network.failed_links() == []
    rt.faults.stop()
    rt.faults.heal_all()
    assert rt.network.failed_links() == []


def test_slow_node_rule_slows_and_restores():
    rt, counter, _clients, _driver = build_counter_system(seed=44)
    rt.inject(
        Nemesis("slow").slow_node(
            _node_ids(counter), mean_healthy=150.0, mean_slow=100.0,
            link_factor=4.0, disk_factor=4.0,
        )
    )
    rt.run_for(2000)
    assert rt.faults.count("slow_node") >= 1
    assert rt.faults.count("restore_node") >= 1
    assert rt.faults.count("disk_slow") >= 1
    assert rt.faults.count("disk_heal") >= 1


def test_gray_failure_rules_replay_byte_identical_timelines():
    def run_once():
        rt, counter, _clients, _driver = build_counter_system(seed=45)
        ids = _node_ids(counter)
        rt.inject(
            Nemesis("gray")
            .disk_faults(ids, mean_healthy=200.0, mean_faulty=100.0)
            .asymmetric_partition(ids, mean_healthy=250.0, mean_partitioned=120.0)
            .slow_node(ids, mean_healthy=300.0, mean_slow=150.0)
        )
        rt.run_for(3000)
        return rt.faults.timeline_text()

    assert run_once() == run_once()


def test_rule_constructors_validate_arguments():
    with pytest.raises(ValueError):
        DiskFaultRule(["n0"], 100.0, 50.0, mode="melt")
    with pytest.raises(ValueError):
        SlowNodeRule(["n0"], 100.0, 50.0, link_factor=0.5)
    with pytest.raises(ValueError):
        AsymmetricPartitionRule([], 100.0, 50.0)


def test_crash_churn_protect_group_never_strands_the_group():
    """With MINIMAL storage, crashing a node while the previous victim is
    still catching up can strand the group unrecoverably; protect_group
    must hold such crashes back."""
    rt, counter, _clients, driver = build_counter_system(seed=46)
    driver.call("clients", "bump", 1)
    rt.run_for(300)
    rt.inject(
        Nemesis("churn").crash_churn(
            _node_ids(counter), mttf=250.0, mttr=120.0, max_down=2,
            protect_group="counter",
        )
    )
    group = rt.groups["counter"]
    end = rt.sim.now + 6000
    while rt.sim.now < end:
        rt.run_for(50)
        up_to_date = sum(
            1 for cohort in group.cohorts.values()
            if cohort.node.up and cohort.up_to_date
        )
        assert up_to_date >= group.quorums.formation, (
            f"churn stranded the group at t={rt.sim.now}"
        )
    rt.faults.stop()
    rt.faults.heal_all()
    rt.run_for(2000)
    assert counter.active_primary() is not None
