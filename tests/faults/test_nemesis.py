"""Tests for randomized nemesis rules and timeline reproducibility."""

from repro import Nemesis
from tests.conftest import build_counter_system


def test_crash_primary_rule_fires_count_times_and_recovers():
    rt, counter, _clients, driver = build_counter_system(seed=21)
    driver.call("clients", "bump", 1)
    rt.run_for(400)
    rt.inject(Nemesis().crash_primary("counter", every=400.0, count=2,
                                      recover_after=200.0))
    rt.run_for(6000)
    assert rt.faults.count("crash") == 2
    assert rt.faults.count("recover") == 2
    assert all(node.up for node in counter.nodes())


def test_rolling_restart_touches_every_node_once_per_round():
    rt, counter, _clients, _driver = build_counter_system(seed=22)
    node_ids = [node.node_id for node in counter.nodes()]
    rt.inject(Nemesis().rolling_restart(node_ids, every=300.0, downtime=100.0))
    rt.run_for(3000)
    crashed = [e.target for e in rt.faults.timeline if e.kind == "crash"]
    assert crashed == node_ids
    assert rt.faults.count("recover") == len(node_ids)


def test_partition_storm_blocks_match_group_membership():
    rt, counter, _clients, _driver = build_counter_system(seed=23)
    node_ids = {node.node_id for node in counter.nodes()}
    rt.inject(
        Nemesis().partition_storm(
            sorted(node_ids), mean_healthy=200.0, mean_partitioned=150.0
        )
    )
    rt.run_for(4000)
    partitions = [e for e in rt.faults.timeline if e.kind == "partition"]
    assert partitions, "storm never formed a partition in 4000 time units"
    for event in partitions:
        blocks = [set(block.split(",")) for block in event.target.split(" | ")]
        assert len(blocks) == 2
        assert blocks[0] | blocks[1] == node_ids
        assert blocks[0] and blocks[1]
    rt.faults.stop()
    rt.faults.heal()
    rt.quiesce()
    rt.check_invariants(require_convergence=False)


def test_group_partition_isolates_primary_in_minority():
    rt, counter, _clients, driver = build_counter_system(seed=24, n_cohorts=5)
    driver.call("clients", "bump", 1)
    rt.run_for(400)
    primary_node = counter.active_primary().node.node_id
    rt.inject(
        Nemesis().partition_group("counter", every=50.0, duration=400.0, count=1)
    )
    rt.run_for(200)
    partitions = [e for e in rt.faults.timeline if e.kind == "partition"]
    assert len(partitions) == 1
    minority = set(partitions[0].target.split(" | ")[0].split(","))
    assert primary_node in minority
    assert len(minority) == 2  # strict sub-majority of 5
    rt.run_for(4000)
    assert rt.faults.count("heal") == 1
    # The majority side must have elected a new primary meanwhile.
    assert len(rt.ledger.view_changes_for("counter")) >= 1


def test_same_seed_nemesis_replays_byte_identical_timeline():
    """Acceptance criterion: a same-seed fault plan replays a byte-identical
    injected-event timeline."""

    def run_once():
        rt, counter, _clients, driver = build_counter_system(seed=77)
        for _ in range(3):
            driver.call("clients", "bump", 1)
        node_ids = [node.node_id for node in counter.nodes()]
        rt.inject(
            Nemesis()
            .crash_churn(node_ids, mttf=600.0, mttr=200.0, max_down=1)
            .partition_storm(node_ids, mean_healthy=700.0, mean_partitioned=300.0)
            .crash_primary("counter", every=900.0, count=2, recover_after=300.0)
        )
        rt.run_for(8000)
        return rt.faults.timeline_text()

    first, second = run_once(), run_once()
    assert first == second
    assert first.count("\n") >= 3  # the storm actually injected faults


def test_different_seed_changes_the_timeline():
    def run_once(seed):
        rt, counter, _clients, _driver = build_counter_system(seed=seed)
        node_ids = [node.node_id for node in counter.nodes()]
        rt.inject(Nemesis().crash_churn(node_ids, mttf=500.0, mttr=150.0))
        rt.run_for(8000)
        return rt.faults.timeline_text()

    assert run_once(31) != run_once(32)


def test_stop_halts_rules_but_keeps_timeline():
    rt, counter, _clients, _driver = build_counter_system(seed=25)
    rt.inject(Nemesis().crash_primary("counter", every=100.0, count=50,
                                      recover_after=10.0))
    rt.run_for(350)
    injected = rt.faults.count("crash")
    assert injected >= 2
    rt.faults.stop()
    rt.run_for(2000)
    assert rt.faults.count("crash") == injected  # no further injections


def test_lossy_bursts_alternate_degrade_and_restore():
    rt, _counter, _clients, _driver = build_counter_system(seed=29)
    clean_link = rt.network.link
    rt.inject(Nemesis().lossy_bursts(mean_healthy=300.0, mean_lossy=150.0,
                                     loss=0.3, duplicate=0.1))
    rt.run_for(5000)
    bursts = rt.faults.count("lossy")
    assert bursts >= 2
    # Every burst that ended was restored; at most one can still be open.
    assert rt.faults.count("restore_links") >= bursts - 1
    degraded = [e for e in rt.faults.timeline if e.kind == "lossy"]
    assert all("loss=0.3" in e.target for e in degraded)
    rt.faults.stop()
    rt.faults.restore_links()
    assert rt.network.link == clean_link
