"""Tests for the declarative fault plan API and its executor."""

import pytest

from repro import FaultPlan, Runtime
from repro.faults import PRIMITIVES, Step
from tests.conftest import build_counter_system


# -- plan construction (pure data, no runtime) ------------------------------


def test_plan_orders_ops_by_time_then_insertion():
    plan = FaultPlan()
    plan.at(500).recover("n0")
    plan.at(100).crash("n0")
    plan.at(100).heal()
    assert plan.steps() == [
        Step(100.0, "crash", ("n0",), ()),
        Step(100.0, "heal", (), ()),
        Step(500.0, "recover", ("n0",), ()),
    ]


def test_plan_cursor_chains_at_one_instant():
    plan = FaultPlan()
    plan.at(50).crash("n0").crash("n1").partition({"n0"}, {"n1", "n2"})
    assert len(plan) == 3
    assert all(step.at == 50.0 for step in plan.steps())


def test_plan_merge_with_iadd():
    first = FaultPlan()
    first.at(10).crash("n0")
    second = FaultPlan()
    second.at(5).heal()
    first += second
    assert [step.name for step in first.steps()] == ["heal", "crash"]


def test_plan_partition_normalizes_blocks():
    plan = FaultPlan()
    plan.at(0).partition({"b", "a"}, ["d", "c"])
    (step,) = plan.steps()
    assert step == Step(0, "partition", (("a", "b"), ("c", "d")), ())
    assert hash(step) == hash(Step(0, "partition", (("a", "b"), ("c", "d")), ()))


def test_plan_rejects_bad_input():
    plan = FaultPlan()
    with pytest.raises(ValueError):
        plan.at(-1).crash("n0")
    with pytest.raises(ValueError):
        plan.at(0).partition()
    with pytest.raises(ValueError):
        plan.at(0).lossy(rate=1.5)
    with pytest.raises(ValueError):
        plan.at(0).flap_link("n0", "n1", period=0.0, duration=10.0)


def test_primitives_refuse_what_plans_refuse():
    """The refusal lives in the primitive: a direct call with no block or a
    non-positive flap period is refused and injects nothing."""
    rt = Runtime(seed=1)
    with pytest.raises(ValueError, match="at least one block"):
        rt.faults.partition()
    with pytest.raises(ValueError, match="period > 0"):
        rt.faults.flap_link("n0", "n1", period=0.0, duration=10.0)
    with pytest.raises(ValueError, match="period > 0"):
        rt.faults.flap_link("n0", "n1", period=5.0, duration=-1.0)
    assert rt.network.partition_blocks() is None
    assert rt.faults.timeline == []


def test_every_primitive_can_be_planned():
    plan = FaultPlan()
    for name in PRIMITIVES:
        getattr(plan.at(0), name)  # the cursor offers it
    with pytest.raises(AttributeError):
        plan.at(0).melt("n0")
    with pytest.raises(TypeError):
        plan.at(0).crash()  # a node id is required, as in the call
    plan.at(0).disk_slow("n0", factor=4.0).slow_node("n1").heal_all()
    assert [step.name for step in plan.steps()] == ["disk_slow", "slow_node", "heal_all"]


def test_inject_rejects_non_plan():
    rt = Runtime(seed=1)
    with pytest.raises(TypeError):
        rt.inject("crash everything")


# -- executor against a live runtime ----------------------------------------


def test_crash_recover_round_trip_restores_convergence():
    """The headline acceptance test: a planned crash of the primary plus a
    later recovery leaves a group that converges and passes the full
    invariant battery."""
    rt, counter, _clients, driver = build_counter_system(seed=42)
    first = driver.call("clients", "bump", 1)
    rt.run_for(400)
    assert first.result()[0] == "committed"

    victim = counter.active_primary().node.node_id
    plan = FaultPlan()
    plan.at(0.0).crash(victim)
    plan.at(600.0).recover(victim)
    rt.inject(plan)
    rt.run_for(3000)

    second = driver.call("clients", "bump", 1)
    rt.run_for(3000)
    assert second.result()[0] == "committed"
    rt.quiesce()
    rt.check_invariants()  # includes replica convergence
    assert counter.read_object("count") == 2
    assert [event.kind for event in rt.faults.timeline[:2]] == ["crash", "recover"]


def test_crash_primary_op_resolves_target_at_fire_time():
    rt, counter, _clients, driver = build_counter_system(seed=7)
    driver.call("clients", "bump", 1)
    rt.run_for(400)
    before = counter.active_primary().node.node_id
    plan = FaultPlan()
    plan.at(10.0).crash_primary("counter", recover_after=500.0)
    rt.inject(plan)
    rt.run_for(3000)
    assert rt.faults.count("crash") == 1
    assert rt.faults.timeline[0].target == before
    assert rt.faults.count("recover") == 1
    assert rt.nodes[before].up


def test_partition_window_blocks_and_heals():
    rt, counter, _clients, _driver = build_counter_system(seed=3)
    addresses = [address for _mid, address in rt.location.lookup("counter")]
    lone, rest = addresses[0], addresses[1:]
    node_ids = [rt.network.node_of(a).node_id for a in addresses]
    plan = FaultPlan()
    plan.at(0.0).partition({node_ids[0]}, set(node_ids[1:]))
    plan.at(200.0).heal()
    rt.inject(plan)
    rt.run_for(100)
    assert not rt.network.can_communicate(lone, rest[0])
    assert rt.network.can_communicate(rest[0], rest[1])
    rt.run_for(200)
    assert rt.network.can_communicate(lone, rest[0])
    assert rt.faults.count("partition") == 1
    assert rt.faults.count("heal") == 1


def test_flap_link_always_ends_repaired():
    rt, counter, _clients, _driver = build_counter_system(seed=5)
    addresses = [address for _mid, address in rt.location.lookup("counter")]
    a, b = (rt.network.node_of(addr).node_id for addr in addresses[:2])
    plan = FaultPlan()
    # 130 is not a whole number of 50-unit periods: the trailing half-flap
    # must still repair the link before the flapper exits.
    plan.at(0.0).flap_link(a, b, period=50.0, duration=130.0)
    rt.inject(plan)
    rt.run_for(500)
    fails = rt.faults.count("fail_link")
    repairs = rt.faults.count("repair_link")
    assert fails == repairs > 0
    assert rt.network.can_communicate(addresses[0], addresses[1])


def test_lossy_window_restores_default_link():
    rt, _counter, _clients, _driver = build_counter_system(seed=9)
    default = rt.network.link
    plan = FaultPlan()
    plan.at(0.0).lossy(rate=0.25, duration=100.0)
    rt.inject(plan)
    rt.run_for(50)
    assert rt.network.link.loss_probability == 0.25
    assert rt.network.link.base_delay == default.base_delay
    rt.run_for(100)
    assert rt.network.link == default
    assert rt.faults.count("lossy") == 1
    assert rt.faults.count("restore_links") == 1


# -- injection bookkeeping ---------------------------------------------------


def test_injections_are_recorded_in_metrics_and_ledger():
    rt, counter, _clients, _driver = build_counter_system(seed=11)
    victim = counter.cohort(0).node.node_id
    rt.faults.crash(victim)
    assert rt.metrics.counters["faults_injected:crash"] == 1
    assert len(rt.ledger.faults) == 1
    event = rt.ledger.faults[0]
    assert (event.kind, event.target) == ("crash", victim)


def test_crash_is_idempotent_and_reports_it():
    rt, counter, _clients, _driver = build_counter_system(seed=11)
    victim = counter.cohort(0).node.node_id
    assert rt.faults.crash(victim) is True
    assert rt.faults.crash(victim) is False  # already down: not re-recorded
    assert rt.faults.count("crash") == 1
    assert rt.faults.recover(victim) is True
    assert rt.faults.recover(victim) is False


def test_unknown_fault_target_raises_clear_error():
    rt = Runtime(seed=1)
    with pytest.raises(KeyError, match="unknown node"):
        rt.faults.crash("no-such-node")
