"""A timeline replays as a plan: the steps its events record, injected at
the moment the nemesis was, re-make it in the same gate cell."""

import dataclasses

import pytest

from repro import FaultPlan
from repro.config import ProtocolConfig, TraceConfig
from repro.gate import GATES, state_run
from repro.harness.common import build_kv_system
from repro.live import SCHEDULES, Schedule


def _cell(seed: int, txns: int, schedule: Schedule):
    """``repro.gate._chaos(schedule=...)``'s cell: the plain three-cohort
    system, every monitor armed, two writers after a settle."""
    system = build_kv_system(
        seed=seed, n_keys=txns, config=ProtocolConfig(), trace=TraceConfig(monitors="all")
    )
    run = state_run(system, schedule=schedule, concurrency=2, settle=60.0)
    return system[0], run


def _installed(schedule: Schedule, seen: dict) -> Schedule:
    def install(rt, node_ids):
        seen["at"] = rt.sim.now
        schedule.install(rt, node_ids)

    return dataclasses.replace(schedule, install=install)


@pytest.mark.parametrize("gate, name", [("trace-seed2026", "storm"), ("liveness-seed0", "crash_churn")])
def test_a_gate_cells_timeline_replays_as_a_plan(gate, name):
    seed, txns = GATES[gate].seed, GATES[gate].txns
    seen: dict = {}
    rt, run = _cell(seed, txns, _installed(SCHEDULES[name], seen))
    timeline = list(rt.faults.timeline)
    assert run.metrics["faults"] >= 30, "too few faults fired to replay"
    plan = FaultPlan.replay(timeline, origin=seen["at"])

    replay = Schedule("replay", lambda runtime, _ids: runtime.inject(plan))
    again, replayed = _cell(seed, txns, replay)
    assert again.faults.timeline_text() == rt.faults.timeline_text()
    assert replayed.state == run.state
    # Every commit at the same time, too.  (The schedule digest counts
    # simulator events, and a plan wakes at other times than the rules.)
    assert replayed.outcome == run.outcome
    assert replayed.metrics == run.metrics


def _direct_faults(rt):
    rt.run_for(200.0)
    a, b, *_ = sorted(node.node_id for node in rt.groups["kv"].nodes())
    rt.faults.lossy(0.1, duration=50.0)
    rt.faults.crash_primary("kv", recover_after=30.0)
    rt.faults.flap_link(a, b, period=10.0, duration=25.0)
    rt.run_for(100.0)
    rt.faults.crash(a)
    rt.faults.heal_all()


def test_nested_and_deferred_work_rides_the_step_of_its_call():
    rt = build_kv_system(seed=5)[0]
    _direct_faults(rt)
    made = [
        (event.kind, event.step.name if event.step else None)
        for event in rt.faults.timeline
    ]
    assert made == [
        ("lossy", "lossy"),
        ("crash", "crash_primary"),
        ("fail_link", "flap_link"),
        ("repair_link", None),
        ("fail_link", None),
        ("repair_link", None),
        ("recover", None),
        ("restore_links", None),
        ("crash", "crash"),
        ("recover", "heal_all"),
        ("heal_all", None),
    ]
    again = build_kv_system(seed=5)[0]
    again.inject(FaultPlan.replay(rt.faults.timeline))
    again.run_for(rt.sim.now)
    assert again.faults.timeline_text() == rt.faults.timeline_text()
