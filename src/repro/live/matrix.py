"""The nemesis x spec coverage matrix behind ``python -m repro.live``.

Each *schedule* is a named failure regime (crash churn, lossy bursts,
partition-and-heal, asymmetric cuts, disk faults, a slow node) run
against the full spec catalog with a retrying KV workload.  Healable
schedules must finish with **zero** liveness violations: the relaxed
specs pause their windows while faults are active, so every clean
interval -- and the post-``heal_all`` tail -- is held to the progress
deadline.  The one *unhealable* schedule (a permanent three-way
majority-destroying partition) must do the opposite: its strict specs
are required to produce a :class:`~repro.live.report.LivenessViolation`
whose :class:`~repro.live.report.StallReport` names the partitioned
quorum.  A matrix where the unhealable cell stays quiet means the specs
are toothless, so that cell failing-to-fail fails the run.
"""

from __future__ import annotations

import dataclasses
import gc
from typing import Callable, Dict, List, Optional

from repro.faults.nemesis import Nemesis
from repro.harness.common import build_kv_system, kv_jobs
from repro.live.report import StallReport
from repro.live.specs import spec_catalog
from repro.workloads.loadgen import run_retry_loop


@dataclasses.dataclass
class Schedule:
    """One failure regime the matrix runs the spec catalog against."""

    name: str
    install: Callable  # (runtime, node_ids) -> None
    expect_violation: bool = False
    within_scale: float = 1.0
    note: str = ""


@dataclasses.dataclass
class CellResult:
    """Outcome of one schedule x spec-catalog cell."""

    schedule: str
    seed: int
    ok: bool
    detail: str
    polls: int
    violations: int
    committed: int
    faults_injected: int
    report: Optional[StallReport] = None

    def render(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return (
            f"{self.schedule:<20} {status:<5} polls={self.polls:<5} "
            f"violations={self.violations:<3} committed={self.committed:<5} "
            f"faults={self.faults_injected:<4} {self.detail}"
        )


# -- schedule installers ------------------------------------------------------


def _crash_churn(runtime, node_ids) -> None:
    # protect_group keeps a majority of *up-to-date* cohorts: with MINIMAL
    # stable storage, crashing a node while the last victim is still
    # catching up strands the group in a state it can never safely
    # re-form from (a real stall the specs would rightly report).
    runtime.inject(
        Nemesis("crash-churn").crash_churn(
            node_ids, mttf=700.0, mttr=160.0, max_down=1, protect_group="kv"
        )
    )


def _lossy(runtime, node_ids) -> None:
    runtime.inject(
        Nemesis("lossy").lossy_bursts(
            mean_healthy=600.0, mean_lossy=250.0, loss=0.2
        )
    )


def _partition_heal(runtime, node_ids) -> None:
    runtime.inject(
        Nemesis("partition-heal").partition_group(
            "kv", every=700.0, duration=260.0, count=4
        )
    )


def _asymmetric(runtime, node_ids) -> None:
    runtime.inject(
        Nemesis("asymmetric").asymmetric_partition(
            node_ids, mean_healthy=700.0, mean_partitioned=220.0
        )
    )


def _disk_fault(runtime, node_ids) -> None:
    # Disk faults only bite when cur_viewid must move, so pair them with
    # primary crashes that force view changes while a disk is bad.
    runtime.inject(
        Nemesis("disk-fault")
        .disk_faults(node_ids, mean_healthy=600.0, mean_faulty=200.0, mode="fail")
        .crash_primary("kv", every=650.0, count=4, recover_after=180.0)
    )


def _slow_node(runtime, node_ids) -> None:
    runtime.inject(
        Nemesis("slow-node").slow_node(
            node_ids,
            mean_healthy=700.0,
            mean_slow=220.0,
            link_factor=6.0,
            disk_factor=6.0,
        )
    )


def _majority_partition(runtime, node_ids) -> None:
    # Permanent three-singleton split: no block can form a majority, so
    # strict specs MUST violate and the report MUST name the blocks.
    runtime.faults.partition(*[{node_id} for node_id in node_ids])


SCHEDULES: Dict[str, Schedule] = {
    schedule.name: schedule
    for schedule in [
        Schedule("crash_churn", _crash_churn),
        Schedule("lossy", _lossy),
        Schedule("partition_heal", _partition_heal),
        Schedule("asymmetric", _asymmetric),
        Schedule("disk_fault", _disk_fault),
        Schedule("slow_node", _slow_node),
        Schedule(
            "majority_partition",
            _majority_partition,
            expect_violation=True,
            within_scale=0.5,
            note="unhealable; specs are required to fire",
        ),
    ]
}


# -- cell execution -----------------------------------------------------------


def run_cell(
    schedule: Schedule,
    seed: int = 0,
    duration: float = 5_000.0,
    trace=None,
) -> CellResult:
    """Run one schedule against the spec catalog; deterministic per seed."""
    rt, kv, clients, driver, spec = build_kv_system(seed=seed, trace=trace)
    node_ids = [node.node_id for node in kv.nodes()]
    strict = schedule.expect_violation
    specs = spec_catalog(
        "kv",
        rt.config,
        within_scale=schedule.within_scale,
        commits=None if strict else 1,
        strict=strict,
    )
    checker = rt.arm_liveness(specs, raise_on_violation=False)

    rt.run_for(60.0)  # let the bootstrap view settle before injecting
    schedule.install(rt, node_ids)

    stats = None
    if not strict:
        # Distinct-key retry-until-commit writes: enough of them that the
        # closed loop outlasts the cell, so the commits spec stays fed.
        jobs = [
            ("write", ("kv", spec.key(index % spec.n_keys), index))
            for index in range(50_000)
        ]
        stats = run_retry_loop(rt, driver, "clients", jobs, concurrency=4)

    end = rt.sim.now + duration
    while rt.sim.now < end:
        rt.run_for(200.0)

    committed = stats.committed if stats is not None else 0
    faults = len(rt.faults.timeline)
    if strict:
        checker.disarm()
        return _judge_unhealable(schedule, seed, checker, committed, faults)

    # Heal everything and hold the system to the post-disruption deadline:
    # from here the windows charge continuously, and the still-running
    # retry workload must visibly commit again.
    rt.faults.stop()
    rt.faults.heal_all()
    before_tail = stats.committed
    # Long enough that any post-heal stall exhausts the widest window.
    tail = 1.25 * max(armed.within for armed in specs)
    tail_end = rt.sim.now + tail
    while rt.sim.now < tail_end:
        rt.run_for(100.0)
    checker.disarm()
    committed = stats.committed
    # The workload never quiesces (that is the point), so convergence is
    # asserted by the always-on specs; here only serializability.
    rt.check_invariants(require_convergence=False)

    violations = len(checker.violations)
    ok = violations == 0 and committed > before_tail
    if violations:
        detail = checker.violations[0].report.reason
    elif committed <= before_tail:
        detail = "no commits landed after heal_all"
    else:
        detail = "all specs held"
    return CellResult(
        schedule=schedule.name,
        seed=seed,
        ok=ok,
        detail=detail,
        polls=checker.polls,
        violations=violations,
        committed=committed,
        faults_injected=len(rt.faults.timeline),
        report=checker.violations[0].report if violations else None,
    )


def _judge_unhealable(
    schedule: Schedule, seed: int, checker, committed: int, faults: int
) -> CellResult:
    violations = len(checker.violations)
    named = [
        violation
        for violation in checker.violations
        if "no partition block holds a majority" in violation.report.reason
    ]
    ok = violations > 0 and bool(named)
    if not violations:
        detail = "expected a LivenessViolation but none fired"
    elif not named:
        detail = "violations fired but none named the partitioned quorum"
    else:
        detail = named[0].report.reason
    return CellResult(
        schedule=schedule.name,
        seed=seed,
        ok=ok,
        detail=detail,
        polls=checker.polls,
        violations=violations,
        committed=committed,
        faults_injected=faults,
        report=named[0].report if named else None,
    )


def run_matrix(
    seed: int = 0,
    duration: float = 5_000.0,
    schedules: Optional[List[str]] = None,
    trace=None,
) -> List[CellResult]:
    """Run the schedule x spec matrix; each cell gets its own runtime."""
    names = schedules if schedules else list(SCHEDULES)
    unknown = [name for name in names if name not in SCHEDULES]
    if unknown:
        raise KeyError(
            f"unknown schedules {unknown}; known: {sorted(SCHEDULES)}"
        )
    results = []
    for name in names:
        results.append(
            run_cell(SCHEDULES[name], seed=seed, duration=duration, trace=trace)
        )
        # The cell's Runtime is one big cycle and just died: free it here,
        # not a relaxed gen-0 threshold later (repro.sim.kernel).
        gc.collect()
    return results
