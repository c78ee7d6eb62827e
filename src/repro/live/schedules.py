"""The one table of nemesis schedules: ``repro.live.SCHEDULES``.

Each *schedule* is a named failure regime (crash churn, lossy bursts,
partition-and-heal, asymmetric cuts, disk faults, a slow node, the soak's
partition storm, region-scale chaos) that :func:`repro.gate.state_run`
installs on a system while its retrying writes run.  A healable schedule is
held to the relaxed spec catalogue -- windows pause while faults are
active, so every clean interval and the post-``heal_all`` tail owe
progress -- and to the paper-faithful state once healed.  The one
*unhealable* schedule (a permanent three-way majority-destroying partition)
must do the opposite: the strict catalogue is required to raise a
:class:`~repro.live.report.LivenessViolation` whose
:class:`~repro.live.report.StallReport` names the partitioned quorum.  Specs
that stay quiet there are toothless, so that row failing-to-fail fails
``python -m repro.gate liveness``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict

from repro.faults.nemesis import Nemesis


@dataclasses.dataclass
class Schedule:
    """One failure regime a gate row runs its cell under."""

    name: str
    install: Callable  # (runtime, kv node_ids) -> None
    expect_violation: bool = False
    within_scale: float = 1.0
    note: str = ""


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


#: Rules that repeat until the cell stops the nemesis take a count that
#: outlasts any cell.
_UNTIL_STOPPED = 1_000_000


def _storm(runtime, node_ids) -> None:
    # The chaos soak: random two-way partitions and network-wide lossy
    # bursts while the primary crashes every 1500.
    runtime.inject(
        Nemesis("soak")
        .partition_storm(node_ids, mean_healthy=700.0, mean_partitioned=300.0)
        .lossy_bursts(mean_healthy=500.0, mean_lossy=250.0, loss=0.15, duplicate=0.05)
        .crash_primary("kv", every=1500.0, count=_UNTIL_STOPPED, recover_after=400.0)
    )


def _region(runtime, node_ids) -> None:
    # The soak on a geo topology: whole datacenters drop off the WAN and the
    # WAN itself degrades, instead of node-granular partitions.
    runtime.inject(
        Nemesis("soak")
        .region_partition(
            region="random", every=2500.0, duration=600.0, count=_UNTIL_STOPPED
        )
        .wan_degradation(mean_healthy=1500.0, mean_degraded=400.0, factor=3.0, loss=0.05)
        .crash_primary("kv", every=1500.0, count=_UNTIL_STOPPED, recover_after=400.0)
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
        Schedule("storm", _storm),
        Schedule("region", _region, note="needs a geo topology"),
        Schedule(
            "majority_partition",
            _majority_partition,
            expect_violation=True,
            within_scale=0.5,
            note="unhealable; specs are required to fire",
        ),
    ]
}


def one_crash(at: float) -> Schedule:
    """The kv primary crashes once, *at* after the load starts, and recovers
    400 later."""
    return Schedule(
        f"crash@{at:g}",
        lambda runtime, node_ids: runtime.inject(
            Nemesis().crash_primary("kv", every=at, count=1, recover_after=400.0)
        ),
    )
