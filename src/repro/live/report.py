"""Stall diagnosis: what the system looked like when liveness ran out.

A liveness spec that misses its deadline raises :class:`LivenessViolation`
carrying a :class:`StallReport` -- a structured snapshot assembled at the
moment the window expired, designed to answer "why is nothing happening?"
without re-running the simulation:

- per-node protocol state (up, cohort status, viewids, ``up_to_date``),
- pending-timer counts and an in-flight-message estimate,
- every active disruption (partition blocks, failed links -- including
  one-way cuts -- link-model overrides, disk faults),
- when the bound group is partitioned away from a majority, the report
  *names* the blocks so the cause is explicit, and
- a bounded causal slice from :mod:`repro.trace` when a tracer is armed.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List


@dataclasses.dataclass
class StallReport:
    """Snapshot of a stalled system at the instant a liveness window expired."""

    at: float
    spec: str
    reason: str
    nodes: List[Dict[str, Any]]
    network: Dict[str, Any]
    disk_faults: Dict[str, List[str]]
    causal_slice: list

    def render(self) -> str:
        lines = [
            f"liveness violation at t={self.at:.3f}: {self.spec}",
            f"  reason: {self.reason}",
            "  nodes:",
        ]
        for node in self.nodes:
            state = "up" if node["up"] else "DOWN"
            lines.append(
                f"    {node['node_id']}: {state}, "
                f"{node['timers_active']} active timers"
            )
            for cohort in node["cohorts"]:
                primary = " primary" if cohort["is_primary"] else ""
                caught_up = "" if cohort["up_to_date"] else " NOT-up-to-date"
                lines.append(
                    f"      {cohort['group']}/{cohort['mid']}: "
                    f"{cohort['status']}{primary} view={cohort['cur_viewid']} "
                    f"max={cohort['max_viewid']}{caught_up}"
                )
        net = self.network
        lines.append(
            f"  network: ~{net['in_flight']} messages in flight, "
            f"{len(net['link_overrides'])} link overrides"
        )
        if net["partition_blocks"] is not None:
            rendered = " | ".join(
                ",".join(block) for block in net["partition_blocks"]
            )
            lines.append(f"    partition: {rendered}")
        for link in net["failed_links"]:
            lines.append(f"    failed link: {link}")
        for node_id, faults in sorted(self.disk_faults.items()):
            lines.append(f"  disk faults on {node_id}: {', '.join(faults)}")
        if self.causal_slice:
            lines.append(f"  causal slice ({len(self.causal_slice)} events):")
            lines.extend(f"    {event.render()}" for event in self.causal_slice)
        return "\n".join(lines)


class LivenessViolation(AssertionError):
    """A liveness spec's eventual-progress window expired without progress.

    Carries the full :class:`StallReport` as ``.report`` and exposes
    ``.causal_slice`` so the gate exports it exactly like a
    safety :class:`~repro.trace.monitors.InvariantViolation`.
    """

    def __init__(self, report: StallReport):
        self.report = report
        self.causal_slice = report.causal_slice
        super().__init__(report.render())


def build_stall_report(runtime, spec, reason: str) -> StallReport:
    """Assemble a :class:`StallReport` from one runtime, read-only."""
    nodes = []
    cohorts_by_node: Dict[str, list] = {}
    for group in runtime.groups.values():
        for cohort in group.cohorts.values():
            cohorts_by_node.setdefault(cohort.node.node_id, []).append(cohort)
    for node_id in sorted(runtime.nodes):
        node = runtime.nodes[node_id]
        nodes.append(
            {
                "node_id": node_id,
                "up": node.up,
                "timers_active": sum(
                    1 for timer in node._timers if timer.active
                ),
                "cohorts": [
                    {
                        "group": cohort.mygroupid,
                        "mid": cohort.mymid,
                        "status": cohort.status.name,
                        "cur_viewid": str(cohort.cur_viewid),
                        "max_viewid": str(cohort.max_viewid),
                        "up_to_date": cohort.up_to_date,
                        "is_primary": cohort.node.up and cohort.is_primary,
                    }
                    for cohort in cohorts_by_node.get(node_id, [])
                ],
            }
        )
    network = runtime.network
    net = {
        "in_flight": network.in_flight_estimate(),
        "partition_blocks": network.partition_blocks(),
        "failed_links": network.failed_links(),
        "link_overrides": sorted(network.link_overrides()),
    }
    disk_faults = {}
    for node_id in sorted(runtime.nodes):
        for store in runtime.nodes[node_id].stable_stores:
            active = store.faults_active()
            if active:
                disk_faults.setdefault(node_id, []).extend(active)
    reason = _name_partitioned_quorum(runtime, spec, reason, net)
    causal_slice: list = []
    if runtime.tracer is not None and runtime.tracer.events_emitted:
        # eids are consecutive: the newest event's eid is the count
        causal_slice = runtime.tracer.causal_slice(
            runtime.tracer.events_emitted, limit=50
        )
    return StallReport(
        at=runtime.sim.now,
        spec=spec.describe(),
        reason=reason,
        nodes=nodes,
        network=net,
        disk_faults=disk_faults,
        causal_slice=causal_slice,
    )


def _name_partitioned_quorum(runtime, spec, reason: str, net: dict) -> str:
    """When the spec's group cannot assemble a majority in any partition
    block, say so explicitly -- the single most common stall cause.  The
    nodes in no named block form one more block together
    (``Network.partition``)."""
    blocks = net["partition_blocks"]
    groupid = getattr(spec, "groupid", None)
    if blocks is None or groupid is None or groupid not in runtime.groups:
        return reason
    group = runtime.groups[groupid]
    member_ids = {node.node_id for node in group.nodes()}
    need = group.quorums.formation
    named = set().union(*blocks)
    for block in [*blocks, set(runtime.nodes) - named]:
        if len(member_ids & set(block)) >= need:
            return reason  # a quorum-capable block exists; not the cause
    rendered = " | ".join(",".join(block) for block in blocks)
    return (
        f"{reason}; no partition block holds a majority of group "
        f"{groupid!r} (need {need} of {sorted(member_ids)}): {rendered}"
    )
