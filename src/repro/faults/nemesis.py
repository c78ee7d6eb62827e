"""Nemesis: randomized, protocol-aware failure workloads.

Where a :class:`~repro.faults.plan.FaultPlan` scripts faults at fixed
times against fixed targets, a :class:`Nemesis` carries *rules* that pick
their victims and timing at run time -- "crash the primary every T",
Poisson crash/recover churn, rolling restarts, random majority/minority
partitions.  Every random draw comes from a named fork of the simulator's
seeded RNG, so a nemesis is exactly as reproducible as a static plan: the
same seed yields a byte-identical injected-event timeline.

Rules are started by a :class:`~repro.faults.controller.FaultController`
and inject through its primitives, so everything a nemesis does lands in
the controller's timeline, the metrics counters, and the ledger.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.net.link import LinkModel
from repro.sim.process import sleep


class FaultRule:
    """One autonomous failure behaviour; subclasses implement ``run``.

    ``start`` is called once by the controller; the default spawns the
    rule's ``run`` generator as a controller-tracked process.  Rules that
    need several concurrent processes (e.g. per-node churn) override
    ``start`` instead.
    """

    label = "rule"

    def start(self, controller) -> None:
        controller.spawn(self.run(controller), name=f"nemesis:{self.label}")

    def run(self, controller):
        raise NotImplementedError


@dataclasses.dataclass
class CrashPrimaryRule(FaultRule):
    """Crash *groupid*'s active primary every *every*, *count* times."""

    groupid: str
    every: float
    count: int = 1
    recover_after: Optional[float] = None
    label = "crash-primary"

    def run(self, controller):
        for _ in range(self.count):
            yield sleep(self.every)
            controller.crash_primary(self.groupid, recover_after=self.recover_after)


@dataclasses.dataclass
class RollingRestartRule(FaultRule):
    """Restart nodes one at a time: crash, recover after *downtime*."""

    node_ids: Sequence[str]
    every: float
    downtime: float
    rounds: int = 1
    label = "rolling-restart"

    def run(self, controller):
        for _ in range(self.rounds):
            for node_id in self.node_ids:
                yield sleep(self.every)
                if controller.crash(node_id):
                    controller.recover_later(node_id, self.downtime)


@dataclasses.dataclass
class CrashChurnRule(FaultRule):
    """Poisson crash/recover churn: each node independently fails with
    exponential MTTF and recovers after exponential MTTR.  ``max_down``
    caps simultaneous failures (set it to the sub-majority to keep the
    group formable, or leave uncapped to allow catastrophes).

    ``protect_group`` adds the stronger, protocol-aware guard ``max_down``
    alone cannot give: with the MINIMAL stable-storage policy a *recovered*
    node contributes nothing until a view change brings it up to date, so
    crashing the next node while the last one is still catching up can
    leave fewer than a majority of up-to-date cohorts -- state the group
    can never safely re-form from (it stalls forever, by design, rather
    than lose forced commits).  With ``protect_group`` set, a crash is
    held off unless the group would keep a majority of up, up-to-date
    cohorts afterwards.
    """

    node_ids: Sequence[str]
    mttf: float
    mttr: float
    max_down: Optional[int] = None
    rng_name: str = "crash-schedule"
    protect_group: Optional[str] = None
    label = "crash-churn"

    def start(self, controller) -> None:
        # One process per node, all drawing from one shared named stream:
        # the spawn order (node order) makes the draw sequence, and hence
        # the timeline, deterministic for a given seed.
        rng = controller.runtime.sim.rng.fork(self.rng_name)
        for node_id in self.node_ids:
            controller.spawn(
                self._churn(controller, node_id, rng), name=f"churn:{node_id}"
            )

    def _down_count(self, controller) -> int:
        return sum(
            1 for node_id in self.node_ids if not controller.node(node_id).up
        )

    def _crash_would_strand(self, controller, node_id: str) -> bool:
        """Would crashing *node_id* leave ``protect_group`` unable to
        re-form (``Quorums.strands``)?  Too few up, up-to-date cohorts, or
        -- with witness replicas, which hold no event buffer -- too few
        *storage* cohorts among them to cover every past force quorum."""
        group = controller.runtime.groups[self.protect_group]
        return group.quorums.strands(
            cohort.mymid
            for cohort in group.cohorts.values()
            if cohort.node.node_id != node_id
            and cohort.node.up
            and cohort.up_to_date
        )

    def _churn(self, controller, node_id: str, rng):
        node = controller.node(node_id)
        while True:
            yield sleep(rng.expovariate(1.0 / self.mttf))
            if self.max_down is not None and self._down_count(controller) >= self.max_down:
                continue  # hold off; too many already down
            if not node.up:
                continue
            if self.protect_group is not None and self._crash_would_strand(
                controller, node_id
            ):
                continue  # hold off; a peer is still catching up
            controller.crash(node_id)
            yield sleep(rng.expovariate(1.0 / self.mttr))
            if node.up:
                continue
            controller.recover(node_id)


@dataclasses.dataclass
class PartitionStormRule(FaultRule):
    """Repeatedly split the nodes into two random blocks, then heal."""

    node_ids: Sequence[str]
    mean_healthy: float
    mean_partitioned: float
    rng_name: str = "partition-schedule"
    label = "partition-storm"

    def run(self, controller):
        rng = controller.runtime.sim.rng.fork(self.rng_name)
        while True:
            yield sleep(rng.expovariate(1.0 / self.mean_healthy))
            ids = list(self.node_ids)
            rng.shuffle(ids)
            cut = rng.randint(1, len(ids) - 1)
            controller.partition(set(ids[:cut]), set(ids[cut:]))
            yield sleep(rng.expovariate(1.0 / self.mean_partitioned))
            controller.heal()


@dataclasses.dataclass
class GroupPartitionRule(FaultRule):
    """Partition a group so its primary lands on a chosen side.

    ``primary_side`` is ``"minority"`` (the paper's interesting case: the
    old primary is fenced because it cannot force to a sub-majority),
    ``"majority"`` (the group keeps serving), or ``"random"``.  The
    minority block is a random sub-majority of the group's nodes.
    """

    groupid: str
    every: float
    duration: float
    count: int = 1
    primary_side: str = "minority"
    rng_name: str = "group-partition"
    label = "group-partition"

    def run(self, controller):
        rng = controller.runtime.sim.rng.fork(self.rng_name)
        group = controller.runtime.groups[self.groupid]
        for _ in range(self.count):
            yield sleep(self.every)
            node_ids = [node.node_id for node in group.nodes()]
            minority_size = (len(node_ids) - 1) // 2
            if minority_size < 1:
                continue  # a group of <= 2 has no strict minority to isolate
            primary = group.active_primary()
            primary_node = primary.node.node_id if primary is not None else None
            side = self.primary_side
            if side == "random" or primary_node is None:
                side = rng.choice(("minority", "majority"))
            others = [nid for nid in node_ids if nid != primary_node]
            rng.shuffle(others)
            if primary_node is not None and side == "minority":
                minority = {primary_node, *others[: minority_size - 1]}
            else:
                minority = set(others[:minority_size])
            majority_block = set(node_ids) - minority
            controller.partition(minority, majority_block)
            yield sleep(self.duration)
            controller.heal()


@dataclasses.dataclass
class LossyBurstsRule(FaultRule):
    """Alternate clean and lossy periods on the network-wide link.

    Models weather on a shared segment: every exponential *mean_healthy*
    the default link degrades to *loss* (and optionally *duplicate*) for
    an exponential *mean_lossy*, then is restored.  Combine with a
    partition storm for the E16 robustness scenario.
    """

    mean_healthy: float
    mean_lossy: float
    loss: float = 0.25
    duplicate: Optional[float] = None
    rng_name: str = "lossy-schedule"
    label = "lossy-bursts"

    def run(self, controller):
        rng = controller.runtime.sim.rng.fork(self.rng_name)
        while True:
            yield sleep(rng.expovariate(1.0 / self.mean_healthy))
            controller.lossy(self.loss, duplicate=self.duplicate)
            yield sleep(rng.expovariate(1.0 / self.mean_lossy))
            controller.restore_links()


@dataclasses.dataclass
class RegionPartitionRule(FaultRule):
    """Cut a whole datacenter off *count* times, healing in between.

    ``region`` names a datacenter, or ``"random"`` to draw one per
    episode from the rule's seeded stream.  Requires a geo topology
    (``ProtocolConfig.geo``); built on ``controller.partition_region``,
    restored by ``controller.heal()``.
    """

    region: str
    every: float
    duration: float
    count: int = 1
    rng_name: str = "region-partition"
    label = "region-partition"

    def run(self, controller):
        rng = controller.runtime.sim.rng.fork(self.rng_name)
        for _ in range(self.count):
            yield sleep(self.every)
            region = self.region
            if region == "random":
                topology = controller.runtime.topology
                if topology is None:
                    raise ValueError(
                        "region_partition requires a geo topology"
                    )
                region = rng.choice(list(topology.dc_names()))
            controller.partition_region(region)
            yield sleep(self.duration)
            controller.heal()


@dataclasses.dataclass
class WanDegradationRule(FaultRule):
    """Alternate healthy and degraded WAN weather on cross-DC paths.

    Every exponential *mean_healthy*, every cross-datacenter pair's
    delay/jitter scales by *factor* and its loss floor rises to *loss*
    for an exponential *mean_degraded*; intra-DC traffic never suffers.
    Built on ``controller.degrade_wan`` / ``restore_wan`` (so
    ``heal_all()`` also clears it).
    """

    mean_healthy: float
    mean_degraded: float
    factor: float = 3.0
    loss: float = 0.05
    rng_name: str = "wan-degradation"
    label = "wan-degradation"

    def run(self, controller):
        rng = controller.runtime.sim.rng.fork(self.rng_name)
        while True:
            yield sleep(rng.expovariate(1.0 / self.mean_healthy))
            controller.degrade_wan(self.factor, self.loss)
            yield sleep(rng.expovariate(1.0 / self.mean_degraded))
            controller.restore_wan()


@dataclasses.dataclass
class MuteBackupUplinksRule(FaultRule):
    """Asymmetric outage: silence one backup's uplinks, then restore.

    Every *every*, the first non-primary cohort's outgoing links to its
    peers are overridden with *link* (typically near-total loss) for
    *duration*: its heartbeats and acks vanish while it still hears the
    primary, so it never secedes -- the section 4.1 scenario where the
    primary must either unilaterally edit its view or run a full view
    change.
    """

    groupid: str
    every: float
    duration: float
    rounds: int = 1
    link: LinkModel = dataclasses.field(
        default_factory=lambda: LinkModel(
            base_delay=1.0, jitter=0.2, loss_probability=0.9999
        )
    )
    label = "mute-backup-uplinks"

    def run(self, controller):
        group = controller.runtime.groups[self.groupid]
        for _ in range(self.rounds):
            yield sleep(self.every)
            primary = group.active_primary()
            if primary is None:
                continue
            victim = next(
                group.cohort(mid)
                for mid in range(group.size)
                if mid != primary.mymid
            )
            peers = [
                address
                for peer, address in victim.configuration
                if peer != victim.mymid
            ]
            for address in peers:
                controller.degrade_link(victim.address, address, self.link)
            yield sleep(self.duration)
            for address in peers:
                controller.restore_link(victim.address, address)


@dataclasses.dataclass
class DiskFaultRule(FaultRule):
    """Inject stable-storage faults on random nodes, then heal them.

    Every exponential *mean_healthy* a random node's disks fail (*mode*
    ``"fail"``: writes error), slow down (*mode* ``"slow"``: writes take
    *slow_factor* times longer), or arm a torn write (*mode* ``"torn"``:
    the next write persists but the node crashes unacknowledged).  Fail
    and slow are healed after an exponential *mean_faulty*; torn victims
    are healed and recovered after it (the crash is the fault).
    """

    node_ids: Sequence[str]
    mean_healthy: float
    mean_faulty: float
    mode: str = "fail"
    slow_factor: float = 8.0
    rng_name: str = "disk-schedule"
    label = "disk-faults"

    def __post_init__(self):
        if self.mode not in ("fail", "slow", "torn"):
            raise ValueError(f"mode must be fail/slow/torn, got {self.mode!r}")
        if not self.node_ids:
            raise ValueError("node_ids must be non-empty")

    def run(self, controller):
        rng = controller.runtime.sim.rng.fork(self.rng_name)
        while True:
            yield sleep(rng.expovariate(1.0 / self.mean_healthy))
            victim = rng.choice(list(self.node_ids))
            if self.mode == "fail":
                controller.disk_fail(victim)
            elif self.mode == "slow":
                controller.disk_slow(victim, self.slow_factor)
            else:
                controller.disk_torn(victim)
            yield sleep(rng.expovariate(1.0 / self.mean_faulty))
            controller.disk_heal(victim)
            if self.mode == "torn" and not controller.node(victim).up:
                controller.recover(victim)


@dataclasses.dataclass
class AsymmetricPartitionRule(FaultRule):
    """One-directional outages: a random node goes mute or deaf, then heals.

    Every exponential *mean_healthy* a random victim is isolated in a
    random single direction (outbound = mute: it hears everyone, nobody
    hears it; inbound = deaf) for an exponential *mean_partitioned*, then
    the one-way links are repaired.  The two sides of the cut disagree
    about who is unreachable -- the classic gray-failure trigger.
    """

    node_ids: Sequence[str]
    mean_healthy: float
    mean_partitioned: float
    rng_name: str = "asymmetric-schedule"
    label = "asymmetric-partition"

    def __post_init__(self):
        if not self.node_ids:
            raise ValueError("node_ids must be non-empty")

    def run(self, controller):
        rng = controller.runtime.sim.rng.fork(self.rng_name)
        while True:
            yield sleep(rng.expovariate(1.0 / self.mean_healthy))
            victim = rng.choice(list(self.node_ids))
            direction = rng.choice(("outbound", "inbound"))
            controller.isolate_oneway(victim, direction)
            yield sleep(rng.expovariate(1.0 / self.mean_partitioned))
            for other in self.node_ids:
                if other == victim:
                    continue
                if direction == "outbound":
                    controller.repair_link_oneway(victim, other)
                else:
                    controller.repair_link_oneway(other, victim)


@dataclasses.dataclass
class SlowNodeRule(FaultRule):
    """Gray failure: a random node goes slow (links and disk), then recovers.

    Every exponential *mean_healthy* a random victim's links are stretched
    by *link_factor* and its stable writes by *disk_factor* for an
    exponential *mean_slow*.  The node stays up and correct -- just slow
    enough to drag on whoever depends on it.
    """

    node_ids: Sequence[str]
    mean_healthy: float
    mean_slow: float
    link_factor: float = 8.0
    disk_factor: float = 8.0
    rng_name: str = "slow-schedule"
    label = "slow-node"

    def __post_init__(self):
        if not self.node_ids:
            raise ValueError("node_ids must be non-empty")
        if self.link_factor < 1.0 or self.disk_factor < 1.0:
            raise ValueError(
                f"factors must be >= 1.0, got link={self.link_factor} "
                f"disk={self.disk_factor}"
            )

    def run(self, controller):
        rng = controller.runtime.sim.rng.fork(self.rng_name)
        while True:
            yield sleep(rng.expovariate(1.0 / self.mean_healthy))
            victim = rng.choice(list(self.node_ids))
            controller.slow_node(victim, self.link_factor)
            controller.disk_slow(victim, self.disk_factor)
            yield sleep(rng.expovariate(1.0 / self.mean_slow))
            controller.restore_node(victim)
            controller.disk_heal(victim)


class Nemesis:
    """A named bundle of randomized failure rules, built fluently::

        nemesis = (
            Nemesis()
            .crash_primary("kv", every=300.0, count=10, recover_after=140.0)
            .partition_storm(node_ids, mean_healthy=600.0, mean_partitioned=400.0)
        )
        rt.faults.execute(nemesis)
    """

    def __init__(self, name: str = "nemesis"):
        self.name = name
        self.rules: List[FaultRule] = []

    def _stream(self, kind: str) -> str:
        return f"{self.name}/{kind}-{len(self.rules)}"

    def add(self, rule: FaultRule) -> "Nemesis":
        self.rules.append(rule)
        return self

    def crash_primary(
        self,
        groupid: str,
        every: float,
        count: int = 1,
        recover_after: Optional[float] = None,
    ) -> "Nemesis":
        return self.add(CrashPrimaryRule(groupid, every, count, recover_after))

    def crash_shard_primary(
        self,
        sharded,
        shard: int,
        every: float,
        count: int = 1,
        recover_after: Optional[float] = None,
    ) -> "Nemesis":
        """Crash one shard of a sharded group (façade or name) by index.

        Targets only ``{name}-s{shard}``; the other shards and the router
        group keep serving, so only transactions touching this shard see
        the view change.
        """
        from repro.shard.facade import resolve_shard_groupid

        groupid = resolve_shard_groupid(sharded, shard)
        return self.add(CrashPrimaryRule(groupid, every, count, recover_after))

    def partition_shard(
        self,
        sharded,
        shard: int,
        every: float,
        duration: float,
        count: int = 1,
        primary_side: str = "minority",
        rng_name: Optional[str] = None,
    ) -> "Nemesis":
        """Partition one shard of a sharded group (façade or name) by index."""
        from repro.shard.facade import resolve_shard_groupid

        groupid = resolve_shard_groupid(sharded, shard)
        return self.partition_group(
            groupid, every, duration, count, primary_side, rng_name
        )

    def rolling_restart(
        self,
        node_ids: Sequence[str],
        every: float,
        downtime: float,
        rounds: int = 1,
    ) -> "Nemesis":
        return self.add(RollingRestartRule(tuple(node_ids), every, downtime, rounds))

    def crash_churn(
        self,
        node_ids: Sequence[str],
        mttf: float,
        mttr: float,
        max_down: Optional[int] = None,
        rng_name: str = "crash-schedule",
        protect_group: Optional[str] = None,
    ) -> "Nemesis":
        return self.add(
            CrashChurnRule(
                tuple(node_ids), mttf, mttr, max_down, rng_name, protect_group
            )
        )

    def partition_storm(
        self,
        node_ids: Sequence[str],
        mean_healthy: float,
        mean_partitioned: float,
        rng_name: str = "partition-schedule",
    ) -> "Nemesis":
        return self.add(
            PartitionStormRule(
                tuple(node_ids), mean_healthy, mean_partitioned, rng_name
            )
        )

    def partition_group(
        self,
        groupid: str,
        every: float,
        duration: float,
        count: int = 1,
        primary_side: str = "minority",
        rng_name: Optional[str] = None,
    ) -> "Nemesis":
        return self.add(
            GroupPartitionRule(
                groupid,
                every,
                duration,
                count,
                primary_side,
                rng_name or self._stream("group-partition"),
            )
        )

    def lossy_bursts(
        self,
        mean_healthy: float,
        mean_lossy: float,
        loss: float = 0.25,
        duplicate: Optional[float] = None,
        rng_name: Optional[str] = None,
    ) -> "Nemesis":
        return self.add(
            LossyBurstsRule(
                mean_healthy,
                mean_lossy,
                loss,
                duplicate,
                rng_name or self._stream("lossy"),
            )
        )

    def disk_faults(
        self,
        node_ids: Sequence[str],
        mean_healthy: float,
        mean_faulty: float,
        mode: str = "fail",
        slow_factor: float = 8.0,
        rng_name: Optional[str] = None,
    ) -> "Nemesis":
        return self.add(
            DiskFaultRule(
                tuple(node_ids),
                mean_healthy,
                mean_faulty,
                mode,
                slow_factor,
                rng_name or self._stream("disk"),
            )
        )

    def asymmetric_partition(
        self,
        node_ids: Sequence[str],
        mean_healthy: float,
        mean_partitioned: float,
        rng_name: Optional[str] = None,
    ) -> "Nemesis":
        return self.add(
            AsymmetricPartitionRule(
                tuple(node_ids),
                mean_healthy,
                mean_partitioned,
                rng_name or self._stream("asymmetric"),
            )
        )

    def slow_node(
        self,
        node_ids: Sequence[str],
        mean_healthy: float,
        mean_slow: float,
        link_factor: float = 8.0,
        disk_factor: float = 8.0,
        rng_name: Optional[str] = None,
    ) -> "Nemesis":
        return self.add(
            SlowNodeRule(
                tuple(node_ids),
                mean_healthy,
                mean_slow,
                link_factor,
                disk_factor,
                rng_name or self._stream("slow"),
            )
        )

    def mute_backup_uplinks(
        self,
        groupid: str,
        every: float,
        duration: float,
        rounds: int = 1,
        link: Optional[LinkModel] = None,
    ) -> "Nemesis":
        rule = MuteBackupUplinksRule(groupid, every, duration, rounds)
        if link is not None:
            rule.link = link
        return self.add(rule)

    def region_partition(
        self,
        region: str,
        every: float,
        duration: float,
        count: int = 1,
        rng_name: Optional[str] = None,
    ) -> "Nemesis":
        return self.add(
            RegionPartitionRule(
                region,
                every,
                duration,
                count,
                rng_name or self._stream("region-partition"),
            )
        )

    def wan_degradation(
        self,
        mean_healthy: float,
        mean_degraded: float,
        factor: float = 3.0,
        loss: float = 0.05,
        rng_name: Optional[str] = None,
    ) -> "Nemesis":
        return self.add(
            WanDegradationRule(
                mean_healthy,
                mean_degraded,
                factor,
                loss,
                rng_name or self._stream("wan-degradation"),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Nemesis({self.name!r}, rules={len(self.rules)})"
