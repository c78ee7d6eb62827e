"""Nemesis: randomized, protocol-aware failure workloads.

Where a :class:`~repro.faults.plan.FaultPlan` scripts faults at fixed
times against fixed targets, a :class:`Nemesis` carries *rules* that pick
their victims and timing at run time and inject through the controller's
primitives.  Every random draw comes from a named fork of the simulator's
seeded RNG, so the same seed yields a byte-identical timeline.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, List, Optional, Sequence

from repro.net.link import LinkModel
from repro.sim.process import sleep


class FaultRule:
    """One autonomous failure behaviour; subclasses implement ``run``,
    which ``start`` spawns as a controller-tracked process, or override
    ``start`` to run several (e.g. per-node churn)."""

    label = "rule"
    #: The kind in the RNG stream name ``{nemesis}/{stream}-{index}`` that
    #: :meth:`Nemesis.add` gives a rule whose ``rng_name`` is None.
    stream = ""

    def __post_init__(self) -> None:
        # A rule over nodes holds their ids as a tuple, whatever it was given.
        if hasattr(self, "node_ids"):
            self.node_ids = tuple(self.node_ids)

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

    @classmethod
    def for_shard(cls, sharded, shard: int, *args, **kwargs) -> "CrashPrimaryRule":
        """The rule for shard *shard* (by index) of a sharded group (façade
        or name): only ``{name}-s{shard}`` changes view, so only transactions
        touching that shard see it.  The other fields are the rule's."""
        from repro.shard.facade import resolve_shard_groupid

        return cls(resolve_shard_groupid(sharded, shard), *args, **kwargs)

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
    caps simultaneous failures.  ``protect_group`` holds a crash off unless
    that group would keep a majority of up, up-to-date cohorts: with
    MINIMAL stable storage a recovered node counts only once a view change
    brings it up to date, and a group short of such a majority can never
    safely re-form (docs/FAULTS.md).
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
    rng_name: Optional[str] = None
    label = "group-partition"
    stream = "group-partition"

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

    Every exponential *mean_healthy* the default link degrades to *loss*
    (and optionally *duplicate*) for an exponential *mean_lossy*.
    """

    mean_healthy: float
    mean_lossy: float
    loss: float = 0.25
    duplicate: Optional[float] = None
    rng_name: Optional[str] = None
    label = "lossy-bursts"
    stream = "lossy"

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

    ``region`` names a datacenter, or ``"random"`` to draw one per episode
    from the rule's seeded stream; needs a geo topology.
    """

    region: str
    every: float
    duration: float
    count: int = 1
    rng_name: Optional[str] = None
    label = "region-partition"
    stream = "region-partition"

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

    Every exponential *mean_healthy*, ``controller.degrade_wan(factor,
    loss)`` for an exponential *mean_degraded*, then ``restore_wan``.
    """

    mean_healthy: float
    mean_degraded: float
    factor: float = 3.0
    loss: float = 0.05
    rng_name: Optional[str] = None
    label = "wan-degradation"
    stream = "wan-degradation"

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

    Every *every*, the first non-primary cohort's links to its peers get
    *link* (default near-total loss) for *duration*: its heartbeats and
    acks vanish while it still hears the primary, so it never secedes --
    section 4.1's case where the primary must edit its view or run a view
    change.
    """

    groupid: str
    every: float
    duration: float
    rounds: int = 1
    link: Optional[LinkModel] = None
    label = "mute-backup-uplinks"

    def __post_init__(self):
        if self.link is None:
            self.link = LinkModel(base_delay=1.0, jitter=0.2, loss_probability=0.9999)

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
    rng_name: Optional[str] = None
    label = "disk-faults"
    stream = "disk"

    def __post_init__(self):
        super().__post_init__()
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
    the one-way links are repaired -- to and from every runtime node, as
    the cut was, clients and drivers included.  The two sides of the cut
    disagree about who is unreachable -- the classic gray-failure trigger.
    """

    node_ids: Sequence[str]
    mean_healthy: float
    mean_partitioned: float
    rng_name: Optional[str] = None
    label = "asymmetric-partition"
    stream = "asymmetric"

    def __post_init__(self):
        super().__post_init__()
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
            for other in controller.runtime.nodes:
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
    rng_name: Optional[str] = None
    label = "slow-node"
    stream = "slow"

    def __post_init__(self):
        super().__post_init__()
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


def _builder(rule: Callable[..., FaultRule]):
    """The :class:`Nemesis` method adding ``rule(*args, **kwargs)``."""

    def build(self, *args, **kwargs) -> "Nemesis":
        return self.add(rule(*args, **kwargs))

    return functools.update_wrapper(build, rule, assigned=("__doc__",), updated=())


class Nemesis:
    """A named bundle of randomized failure rules, built fluently::

        nemesis = (
            Nemesis()
            .crash_primary("kv", every=300.0, count=10, recover_after=140.0)
            .partition_storm(node_ids, mean_healthy=600.0, mean_partitioned=400.0)
        )
        rt.faults.execute(nemesis)

    Each builder method takes its rule class's fields.
    """

    def __init__(self, name: str = "nemesis"):
        self.name = name
        self.rules: List[FaultRule] = []

    def add(self, rule: FaultRule) -> "Nemesis":
        """Attach *rule*; one left without an ``rng_name`` draws from this
        nemesis's stream ``{name}/{rule.stream}-{index}``."""
        if getattr(rule, "rng_name", "") is None:
            rule.rng_name = f"{self.name}/{rule.stream}-{len(self.rules)}"  # type: ignore[attr-defined]
        self.rules.append(rule)
        return self

    def start(self, controller) -> None:
        for rule in self.rules:
            rule.start(controller)

    crash_primary = _builder(CrashPrimaryRule)
    crash_shard_primary = _builder(CrashPrimaryRule.for_shard)
    rolling_restart = _builder(RollingRestartRule)
    crash_churn = _builder(CrashChurnRule)
    partition_storm = _builder(PartitionStormRule)
    partition_group = _builder(GroupPartitionRule)
    lossy_bursts = _builder(LossyBurstsRule)
    disk_faults = _builder(DiskFaultRule)
    asymmetric_partition = _builder(AsymmetricPartitionRule)
    slow_node = _builder(SlowNodeRule)
    mute_backup_uplinks = _builder(MuteBackupUplinksRule)
    region_partition = _builder(RegionPartitionRule)
    wan_degradation = _builder(WanDegradationRule)


#: The name of every builder method of :class:`Nemesis`.
BUILDERS = tuple(name for name, member in vars(Nemesis).items() if hasattr(member, "__wrapped__"))
