"""Runtime: the top-level assembly of one simulated system.

A :class:`Runtime` owns the simulator, the network, the location service,
the metrics sink, and the transaction ledger, and offers factory methods
for nodes, module groups, and workload drivers.  This is the main entry
point of the public API::

    from repro import Runtime, ModuleSpec, procedure

    class Counter(ModuleSpec):
        def initial_objects(self):
            return {"count": 0}

        @procedure
        def increment(self, ctx, amount):
            value = yield ctx.read("count")
            yield ctx.write("count", value + amount)
            return value + amount

    rt = Runtime(seed=1)
    counter = rt.create_group("counter", Counter(), n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    driver = rt.create_driver("driver")
    ...
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.shard.facade import ShardedGroup

from repro.analysis.ledger import TransactionLedger
from repro.analysis.metrics import Metrics
from repro.config import ProtocolConfig, TraceConfig
from repro.core.group import ModuleGroup
from repro.driver import Driver
from repro.faults.controller import FaultController
from repro.location.service import LocationService
from repro.net.link import LAN, LinkModel
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.node import Node


class Runtime:
    """One simulated deployment of the viewstamped replication system."""

    def __init__(
        self,
        seed: int | str = 0,
        link: LinkModel = LAN,
        config: Optional[ProtocolConfig] = None,
        max_events: int = 5_000_000,
        trace: Optional[TraceConfig] = None,
    ):
        self.sim = Simulator(seed=seed, max_events=max_events)
        self.metrics = Metrics()
        self.network = Network(self.sim, link=link, metrics=self.metrics)
        self.location = LocationService()
        self.ledger = TransactionLedger(clock=lambda: self.sim.now)
        self.config = config if config is not None else ProtocolConfig()
        self.nodes: Dict[str, Node] = {}
        self.groups: Dict[str, ModuleGroup] = {}
        self.sharded: Dict[str, "ShardedGroup"] = {}
        self.drivers: List[Driver] = []
        self.tracer = None
        if trace is not None and trace.enabled:
            # Wired before any group exists so no send/activation is missed.
            from repro.trace import Tracer, build_monitors

            self.tracer = Tracer(self.sim, trace)
            self.tracer.install_monitors(build_monitors(trace.monitors))
            self.sim.tracer = self.tracer
            self.network.tracer = self.tracer
        self.faults = FaultController(self)
        # repro.live attachment point; None = liveness checking disabled
        # (mirrors ``tracer``: nothing pays for the feature until armed).
        self.liveness = None
        # repro.geo: ``topology is None`` = the paper's flat network; armed
        # topologies place cohorts by policy and install structural links.
        self.topology = None
        self.placement = None
        self.node_sites: Dict[str, str] = {}
        geo = self.config.geo
        if geo is not None and geo.topology is not None:
            from repro.geo.placement import resolve_placement

            self.topology = geo.topology
            self.placement = resolve_placement(geo.placement)
            self.location.attach_topology(self.topology)

    # -- factories ------------------------------------------------------------

    def create_node(self, node_id: str, site: Optional[str] = None) -> Node:
        """Create a node, optionally placed at a topology *site*.

        Placing a node installs structural link models (both directions)
        between it and every previously placed node, derived from the
        topology's intra-zone/intra-DC/cross-DC tiers.  Unplaced nodes
        keep the flat default link to everyone.
        """
        if node_id in self.nodes:
            raise ValueError(f"node {node_id!r} already exists")
        if site is not None:
            if self.topology is None:
                raise ValueError(
                    "create_node(site=...) requires ProtocolConfig.geo "
                    "with a topology"
                )
            if not self.topology.has_site(site):
                raise ValueError(
                    f"unknown site {site!r} (have {list(self.topology.sites())})"
                )
        node = Node(self.sim, node_id)
        self.nodes[node_id] = node
        if site is not None:
            for other_id, other_site in self.node_sites.items():
                self.network.set_structural_link(
                    node_id, other_id, self.topology.link_between(site, other_site)
                )
                self.network.set_structural_link(
                    other_id, node_id, self.topology.link_between(other_site, site)
                )
            self.node_sites[node_id] = site
        return node

    def create_group(
        self,
        groupid: str,
        spec,
        n_cohorts: int = 3,
        config: Optional[ProtocolConfig] = None,
        nodes: Optional[List[Node]] = None,
    ) -> ModuleGroup:
        """Create a replicated module group.

        By default each cohort gets its own node (the paper's bottleneck
        discussion in section 5 assumes primaries of different groups run
        on different nodes; pass ``nodes`` to co-locate explicitly).
        """
        if nodes is None and n_cohorts < 1:
            raise ValueError(
                f"create_group({groupid!r}): n_cohorts must be >= 1, "
                f"got {n_cohorts}"
            )
        if nodes is not None and len(nodes) < 1:
            raise ValueError(
                f"create_group({groupid!r}): need at least one node, "
                "got an empty list"
            )
        if groupid in self.groups:
            # Fail before any node is created: a duplicate would otherwise
            # surface as a confusing node-name collision (or, with explicit
            # nodes, silently shadow the earlier group's runtime entry).
            raise ValueError(f"group {groupid!r} already exists in this runtime")
        if nodes is None:
            if self.placement is not None:
                # Geo-armed: the placement policy assigns one site per mid
                # (index order = mid order, so mid 0 -- the initial
                # primary -- gets the policy's first site).
                sites = self.placement.place(self.topology, groupid, n_cohorts)
                if len(sites) != n_cohorts:
                    raise ValueError(
                        f"placement {self.placement.name!r} returned "
                        f"{len(sites)} sites for {n_cohorts} cohorts"
                    )
                nodes = [
                    self.create_node(f"{groupid}-n{i}", site=sites[i])
                    for i in range(n_cohorts)
                ]
            else:
                nodes = [
                    self.create_node(f"{groupid}-n{i}") for i in range(n_cohorts)
                ]
        group = ModuleGroup(self, groupid, spec, nodes, config=config)
        self.groups[groupid] = group
        if self.topology is not None:
            # Geo routing needs to know where each cohort *address* lives.
            for mid in sorted(group.cohorts):
                cohort = group.cohort(mid)
                cohort_site = self.node_sites.get(cohort.node.node_id)
                if cohort_site is not None:
                    self.location.register_site(cohort.address, cohort_site)
        return group

    def sharded_group(
        self,
        name: str,
        n_shards: int,
        n_cohorts: int = 3,
        spec_factory=None,
        strategy: str = "hash",
        boundaries: Optional[Sequence[str]] = None,
        n_keys: int = 16,
        config: Optional[ProtocolConfig] = None,
    ) -> "ShardedGroup":
        """A partitioned key space over *n_shards* replica groups.

        Creates ``{name}-s0 .. {name}-s{n-1}`` shard groups plus a
        ``{name}-router`` client group for cross-shard transactions, and
        publishes the versioned :class:`~repro.shard.map.ShardMap` through
        the location service.  Submit key-addressed work with
        :meth:`Driver.call`.  See docs/SHARDING.md.
        """
        from repro.shard.facade import ShardedGroup

        if name in self.sharded:
            raise ValueError(f"sharded group {name!r} already exists")
        sharded = ShardedGroup(
            self,
            name,
            n_shards=n_shards,
            n_cohorts=n_cohorts,
            spec_factory=spec_factory,
            strategy=strategy,
            boundaries=boundaries,
            n_keys=n_keys,
            config=config,
        )
        self.sharded[name] = sharded
        return sharded

    def create_driver(
        self,
        name: str,
        node: Optional[Node] = None,
        site: Optional[str] = None,
    ) -> Driver:
        """Create a workload driver, optionally homed at a topology *site*.

        A sited driver pays structural (geo) delay to every placed node
        and routes reads to the nearest serving replica.
        """
        if node is None:
            node = self.create_node(f"{name}-node", site=site)
        elif site is not None:
            raise ValueError(
                "pass site= only when create_driver creates the node; "
                "an explicit node's site is fixed at create_node time"
            )
        driver = Driver(node, self, name)
        if self.topology is not None:
            driver_site = self.node_sites.get(node.node_id)
            if driver_site is not None:
                self.location.register_site(driver.address, driver_site)
        self.drivers.append(driver)
        return driver

    def create_agent(
        self, name: str, coordinator_group: str, node: Optional[Node] = None
    ):
        """An unreplicated client using a coordinator-server (section 3.5)."""
        from repro.agent import ClientAgent

        if node is None:
            node = self.create_node(f"{name}-node")
        return ClientAgent(node, self, name, coordinator_group)

    # -- fault injection ---------------------------------------------------------

    def inject(self, *sources) -> "FaultController":
        """Execute fault plans / nemeses; see :mod:`repro.faults`."""
        return self.faults.execute(*sources)

    # -- liveness checking --------------------------------------------------------

    def arm_liveness(
        self,
        specs,
        poll_interval: Optional[float] = None,
        raise_on_violation: bool = True,
    ):
        """Arm window-bounded liveness specs; see :mod:`repro.live`.

        Returns the :class:`~repro.live.checker.LivenessChecker`, also
        available as ``runtime.liveness``.  Checking is pure observation:
        an armed run follows the same trajectory as an unarmed one.
        """
        from repro.live.checker import LivenessChecker

        if self.liveness is not None:
            raise RuntimeError("liveness specs are already armed")
        self.liveness = LivenessChecker(
            self,
            specs,
            poll_interval=poll_interval,
            raise_on_violation=raise_on_violation,
        )
        return self.liveness

    # -- execution --------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def run_for(self, duration: float) -> float:
        return self.sim.run(until=self.sim.now + duration)

    # -- system-wide correctness checks -----------------------------------------

    def check_invariants(self, require_convergence: bool = True) -> None:
        """Assert one-copy serializability and replica convergence.

        Call after quiescing (run a few flush intervals with no new load).
        Convergence is only required of groups that currently have an
        active primary -- a group stalled by a catastrophe has nothing to
        converge.
        """
        self.ledger.check_serializability()
        if not require_convergence:
            return
        for group in self.groups.values():
            if group.active_primary() is None:
                continue
            problems = group.divergence_report()
            if problems:
                raise AssertionError(
                    f"replicas of {group.groupid} diverged: {problems}"
                )

    def lock_residue(self) -> List[tuple]:
        """``(groupid, uid, holders)`` for every object still locked at an
        active primary.  Call after quiescing with every transaction
        resolved: what is listed then is a lock nobody will release."""
        residue = []
        for group in self.groups.values():
            primary = group.active_primary()
            if primary is None:
                continue
            for uid, lockers in sorted(primary.store.lockers.items()):
                residue.append((group.groupid, uid, sorted(map(str, lockers))))
        return residue

    def quiesce(self, duration: Optional[float] = None) -> None:
        """Run long enough for buffers to drain and acks to land."""
        if duration is None:
            duration = 6 * self.config.flush_interval + 10 * self.network.link.base_delay
        self.run_for(duration)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Runtime(now={self.sim.now:.1f}, groups={sorted(self.groups)}, "
            f"nodes={len(self.nodes)})"
        )
