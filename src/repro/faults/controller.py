"""The fault controller: the one fault vocabulary, and its executor.

One :class:`FaultController` belongs to one
:class:`~repro.runtime.Runtime` (``runtime.faults``) and is the single gate
through which faults enter a simulation.  Its **primitives** -- the methods
marked ``@primitive``, listed in :data:`PRIMITIVES` -- are the whole fault
vocabulary: called directly, one acts on the runtime at once; as a step of
a :class:`~repro.faults.plan.FaultPlan` (``plan.at(t).crash("kv-n0")``) it
is checked when the plan is built, against its signature and its one value
check; :meth:`execute` runs plans and :class:`~repro.faults.nemesis.Nemesis`
rules as simulated processes that call those same primitives.

Every injection is appended to :attr:`timeline` with the :class:`Step` that
made it, counted in the runtime's metrics (``faults_injected:<kind>``) and
reported to the transaction ledger.  All randomness comes from named forks
of the simulator RNG, so a same-seed rerun reproduces the timeline byte for
byte (:meth:`timeline_text`), and :meth:`~repro.faults.plan.FaultPlan.replay`
turns it back into a plan.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.net.link import LinkModel
from repro.sim.process import Process, sleep, spawn


class Step(NamedTuple):
    """One call of a primitive, as plain hashable data: ``kwargs`` is
    ``(keyword, value)`` pairs sorted by keyword, and a collection argument
    (a partition block) a sorted tuple."""

    at: float
    name: str
    args: tuple
    kwargs: tuple

    @classmethod
    def of(cls, at: float, name: str, args: tuple, kwargs: dict) -> "Step":
        """The step calling primitive *name* with *args* / *kwargs* at *at*,
        refused as the call would be: ``TypeError`` for arguments its
        signature does not take, ``ValueError`` from its value check."""
        signature, valid, refusal = PRIMITIVES[name]
        bound = signature.bind(*args, **kwargs)
        if valid is not None:
            bound.apply_defaults()
            if not valid(**bound.arguments):
                raise ValueError(refusal.format(**bound.arguments))
        plain_kwargs = sorted((key, _plain(value)) for key, value in kwargs.items())
        return cls(at, name, tuple(map(_plain, args)), tuple(plain_kwargs))


def _plain(value):
    if isinstance(value, (set, frozenset, list, tuple)):
        return tuple(sorted(value))
    return value


#: Every primitive's name -> (its signature without ``self``, its value
#: check or None, the check's refusal), in definition order.
PRIMITIVES: Dict[str, Tuple[inspect.Signature, Optional[Callable[..., bool]], str]] = {}


def primitive(valid: Optional[Callable[..., bool]] = None, refusal: str = ""):
    """Make a :class:`FaultController` method a primitive.

    *valid* takes the call's arguments by name, defaults applied; a call
    it returns False for raises ``ValueError(refusal.format(**arguments))``.
    The check runs on every call and when a plan step is built.  A call
    made outside any other primitive's call is the step its events record.
    """

    def register(method):
        signature = inspect.signature(method)
        PRIMITIVES[method.__name__] = (
            signature.replace(parameters=list(signature.parameters.values())[1:]),
            valid,
            refusal,
        )

        @functools.wraps(method)
        def call(self, *args, **kwargs):
            step = Step.of(self.runtime.sim.now, method.__name__, args, kwargs)
            if self._cause is not None:  # part of another primitive's call
                return method(self, *args, **kwargs)
            self._cause = [step]
            try:
                return method(self, *args, **kwargs)
            finally:
                self._cause = None

        return call

    return register


@dataclasses.dataclass(frozen=True)
class InjectedFault:
    """One fault that actually happened, at simulated time ``at``.

    ``step`` is the top-level call that made it, on the first event that
    call made (None on the rest, such as ``crash_primary``'s later recovery
    or ``flap_link``'s later flaps), so replaying each step re-makes them.
    """

    at: float
    kind: str
    target: str
    step: Optional[Step]

    def render(self) -> str:
        return f"{self.at:.6f} {self.kind} {self.target}".rstrip()


class FaultController:
    """Injects faults into one runtime and records everything it did."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.timeline: List[InjectedFault] = []
        self._processes: List[Process] = []
        self._default_link = runtime.network.link
        # Directed address pairs overridden by slow_node, per victim, so
        # restore_node can undo exactly what slow_node did.
        self._slow_pairs: dict = {}
        # Directed address pairs overridden by degrade_wan, so restore_wan
        # can undo exactly the cross-DC degradation.
        self._wan_pairs: List[tuple] = []
        # While a primitive call (or its deferred work) runs: a one-slot
        # list holding its step until the first event it makes takes it.
        self._cause: Optional[list] = None

    # -- bookkeeping --------------------------------------------------------

    def _record(self, kind: str, target: str = "") -> None:
        cause = self._cause
        event = InjectedFault(self.runtime.sim.now, kind, target, cause[0])
        cause[0] = None
        self.timeline.append(event)
        self.runtime.metrics.incr(f"faults_injected:{kind}")
        self.runtime.ledger.record_fault(kind, target, event.at)
        if self.runtime.tracer is not None:
            self.runtime.tracer.emit_row("fault", None, (), (kind, target))

    def _within(self, cause: list, method, *args) -> None:
        """Run primitive *method* as part of the call *cause* belongs to."""
        outer, self._cause = self._cause, cause
        try:
            method(*args)
        finally:
            self._cause = outer

    def _later(self, delay: float, method, *args) -> None:
        """Run primitive *method* after *delay*, as part of the current call."""
        self.runtime.sim.schedule(delay, self._within, self._cause, method, *args)

    def node(self, node_id: str):
        try:
            return self.runtime.nodes[node_id]
        except KeyError:
            raise KeyError(
                f"fault targets unknown node {node_id!r}; "
                f"known: {sorted(self.runtime.nodes)}"
            ) from None

    def _addresses(self, node_id: str) -> List[str]:
        return [actor.address for actor in self.node(node_id).actors]

    def count(self, kind: str) -> int:
        return sum(1 for event in self.timeline if event.kind == kind)

    def timeline_text(self) -> str:
        """Canonical rendering of every injected event, for replay checks."""
        return "\n".join(event.render() for event in self.timeline)

    def spawn(self, generator, name: str) -> Process:
        process = spawn(self.runtime.sim, generator, name=name)
        self._processes.append(process)
        return process

    # -- node faults --------------------------------------------------------

    @primitive()
    def crash(self, node_id: str) -> bool:
        """Fail-stop *node_id* now; False if it was already down."""
        node = self.node(node_id)
        if not node.up:
            return False
        node.crash()
        self._record("crash", node_id)
        return True

    @primitive()
    def recover(self, node_id: str) -> bool:
        """Bring *node_id* back up now; False if it was already up."""
        node = self.node(node_id)
        if node.up:
            return False
        node.recover()
        self._record("recover", node_id)
        return True

    @primitive()
    def recover_later(self, node_id: str, delay: float) -> None:
        """Bring *node_id* back up *delay* from now."""
        self._later(delay, self.recover, node_id)

    @primitive()
    def crash_primary(
        self, groupid: str, recover_after: Optional[float] = None
    ) -> Optional[str]:
        """Crash *groupid*'s active primary, resolved now; returns its node
        id, if any."""
        group = self.runtime.groups[groupid]
        primary = group.active_primary()
        if primary is None:
            return None
        node_id = primary.node.node_id
        self.crash(node_id)
        if recover_after is not None:
            self.recover_later(node_id, recover_after)
        return node_id

    @primitive()
    def crash_shard_primary(
        self, sharded, shard: int, recover_after: Optional[float] = None
    ) -> Optional[str]:
        """Crash the primary of shard *shard* (by index) of a sharded group
        (façade or name): only ``{name}-s{shard}`` changes view."""
        from repro.shard.facade import resolve_shard_groupid

        return self.crash_primary(resolve_shard_groupid(sharded, shard), recover_after)

    # -- network faults ------------------------------------------------------

    @primitive(lambda blocks: bool(blocks), "partition() needs at least one block of node ids")
    def partition(self, *blocks: Iterable[str]) -> None:
        """Split the nodes into *blocks*; the nodes in no block form one
        more block together."""
        normalized = [set(block) for block in blocks]
        self.runtime.network.partition(normalized)
        self._record(
            "partition",
            " | ".join(",".join(sorted(block)) for block in normalized),
        )

    @primitive()
    def heal(self) -> None:
        self.runtime.network.heal()
        self._record("heal")

    @primitive()
    def fail_link(self, node_a: str, node_b: str) -> None:
        self.runtime.network.fail_link(node_a, node_b)
        self._record("fail_link", f"{node_a}<->{node_b}")

    @primitive()
    def repair_link(self, node_a: str, node_b: str) -> None:
        self.runtime.network.repair_link(node_a, node_b)
        self._record("repair_link", f"{node_a}<->{node_b}")

    @primitive(
        lambda period, duration, **_: period > 0 and duration > 0,
        "flap_link() needs period > 0 and duration > 0",
    )
    def flap_link(self, node_a: str, node_b: str, period: float, duration: float) -> None:
        """Alternately sever and repair one link every *period*, for
        *duration*.  The link always ends repaired, even if *duration* is
        not a whole number of periods."""
        cause = self._cause

        def flap():
            deadline = self.runtime.sim.now + duration
            while True:
                self._within(cause, self.fail_link, node_a, node_b)
                yield sleep(min(period, deadline - self.runtime.sim.now))
                self._within(cause, self.repair_link, node_a, node_b)
                remaining = deadline - self.runtime.sim.now
                if remaining <= 0:
                    return
                yield sleep(min(period, remaining))

        self.spawn(flap(), name=f"flap:{node_a}|{node_b}")

    @primitive()
    def degrade_link(
        self, src_address: str, dst_address: str, model: LinkModel
    ) -> None:
        """Override one directed address pair's link behaviour."""
        self.runtime.network.set_link_model(src_address, dst_address, model)
        self._record(
            "degrade_link",
            f"{src_address}->{dst_address} loss={model.loss_probability}",
        )

    @primitive()
    def restore_link(self, src_address: str, dst_address: str) -> None:
        self.runtime.network.clear_link_override(src_address, dst_address)
        self._record("restore_link", f"{src_address}->{dst_address}")

    @primitive(lambda rate, **_: 0.0 <= rate < 1.0, "lossy() rate must be in [0, 1)")
    def lossy(
        self,
        rate: float,
        duration: Optional[float] = None,
        jitter: Optional[float] = None,
        duplicate: Optional[float] = None,
    ) -> None:
        """Degrade the network-wide default link: *rate* is the per-message
        loss probability, *jitter* and *duplicate* optionally override the
        delay jitter and the duplicate probability.  Restored after
        *duration*, or by :meth:`restore_links` (per-pair overrides laid
        down by :meth:`degrade_link` are unaffected)."""
        model = dataclasses.replace(
            self._default_link,
            loss_probability=rate,
            jitter=self._default_link.jitter if jitter is None else jitter,
            duplicate_probability=(
                self._default_link.duplicate_probability
                if duplicate is None
                else duplicate
            ),
        )
        self.runtime.network.link = model
        self._record("lossy", f"loss={rate}")
        if duration is not None:
            self._later(duration, self.restore_links)

    @primitive()
    def restore_links(self) -> None:
        self.runtime.network.link = self._default_link
        self._record("restore_links")

    # -- region (geo) faults --------------------------------------------------

    def _require_topology(self, what: str):
        topology = self.runtime.topology
        if topology is None:
            raise ValueError(
                f"{what} requires a geo topology "
                "(ProtocolConfig.geo with GeoConfig.topology set)"
            )
        return topology

    def region_nodes(self, region: str) -> list:
        """Node ids placed in datacenter *region*, sorted."""
        topology = self._require_topology("region_nodes")
        if region not in topology.dc_names():
            raise ValueError(
                f"unknown region {region!r} (have {list(topology.dc_names())})"
            )
        return sorted(
            node_id
            for node_id, site in self.runtime.node_sites.items()
            if topology.dc_of(site) == region
        )

    @primitive()
    def partition_region(self, region: str) -> list:
        """Cut one datacenter off from the rest of the world.

        The region's placed nodes form one partition block; everyone
        else (other regions plus unplaced nodes) forms the implicit
        leftover block.  Restored by :meth:`heal` / :meth:`heal_all`.
        Returns the isolated node ids.
        """
        nodes = self.region_nodes(region)
        if not nodes:
            raise ValueError(f"no nodes placed in region {region!r}")
        self.runtime.network.partition([set(nodes)])
        self._record("region_partition", region)
        return nodes

    @primitive()
    def degrade_wan(self, factor: float = 3.0, loss: float = 0.05) -> int:
        """Degrade every cross-datacenter path (both directions).

        Each cross-DC address pair gets a fault override derived from
        its *structural* model: delay and jitter scaled by *factor*,
        loss raised to at least *loss*.  Intra-DC traffic is untouched.
        Restored by :meth:`restore_wan` / :meth:`heal_all`.  Returns the
        number of directed address pairs degraded.
        """
        topology = self._require_topology("degrade_wan")
        placed = sorted(self.runtime.node_sites.items())
        degraded = 0
        for src_id, src_site in placed:
            for dst_id, dst_site in placed:
                if topology.dc_of(src_site) == topology.dc_of(dst_site):
                    continue  # intra-DC, the node itself included
                base = topology.link_between(src_site, dst_site)
                model = dataclasses.replace(
                    base,
                    base_delay=base.base_delay * factor,
                    jitter=base.jitter * factor,
                    loss_probability=min(0.99, max(base.loss_probability, loss)),
                )
                for src in self._addresses(src_id):
                    for dst in self._addresses(dst_id):
                        self.runtime.network.set_link_model(src, dst, model)
                        self._wan_pairs.append((src, dst))
                        degraded += 1
        self._record("wan_degradation", f"x{factor:g} loss={loss:g}")
        return degraded

    @primitive()
    def restore_wan(self) -> None:
        """Clear every override laid down by :meth:`degrade_wan`."""
        for src_address, dst_address in self._wan_pairs:
            self.runtime.network.clear_link_override(src_address, dst_address)
        self._wan_pairs.clear()
        self._record("restore_wan")

    # -- asymmetric (gray) network faults ------------------------------------

    @primitive()
    def fail_link_oneway(self, src_node: str, dst_node: str) -> None:
        """Sever only src -> dst traffic; the reverse direction still works."""
        self.runtime.network.fail_link_oneway(src_node, dst_node)
        self._record("fail_link_oneway", f"{src_node}->{dst_node}")

    @primitive()
    def repair_link_oneway(self, src_node: str, dst_node: str) -> None:
        self.runtime.network.repair_link_oneway(src_node, dst_node)
        self._record("repair_link_oneway", f"{src_node}->{dst_node}")

    @primitive(
        lambda direction, **_: direction in ("outbound", "inbound"),
        "direction must be outbound/inbound, got {direction!r}",
    )
    def isolate_oneway(self, node_id: str, direction: str = "outbound") -> None:
        """Asymmetric partition of one node from every other node.

        ``"outbound"`` silences the node (its messages vanish but it still
        hears everyone -- it never suspects anyone while everyone suspects
        it); ``"inbound"`` deafens it (it hears nothing but its own traffic
        still arrives, so *it* calls view changes the rest ignore).
        """
        self.node(node_id)
        for other_id in self.runtime.nodes:
            if other_id != node_id:
                ends = (node_id, other_id) if direction == "outbound" else (other_id, node_id)
                self.runtime.network.fail_link_oneway(*ends)
        self._record("isolate_oneway", f"{node_id} {direction}")

    @primitive(lambda factor, **_: factor >= 1.0, "slow factor must be >= 1.0, got {factor}")
    def slow_node(self, node_id: str, factor: float = 8.0) -> None:
        """Gray failure: every link to/from *node_id* gets *factor* times the
        default delay and jitter (no loss).  The node keeps participating --
        just slowly enough to stall callers -- until :meth:`restore_node`."""
        model = dataclasses.replace(
            self._default_link,
            base_delay=self._default_link.base_delay * factor,
            jitter=self._default_link.jitter * factor,
        )
        others = [
            address for other in self.runtime.nodes if other != node_id
            for address in self._addresses(other)
        ]
        pairs = [
            pair
            for src in self._addresses(node_id)
            for dst in others
            for pair in ((src, dst), (dst, src))
        ]
        for src, dst in pairs:
            self.runtime.network.set_link_model(src, dst, model)
        self._slow_pairs[node_id] = pairs
        self._record("slow_node", f"{node_id} x{factor:g}")

    @primitive()
    def restore_node(self, node_id: str) -> None:
        """Undo :meth:`slow_node` for *node_id* (no-op if it was not slow)."""
        pairs = self._slow_pairs.pop(node_id, None)
        if pairs is None:
            return
        for src, dst in pairs:
            self.runtime.network.clear_link_override(src, dst)
        self._record("restore_node", node_id)

    # -- disk faults ----------------------------------------------------------

    def _stores(self, node_id: str):
        stores = self.node(node_id).stable_stores
        if not stores:
            raise ValueError(f"node {node_id!r} hosts no StableStore")
        return stores

    @primitive()
    def disk_fail(self, node_id: str) -> None:
        """Every subsequent StableStore.write on *node_id* fails with
        :class:`~repro.storage.stable.DiskFault` (nothing persists)."""
        for store in self._stores(node_id):
            store.inject_fail()
        self._record("disk_fail", node_id)

    @primitive()
    def disk_slow(self, node_id: str, factor: float = 8.0) -> None:
        """Stretch *node_id*'s stable-write latency by *factor*."""
        for store in self._stores(node_id):
            store.inject_slow(factor)
        self._record("disk_slow", f"{node_id} x{factor:g}")

    @primitive()
    def disk_torn(self, node_id: str) -> None:
        """Arm a one-shot torn write: the next StableStore.write on
        *node_id* persists, then the node crashes before the write is
        acknowledged (durable-but-unacknowledged)."""
        for store in self._stores(node_id):
            store.arm_torn()
        self._record("disk_torn", node_id)

    @primitive()
    def disk_heal(self, node_id: str) -> None:
        for store in self.node(node_id).stable_stores:
            store.heal_faults()
        self._record("disk_heal", node_id)

    # -- global heal -----------------------------------------------------------

    @primitive()
    def heal_all(self) -> None:
        """Restore every injected disruption: partitions, failed links (both
        kinds), per-pair link overrides (including slow_node), the
        network-wide default link, all disk faults, and crashed nodes
        (each recovery runs the normal crash-recovery protocol and is
        recorded individually).  This is the full contract :meth:`heal`
        deliberately does not provide."""
        self.runtime.network.heal()
        # Clears fault overrides only: structural (geo topology) link
        # models are the network's shape, not an injected disruption,
        # and deliberately survive heal_all.
        self.runtime.network.clear_link_overrides()
        self._slow_pairs.clear()
        self._wan_pairs.clear()
        self.runtime.network.link = self._default_link
        for node in self.runtime.nodes.values():
            for store in node.stable_stores:
                store.heal_faults()
        for node_id in sorted(self.runtime.nodes):
            if not self.runtime.nodes[node_id].up:
                self.recover(node_id)
        self._record("heal_all")

    # -- declarative execution ----------------------------------------------

    def execute(self, *sources) -> "FaultController":
        """Start plans and nemeses (anything with ``start(controller)``);
        faults fire as the clock advances."""
        for source in sources:
            if not callable(getattr(source, "start", None)):
                raise TypeError(
                    f"execute() takes FaultPlan or Nemesis, got {source!r}"
                )
            source.start(self)
        return self

    def stop(self) -> None:
        """Stop all running plans and nemesis rules (injected state stays)."""
        for process in self._processes:
            if not process.done:
                process.interrupt()
        self._processes.clear()
