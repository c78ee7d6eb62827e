"""The simulated network: addressing, delivery, partitions, dedup.

Semantics (paper section 1 and 3.1):

- Messages may be lost, delayed, duplicated, and reordered (``LinkModel``).
- Link failures can partition the network into subnetworks; partitions are
  eventually repaired (``partition`` / ``heal``).
- The delivery system suppresses *network-generated* duplicates even across
  a crash/recover of the receiver (section 3.1 assumes "the message delivery
  system maintains some connection information that enables it to not
  deliver duplicate messages").  Dedup state therefore lives in the network,
  not on the node: both copies of a duplicated datagram are one
  :class:`Envelope`, and its ``delivered`` flag is that state.
  Application-level retransmissions are new messages and are *not*
  suppressed; the protocol handles those with call ids.
- A message to a crashed node is lost.  Partition membership is checked both
  at send and at delivery time: a message in flight when a partition forms
  does not cross it (conservative, and the harder case for the protocol).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from repro.analysis.metrics import Metrics
from repro.net.link import LAN, LinkModel
from repro.net.messages import Envelope, Message
from repro.sim.kernel import Simulator
from repro.sim.node import Actor, Node


class Network:
    """Message plane connecting actors by string addresses."""

    def __init__(
        self,
        sim: Simulator,
        link: LinkModel = LAN,
        metrics: Optional[Metrics] = None,
    ):
        self.sim = sim
        self.link = link
        self.metrics = metrics if metrics is not None else Metrics()
        self.rng = sim.rng.fork("network")
        self._draw = self.rng.random
        self._actors: Dict[str, Actor] = {}
        self._next_msg_id = 0
        self._partition: Optional[list[Set[str]]] = None  # blocks of node ids
        self._failed_links: Set[Tuple[str, str]] = set()
        self._failed_directed: Set[Tuple[str, str]] = set()  # (src, dst) node ids
        # Whether any of the three above is set (``_refresh_faulted``): what
        # ``send`` and ``_deliver`` test before asking ``can_communicate``.
        self._faulted = False
        self._link_overrides: Dict[Tuple[str, str], LinkModel] = {}
        # Structural (topology-derived) per-pair models, keyed by directed
        # *node id* pairs.  These describe where nodes live (repro.geo),
        # not an injected fault: they survive heal_all() and never count
        # as a disruption.  The cache resolves address pairs to models
        # lazily (None = "fall through to self.link at send time").
        self._structural_links: Dict[Tuple[str, str], LinkModel] = {}
        self._structural_cache: Dict[Tuple[str, str], Optional[LinkModel]] = {}
        # Plain-int totals on the per-message hot path; the per-type
        # breakdown lives in Metrics, these feed the gates and vrbench cheaply.
        self.messages_sent_total = 0
        self.messages_delivered_total = 0
        self.messages_dropped_total = 0
        self.messages_duplicated_total = 0
        self.messages_deduped_total = 0
        # repro.trace attachment point; None = tracing disabled (the
        # per-message cost is then one load + ``is None`` test per hook).
        self.tracer = None
        # Bounded envelope freelist: envelopes are recycled once every
        # scheduled copy has been consumed, killing the per-send allocation
        # on the hot path.
        self._envelope_pool: list[Envelope] = []
        # Opt-in per-address load counters (E21 measures primary hot-spot
        # load); None keeps the hot path at one load + ``is None`` test.
        self._address_counters: Optional[dict] = None

    def enable_address_counters(self) -> None:
        """Start counting sends/deliveries per address (repro.scale E21)."""
        if self._address_counters is None:
            self._address_counters = {"sent": {}, "delivered": {}}

    def address_counters(self) -> Optional[dict]:
        """``{"sent": {addr: n}, "delivered": {addr: n}}`` or None."""
        return self._address_counters

    def _release_envelope(self, envelope: Envelope) -> None:
        envelope.copies -= 1
        if envelope.copies > 0:
            return  # a duplicated copy is still scheduled
        if len(self._envelope_pool) < 256:
            envelope.payload = None  # type: ignore[assignment]
            self._envelope_pool.append(envelope)

    def _drop(self, envelope: Envelope, reason: str, at: str) -> None:
        self.messages_dropped_total += 1
        self.metrics.on_drop(envelope.payload.msg_type)
        if self.tracer is not None:
            self.tracer.on_drop(envelope, reason, at)
        self._release_envelope(envelope)

    # -- registration -------------------------------------------------------

    def register(self, actor: Actor) -> None:
        """Make *actor* reachable at ``actor.address``."""
        if actor.address in self._actors:
            raise ValueError(f"address {actor.address!r} already registered")
        self._actors[actor.address] = actor

    def node_of(self, address: str) -> Optional[Node]:
        actor = self._actors.get(address)
        return actor.node if actor is not None else None

    # -- partitions and link failures -----------------------------------------

    def partition(self, blocks: Iterable[Iterable[str]]) -> None:
        """Split the network into blocks of *node ids* that cannot cross-talk.

        Nodes absent from every block form an implicit final block together.
        """
        self._partition = [set(block) for block in blocks]
        self._refresh_faulted()
        if self.sim.tracer is not None:
            self.sim.tracer.emit_row(
                "partition", None, (), ([sorted(b) for b in self._partition],)
            )

    def heal(self) -> None:
        """Repair all partitions and failed links (bidirectional *and*
        one-way).  Per-pair link-model overrides and the network-wide
        default link are NOT restored here -- see
        :meth:`FaultController.heal_all` for the full contract."""
        self._partition = None
        self._failed_links.clear()
        self._failed_directed.clear()
        self._refresh_faulted()
        if self.sim.tracer is not None:
            self.sim.tracer.emit_row("heal", None, (), ())

    def fail_link(self, node_a: str, node_b: str) -> None:
        """Sever the (bidirectional) link between two nodes."""
        self._failed_links.add(self._link_key(node_a, node_b))
        self._refresh_faulted()

    def repair_link(self, node_a: str, node_b: str) -> None:
        self._failed_links.discard(self._link_key(node_a, node_b))
        self._refresh_faulted()

    def fail_link_oneway(self, src_node: str, dst_node: str) -> None:
        """Sever only src -> dst traffic (asymmetric / gray failure):
        dst's messages still reach src, so the two sides disagree about
        who is unreachable."""
        self._failed_directed.add((src_node, dst_node))
        self._refresh_faulted()

    def repair_link_oneway(self, src_node: str, dst_node: str) -> None:
        self._failed_directed.discard((src_node, dst_node))
        self._refresh_faulted()

    def _refresh_faulted(self) -> None:
        """Every change to what ``can_communicate`` consults ends here."""
        self._faulted = bool(
            self._partition is not None or self._failed_links or self._failed_directed
        )

    def set_link_model(self, src: str, dst: str, model: LinkModel) -> None:
        """Override link behaviour for one directed address pair.

        This is the *fault* surface (degraded links, gray failures): the
        override counts as a disruption for :meth:`disrupted` and is
        cleared by ``FaultController.heal_all``.  Topology-derived models
        belong in :meth:`set_structural_link` instead.
        """
        self._link_overrides[(src, dst)] = model

    def set_link_model_pair(self, a: str, b: str, model: LinkModel) -> None:
        """Override link behaviour for *both* directions between two
        addresses.

        Directed-pair overrides are easy to get wrong (setting only
        ``a -> b`` silently leaves the return path on the default link);
        use this helper whenever the degradation is symmetric.
        """
        self._link_overrides[(a, b)] = model
        self._link_overrides[(b, a)] = model

    def clear_link_override(self, src: str, dst: str) -> None:
        """Drop one directed pair's override (back to ``self.link``).

        Restoring by *removing* the entry rather than writing the default
        model back keeps :meth:`disrupted` accurate: a healed pair no
        longer counts as an active disruption.
        """
        self._link_overrides.pop((src, dst), None)

    def clear_link_overrides(self) -> None:
        """Drop every per-pair link-model override (back to ``self.link``).

        Structural (topology) link models are untouched: healing a fault
        must not flatten the geography.
        """
        self._link_overrides.clear()

    # -- structural (topology) link models -----------------------------------

    def set_structural_link(
        self, src_node: str, dst_node: str, model: LinkModel
    ) -> None:
        """Install the *structural* model for one directed node pair.

        Structural models describe the topology (intra-zone / intra-DC /
        cross-DC distances from :class:`repro.geo.Topology`); they are
        distinct from fault-injected overrides: :meth:`disrupted` ignores
        them, ``heal_all()`` leaves them in place, and a fault override
        for the same address pair takes precedence while active.
        """
        self._structural_links[(src_node, dst_node)] = model
        # Address-pair resolutions are memoized; any change invalidates.
        self._structural_cache.clear()

    def clear_structural_links(self) -> None:
        """Drop every structural model (back to the flat network)."""
        self._structural_links.clear()
        self._structural_cache.clear()

    def structural_links(self) -> Dict[Tuple[str, str], LinkModel]:
        return dict(self._structural_links)

    def _structural_model(self, source: str, destination: str) -> LinkModel:
        """The structural model for an address pair (default: ``self.link``).

        Cached per directed address pair; a cached ``None`` means "no
        structural entry -- use the *current* default link", so swapping
        ``self.link`` (e.g. ``FaultController.lossy``) still takes effect
        for unplaced pairs.
        """
        key = (source, destination)
        cache = self._structural_cache
        if key in cache:
            model = cache[key]
            return model if model is not None else self.link
        src_node = self.node_of(source)
        dst_node = self.node_of(destination)
        model = None
        if src_node is not None and dst_node is not None:
            model = self._structural_links.get(
                (src_node.node_id, dst_node.node_id)
            )
        cache[key] = model
        return model if model is not None else self.link

    # -- disruption inspection (repro.live StallReports) --------------------

    def partition_blocks(self) -> Optional[list]:
        """Current partition blocks as sorted lists, or None if healed."""
        if self._partition is None:
            return None
        return [sorted(block) for block in self._partition]

    def failed_links(self) -> list:
        """Failed links as rendered strings: ``a<->b`` and ``a->b``."""
        links = [f"{a}<->{b}" for a, b in sorted(self._failed_links)]
        links += [f"{a}->{b}" for a, b in sorted(self._failed_directed)]
        return links

    def link_overrides(self) -> Dict[Tuple[str, str], LinkModel]:
        return dict(self._link_overrides)

    def disrupted(self, default_link: Optional[LinkModel] = None) -> bool:
        """Whether any injected network disruption is currently active.

        Only *fault* state counts: partitions, failed links, per-pair
        fault overrides, and a swapped default link.  Structural
        (topology) link models are the network's permanent shape, not a
        disruption -- otherwise a geo topology would pause every liveness
        window forever.
        """
        if self._faulted or self._link_overrides:
            return True
        return default_link is not None and self.link is not default_link

    def in_flight_estimate(self) -> int:
        """Messages scheduled but not yet delivered/dropped/suppressed."""
        return (
            self.messages_sent_total
            + self.messages_duplicated_total
            - self.messages_delivered_total
            - self.messages_dropped_total
            - self.messages_deduped_total
        )

    @staticmethod
    def _link_key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def _block_of(self, node_id: str) -> int:
        assert self._partition is not None
        for index, block in enumerate(self._partition):
            if node_id in block:
                return index
        return len(self._partition)  # implicit leftover block

    def can_communicate(self, src_addr: str, dst_addr: str) -> bool:
        """Whether the current partition/link state lets src reach dst."""
        src_node = self.node_of(src_addr)
        dst_node = self.node_of(dst_addr)
        if src_node is None or dst_node is None:
            return False
        if src_node is dst_node:
            return True
        if self._link_key(src_node.node_id, dst_node.node_id) in self._failed_links:
            return False
        if (
            self._failed_directed
            and (src_node.node_id, dst_node.node_id) in self._failed_directed
        ):
            return False
        if self._partition is not None:
            if self._block_of(src_node.node_id) != self._block_of(dst_node.node_id):
                return False
        return True

    # -- send/deliver -----------------------------------------------------------

    def send(self, source: str, destination: str, payload: Message) -> None:
        """Fire-and-forget datagram send.  All loss is silent, as on a LAN."""
        sim = self.sim
        msg_id = self._next_msg_id = self._next_msg_id + 1
        pool = self._envelope_pool
        if pool:
            envelope = pool.pop()
            envelope.msg_id = msg_id
            envelope.source = source
            envelope.destination = destination
            envelope.payload = payload
            envelope.sent_at = sim.now
            envelope.copies = 1
            envelope.delivered = False
            envelope.send_eid = None
        else:
            envelope = Envelope(msg_id, source, destination, payload, sim.now)
        self.messages_sent_total += 1
        self.metrics.on_send(payload.msg_type, payload.byte_size())
        counters = self._address_counters
        if counters is not None:
            sent = counters["sent"]
            sent[source] = sent.get(source, 0) + 1
        if self.tracer is not None:
            self.tracer.on_send(envelope)

        sender = self._actors.get(source)
        if sender is not None and not sender.node.up:
            # A crashed node cannot send; count it for debugging visibility.
            self._drop(envelope, "source_crashed", source)
            return
        # Reachability is a question only while a fault stands; an address
        # nobody registered is unreachable always.
        if (
            sender is None
            or destination not in self._actors
            or (self._faulted and not self.can_communicate(source, destination))
        ):
            self._drop(envelope, "partitioned_at_send", source)
            return

        # Fault override > structural (topology) model > default link.
        model = None
        if self._link_overrides:
            model = self._link_overrides.get((source, destination))
        if model is None:
            model = (
                self._structural_model(source, destination)
                if self._structural_links
                else self.link
            )
        # Loss, delay, duplication: ``rng.chance`` and ``rng.uniform(0, jitter)``
        # spelled out, drawing in the same order only when the model can
        # lose, jitter or duplicate at all.
        draw = self._draw
        if model.loss_probability > 0.0 and draw() < model.loss_probability:
            self._drop(envelope, "link_loss", source)
            return
        delay, jitter = model.base_delay, model.jitter
        sim.post(delay + jitter * draw() if jitter else delay, self._deliver, envelope)
        if model.duplicate_probability > 0.0 and draw() < model.duplicate_probability:
            envelope.copies = 2
            self.messages_duplicated_total += 1
            self.metrics.on_duplicate(payload.msg_type)
            sim.post(delay + jitter * draw() if jitter else delay, self._deliver, envelope)

    def _deliver(self, envelope: Envelope) -> None:
        actor = self._actors.get(envelope.destination)
        if actor is None or not actor.node.up:
            self._drop(envelope, "destination_down", envelope.destination)
            return
        if self._faulted and not self.can_communicate(
            envelope.source, envelope.destination
        ):
            self._drop(envelope, "partitioned_in_flight", envelope.destination)
            return
        if envelope.delivered:
            # Network-generated duplicate: suppressed per section 3.1.
            self.messages_deduped_total += 1
            self._release_envelope(envelope)
            return
        envelope.delivered = True
        self.messages_delivered_total += 1
        self.metrics.on_deliver(envelope.payload.msg_type)
        counters = self._address_counters
        if counters is not None:
            delivered = counters["delivered"]
            delivered[envelope.destination] = (
                delivered.get(envelope.destination, 0) + 1
            )
        tracer = self.tracer
        if tracer is None:
            payload, source = envelope.payload, envelope.source
            self._release_envelope(envelope)
            actor.handle_message(payload, source)
            return
        tracer.on_deliver(envelope)  # pushes the message's cause as the context
        try:
            actor.handle_message(envelope.payload, envelope.source)
        finally:
            tracer.pop()
            self._release_envelope(envelope)
