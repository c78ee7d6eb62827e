"""Protocol tuning knobs, gathered in one place.

Defaults are expressed in the same (arbitrary) time unit as the network's
``LinkModel.base_delay`` (default 1.0); think "milliseconds on a LAN".
The paper's engineering advice is encoded in the defaults:

- section 4.1: "a manager should use a fairly long timeout while it waits to
  hear from all cohorts ... an underling should use a fairly long timeout
  before it becomes a manager" -- hence ``invite_timeout`` and
  ``underling_timeout`` are generous multiples of a round trip;
- section 3.7: "Careful engineering is needed here to provide both speedy
  delivery and small numbers of messages" -- ``flush_interval`` is the
  period of the buffer's background sweep (which ships what no force asked
  for, and the backups no force ships: a force is speedy for the
  sub-majority it waits for) and the floor of its retransmission timeout
  (``max(flush_interval, rto)``: each record is sent to each backup once,
  and again only after that long without ack progress).  Prepare-time force
  stalls no longer depend on it (E2): a completed-call record is delivered to
  a sub-majority in the background the moment it is added; see
  :mod:`repro.core.buffer`.

Every timeout and interval is a flat field of :class:`ProtocolConfig`; the
opt-in extensions are nested sub-configs:

- :class:`BatchConfig` holds the replication hot-path batching knobs: a
  coalescing delay on the buffer's one transmission discipline, a deeper
  window and coalesced acks (disabled by default -- ``BatchConfig()`` is the
  paper-faithful baseline, no delay);
- :class:`ReadConfig` holds the read-dominant serving path (primary
  leases, stale-bounded backup reads, client commit-set caches; disabled
  by default -- every read pays the full call path, as in the paper).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover -- type-only; avoids a config<->geo cycle
    from repro.geo.topology import Topology

from repro.storage.stable import StableStoragePolicy


@dataclasses.dataclass
class BatchConfig:
    """Replication hot-path batching and pipelining (see docs/PERF.md).

    Batching is a delay, not a mode (DESIGN.md D20).  The buffer has one
    transmission discipline (:mod:`repro.core.buffer`): a force flushes to
    the sub-majority it waits for, a completed call is pushed to the same
    backups, each record goes to each backup once, and the sweep ships the
    rest and is the one retransmitter.  ``BatchConfig()`` (``enabled=False``)
    serves each of those flushes at once and acknowledges every
    :class:`BufferMsg` individually.  With ``enabled=True`` a flush waits
    ``flush_interval`` for the one tick that serves every request of the
    interval, up to ``pipeline_depth`` batches of ``max_batch`` records are in
    flight per backup, and backups coalesce their cumulative acks onto the
    same tick.  Safety is unchanged: delivery stays in-order and gapless,
    forces still wait for a sub-majority, and commit acks still follow the
    force (``python -m repro.gate batching``).  Refused: ``max_batch`` or
    ``pipeline_depth`` below 1 (a window of no records stalls every force)
    and a negative ``flush_interval``.
    """

    #: Master switch; False is the paper-faithful protocol exactly.
    enabled: bool = False
    #: Max records per BufferMsg, with or without batching.
    max_batch: int = 64
    #: Coalescing delay before a requested flush / ack tick fires.  Small
    #: relative to the network's base delay, so batching adds at most one
    #: micro-tick of latency to a force.
    flush_interval: float = 0.5
    #: Record batches in flight per backup before the primary stops
    #: sending and waits for acks (go-back-N window, in units of
    #: ``max_batch`` records; unbatched, the window is one ``max_batch``).
    pipeline_depth: int = 4

    def __post_init__(self) -> None:
        # A window of no records ships nothing, so every force would stall
        # into a view change.
        if self.max_batch < 1 or self.pipeline_depth < 1:
            raise ValueError(
                f"BatchConfig needs max_batch >= 1 and pipeline_depth >= 1, "
                f"not {self.max_batch} and {self.pipeline_depth}"
            )
        if self.flush_interval < 0:
            raise ValueError(f"BatchConfig.flush_interval {self.flush_interval} < 0")


@dataclasses.dataclass
class ReadConfig:
    """The read-dominant serving path (see docs/READS.md).

    ``ReadConfig()`` (``enabled=False``) is the paper-faithful baseline:
    every read is a full transaction through the primary's event buffer
    and nothing below exists on the wire.  With ``enabled=True``:

    - the primary answers :class:`~repro.core.messages.ReadMsg` requests
      from committed state *locally* while it holds a quorum lease --
      grants piggyback on the I'm-alive/buffer-ack traffic the backups
      already send, and every view formation carries the acceptors'
      outstanding promise bounds so a new primary defers activation until
      any lease a prior primary could still hold has expired;
    - backups answer reads from their applied prefix, tagged with the
      viewstamp they reflect, iff the prefix's staleness is within the
      request's ``max_staleness`` bound;
    - drivers may keep a Wren-style commit-set cache of ``(key, value,
      timestamp)`` entries pruned against a stable-timestamp watermark.

    Safety does not depend on clocks being synchronized -- the simulator's
    clock is global -- but it does depend on ``lease_duration`` staying
    below the time a partitioned primary keeps serving after its grants
    stop renewing, which is exactly what the grant expiries encode.
    Refused: a negative ``default_max_staleness`` and ``client_cache``
    without ``enabled`` (a cache nothing fills); :class:`ProtocolConfig`
    refuses a ``lease_duration`` outside its timing bounds.
    """

    #: Master switch; False reproduces the read-through-the-call-path
    #: protocol exactly (no ``Leases`` extension is built).  Armed with no
    #: client reading, the schedule is still byte-identical: the ``leases
    #: armed-idle`` row of ``python -m repro.gate reads``.
    enabled: bool = False
    #: How far ahead a grant (and therefore a promise) extends.  Must
    #: exceed ``im_alive_interval`` so heartbeat-carried renewals keep a
    #: healthy lease alive, and stay below ``underling_timeout`` so lease
    #: waits do not dominate view changes.
    lease_duration: float = 30.0
    #: Bound used when a read request does not carry its own.
    default_max_staleness: float = 50.0
    #: Drivers keep a commit-set cache (Wren-style) of read/write results
    #: (window and capacity: :mod:`repro.reads.cache`).
    client_cache: bool = False

    def __post_init__(self) -> None:
        if self.default_max_staleness < 0:
            raise ValueError(
                f"ReadConfig.default_max_staleness {self.default_max_staleness} < 0"
            )
        if self.client_cache and not self.enabled:
            raise ValueError("ReadConfig.client_cache needs enabled=True")


@dataclasses.dataclass
class GeoConfig:
    """Geo-replication: topology, placement, and client routing (docs/GEO.md).

    ``ProtocolConfig.geo`` defaults to ``None`` -- the paper-faithful
    flat network, byte-identical to the pre-geo schedules (and a one-DC
    all-LAN topology schedules like it: the ``one-DC all-LAN`` row of
    ``python -m repro.gate geo``).  Arming a topology makes the runtime
    install its per-pair models as *structural* links, place cohorts by
    the ``placement`` policy, and register every cohort's and driver's
    site with the :class:`~repro.location.LocationService`; a driver with a
    site routes reads to the nearest lease-holding replica (nearest backup
    for ``prefer="backup"`` / ``"nearest"``) instead of choosing uniformly,
    emitting ``geo_route`` trace events.
    """

    #: Where nodes can live; ``None`` keeps even an instantiated
    #: GeoConfig inert (flat network).
    topology: Optional["Topology"] = None
    #: A placement name (``"spread"``, ``"single_dc"``, ``"single_dc:DC"``,
    #: ``"primary_affinity:REGION"``) or a PlacementPolicy instance.
    #: Names are recommended: each Runtime resolves a fresh instance.
    placement: Union[str, object] = "spread"


@dataclasses.dataclass
class ScaleConfig:
    """Large-cohort mechanisms: gossip, ack trees, witnesses (docs/SCALE.md).

    ``ProtocolConfig.scale`` defaults to ``None`` -- the paper-faithful
    cohort where every backup talks directly to the primary, byte-identical
    to the pre-scale schedules.  Each mechanism below is independently
    toggleable; ``ScaleConfig()`` with all three off also reproduces the
    baseline schedule exactly (the ``all-off`` row of ``python -m repro.gate
    scale``).

    - ``gossip``: instead of the primary heartbeating every member and
      each backup its primary (2(n-1) links, with the primary an O(n) hub;
      DESIGN.md D19), each cohort heartbeats ``gossip_fanout``
      seeded-random peers per period and piggybacks recent liveness *evidence* -- ``(mid, heard_at)``
      pairs -- which receivers fold into the accrual detector via
      :meth:`repro.detect.FailureDetector.heard_relayed` (advancing
      last-heard without polluting the RTT/interval estimators, since a
      relay hop is not an RTT sample).
    - ``ack_tree``: storage backups forward their cumulative buffer acks
      up a deterministic ``ack_fanout``-ary tree (sorted by module id)
      instead of straight to the primary; interior nodes coalesce their
      subtree's ``(mid, acked_ts)`` pairs for ``ACK_DELAY`` before
      forwarding, so the primary's ack fan-in is O(fanout), not O(n).
      Composes with :class:`BatchConfig` ack coalescing.
    - ``witnesses``: the highest ``witnesses`` module ids in each group
      vote in view formation (their acceptances count toward the
      majority) but hold no event buffer -- the primary never replicates
      records to them, shrinking fan-out from n-1 to n-1-witnesses.  The
      group's :class:`repro.core.quorum.Quorums` is built from it and is
      what every quorum count reads; its constructor rejects a count above
      ``n - Quorums.formation`` (a force quorum must fit among the storage
      replicas) when the group is created.

    Refused where it is made: a negative ``witnesses``, and a
    ``gossip_fanout`` or ``ack_fanout`` below 1 (a round or a tree node
    that reaches nobody).
    """

    #: Epidemic heartbeat dissemination (off = the primary's star).
    gossip: bool = False
    #: Peers each heartbeat round targets when gossip is on.
    gossip_fanout: int = 3
    #: Aggregate buffer acks up a fan-in tree (off = acks go direct).
    ack_tree: bool = False
    #: Fan-in of the ack tree (children per interior node, and the number
    #: of tree roots reporting directly to the primary).
    ack_fanout: int = 4
    #: Bufferless voting members per group (0 = every member replicates).
    witnesses: int = 0

    def __post_init__(self) -> None:
        if self.witnesses < 0:
            raise ValueError(f"ScaleConfig.witnesses {self.witnesses} < 0")
        for name in ("gossip_fanout", "ack_fanout"):
            if getattr(self, name) < 1:
                raise ValueError(f"ScaleConfig.{name} {getattr(self, name)} < 1")


@dataclasses.dataclass
class ProtocolConfig:
    """Timeouts and intervals for cohorts, clients, and failure detection.

    Every knob is a flat field (``ProtocolConfig(call_timeout=60)``,
    ``dataclasses.replace(cfg, flush_interval=2.0)``); the opt-in
    extensions live in the nested sub-configs at the end.
    """

    # -- communication buffer (section 2, 3) --
    flush_interval: float = 5.0           # background send of buffered
    #                                       events: the one retransmit sweep,
    #                                       batched or not
    force_timeout: float = 60.0           # give up on a force -> view change

    # -- failure detection (section 4) --
    im_alive_interval: float = 10.0       # heartbeat period
    suspect_multiplier: float = 3.5       # missed-heartbeat threshold, in
    #                                       periods

    # -- adaptive detection & retry pacing (beyond the paper; repro.detect) --
    adaptive_timeouts: bool = True        # derive operational timeouts from
    #                                       live RTT estimates and use accrual
    #                                       suspicion; False restores the
    #                                       paper-faithful fixed constants
    min_timeout: float = 5.0              # floor for any RTT-derived timeout
    #                                       (retry growth, cap and jitter are
    #                                       constants of repro.detect.backoff)

    # -- view change (section 4, figure 5) --
    invite_timeout: float = 40.0          # manager waits this long for accepts
    underling_timeout: float = 80.0       # underling -> manager on silence
    #                                       (retry delay and promotion jitter
    #                                       are constants of repro.detect.backoff)
    ordered_managers: bool = True         # section 4.1: only become manager if
    #                                       higher-priority cohorts look dead
    extended_formation_rule: bool = False # beyond-the-paper condition 4: form
    #                                       when enough *backups* of the latest
    #                                       view accepted normally that every
    #                                       possible force quorum is covered
    #                                       (see DESIGN.md D11); the paper's
    #                                       rule only trusts the old primary

    # -- transaction processing (section 3) --
    call_timeout: float = 50.0            # client gives up on a remote call
    call_probes: int = 2                  # probes before declaring no-reply
    prepare_timeout: float = 60.0         # coordinator retry interval
    commit_retry_interval: float = 40.0   # coordinator re-sends commits
    lock_timeout: float = 120.0           # deadlock breaker (documented
    #                                       deviation)
    query_interval: float = 80.0          # participant queries coordinator

    # -- unilateral view edits (section 4.1, E12) --
    unilateral_edits: bool = False        # primary may exclude/add backups
    #                                       without a full view change

    # -- ablations (experiment E7) --
    viewstamp_checks: bool = True         # False emulates the virtual
    #                                       partitions rule: any transaction
    #                                       active across a view change must
    #                                       abort (section 5: "Virtual
    #                                       partitions force transactions that
    #                                       were active across a view change
    #                                       to abort... We use viewstamps to
    #                                       avoid the abort")
    force_on_call: bool = False           # section 6 ablation: force each
    #                                       completed-call record before the
    #                                       reply -- "there would be no aborts
    #                                       due to view changes, but calls
    #                                       would be processed more slowly"

    # -- stable storage (section 4.2) --
    stable_write_latency: float = 5.0
    storage_policy: StableStoragePolicy = StableStoragePolicy.MINIMAL
    force_to_stable: bool = False         # every force also blocks on a
    #                                       stable-storage write.  With a
    #                                       1-cohort group this *is* the
    #                                       conventional unreplicated system
    #                                       of section 3.7 (event records <->
    #                                       stable-storage records); with
    #                                       replicas it is the section 4.2
    #                                       catastrophe hardening.

    # -- nested sub-configs (the opt-in extensions) --
    batch: Optional[BatchConfig] = None
    reads: Optional[ReadConfig] = None
    # Unlike batch/reads, geo is NOT auto-instantiated: ``geo is None``
    # (or a GeoConfig without a topology) is the flat-network fast path.
    geo: Optional[GeoConfig] = None
    # Like geo, scale is NOT auto-instantiated: ``scale is None`` (or a
    # ScaleConfig with every mechanism off) builds no scale extension --
    # the paper-faithful cohort, byte-identical to pre-scale schedules.
    scale: Optional[ScaleConfig] = None

    def __post_init__(self) -> None:
        if self.batch is None:
            self.batch = BatchConfig()
        if self.reads is None:
            self.reads = ReadConfig()
        lease = self.reads.lease_duration
        if self.reads.enabled and not (
            self.im_alive_interval < lease < self.underling_timeout
        ):
            raise ValueError(
                f"ReadConfig.lease_duration {lease} must exceed im_alive_interval "
                f"{self.im_alive_interval} and stay below underling_timeout "
                f"{self.underling_timeout}"
            )

    def suspect_timeout(self) -> float:
        """Silence longer than this marks a cohort unreachable."""
        return self.im_alive_interval * self.suspect_multiplier


@dataclasses.dataclass
class TraceConfig:
    """Knobs for :mod:`repro.trace` (pass to ``Runtime(trace=...)``).

    Tracing is wired at Runtime construction: omitting ``trace`` (or
    setting ``enabled=False``) leaves every instrumented hot path with a
    ``tracer is None`` test and nothing else; armed, it moves no event
    (``python -m repro.gate trace``) and what it costs the host is
    ``vrbench``'s ``trace.armed_over_off``.  Refused: a ``ring_size`` that
    is not an int of at least 1.
    """

    enabled: bool = True
    #: Bounded in-memory sink: oldest events are evicted past this size.
    ring_size: int = 65_536
    #: "all", or an explicit tuple of monitor names from
    #: :data:`repro.trace.monitors.MONITORS` (empty tuple = tracing only).
    monitors: Union[str, Tuple[str, ...]] = "all"
    #: Written by ``Tracer.maybe_export()``: ``*.json`` gets Chrome
    #: ``trace_event`` format, anything else JSONL.
    export_path: Optional[str] = None

    def __post_init__(self) -> None:
        # The tracer preallocates ``ring_size`` slots and takes the number
        # as given: a ring of no slot cannot hold the event being recorded.
        size = self.ring_size
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise ValueError(f"TraceConfig.ring_size must be an int >= 1, not {size!r}")
