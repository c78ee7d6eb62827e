"""Workload drivers: front-ends that submit transactions to client groups.

A driver plays the role of the end user (say, a travel agent at a
terminal): it sends a transaction request to the client group's primary and
waits for the outcome, through the send loop every host runs
(:class:`~repro.core.calls.Sender`): a wait that runs out re-sends the
request and asks the rest of the group for its view, and a newer view gets
the request at once.  Submission is at-most-once *per attempt*: a
re-submission after a silent timeout starts a fresh transaction (the
previous attempt, if it got anywhere, was auto-aborted by the client
group's view change, or -- rarely -- committed without the driver learning
it; the :class:`~repro.analysis.ledger.TransactionLedger` is the ground
truth the harness reports from).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, NamedTuple, Optional, Tuple

from repro.core import messages as m
from repro.core.cache import ClientCache
from repro.core.calls import Send, Sender
from repro.detect import AdaptiveTimeouts, Retry, RttEstimator
from repro.sim.future import Future
from repro.sim.node import Actor, Node


class CallFailed(Exception):
    """Raised by :meth:`CallResult.unwrap` on a non-committed outcome."""

    def __init__(self, result: "CallResult"):
        super().__init__(f"transaction did not commit: {result.status}")
        self.result = result


class CallResult(NamedTuple):
    """Typed outcome of one :meth:`Driver.call`.

    A NamedTuple on purpose: legacy callers that unpack the old bare
    ``(status, value)`` pair keep working unchanged, while new code reads
    ``result.committed`` / ``result.value`` or uses :meth:`unwrap`.

    ``status`` is one of:

    - ``"committed"`` -- the transaction committed; ``value`` is the
      program's result.
    - ``"aborted"`` -- the transaction definitely aborted; ``value`` is
      ``None``.
    - ``"unknown"`` -- the group was unreachable for the whole retry
      budget; the attempt may or may not have committed (the transaction
      ledger is the ground truth).
    """

    status: str
    value: Any = None

    @property
    def committed(self) -> bool:
        return self.status == "committed"

    @property
    def aborted(self) -> bool:
        return self.status == "aborted"

    @property
    def unknown(self) -> bool:
        return self.status == "unknown"

    def unwrap(self) -> Any:
        """Return ``value``, raising :class:`CallFailed` unless committed."""
        if self.status != "committed":
            raise CallFailed(self)
        return self.value


class ReadResult(NamedTuple):
    """Typed outcome of one :meth:`Driver.read`.

    ``status`` is ``"ok"`` or ``"failed"``.  ``mode`` says how the value
    was obtained: ``"lease"`` (linearizable local read at a leased
    primary), ``"backup"`` (stale-bounded read from a backup's applied
    prefix), ``"cache"`` (client-side commit-set cache hit), or ``"txn"``
    (fell back to the full transactional call path).  ``staleness`` is
    the bound the server (or cache) vouches for -- 0.0 for lease and txn
    reads.
    """

    status: str
    value: Any = None
    mode: str = "none"
    staleness: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclasses.dataclass
class _PendingRead:
    request_id: int
    groupid: str
    uid: str
    future: Future
    retry: Retry  # the re-send schedule (repro.detect)
    max_staleness: Optional[float]
    prefer: str  # which serving mode the next attempt targets
    #: (coordinator groupid, program, args) full-path read
    fallback: Optional[Tuple[str, str, Tuple]]
    timer: Any = None
    submitted_at: float = 0.0


class _PendingRequest(Send):
    """A transaction request to the client group's primary, re-sent until
    its outcome arrives."""

    def __init__(self, driver: "Driver", request_id: int, groupid: str, program: str, args, retry):
        super().__init__((groupid,), retry)
        self.driver = driver
        self.request_id = request_id
        self.future = Future(label=("submit:", program, ":", request_id))
        self.submitted_at = driver.sim.now
        self.message = m.TxnRequestMsg(
            request_id=request_id, program=program, args=args, reply_to=driver.address
        )

    def transmit(self, groupid: str, address: str, _viewid) -> None:
        self.driver.send(address, self.message)

    def give_up(self, reason: str) -> None:
        self.driver._requests.pop(self.request_id, None)
        self.driver._resolve_unknown(self, reason)


class Driver(Actor):
    """Submits transaction programs to a client group and awaits outcomes."""

    def __init__(self, node: Node, runtime, name: str):
        super().__init__(node, name)
        self.runtime = runtime
        self.config = runtime.config
        self.tracer = runtime.tracer
        self.cache = ClientCache(runtime.location)
        self.rtt = RttEstimator()  # fed by observed end-to-end txn latencies
        self.timeouts = AdaptiveTimeouts(self.config, self.rtt)
        self.sender = Sender(self)
        self._rng = runtime.sim.rng.fork(f"driver-backoff/{name}")
        self._requests: Dict[int, _PendingRequest] = {}
        self._next_request = 0
        # -- read serving path (repro.reads) --
        self._reads: Dict[int, _PendingRead] = {}
        self._read_rng = runtime.sim.rng.fork(f"driver-reads/{name}")
        # -- geo routing (repro.geo): a sited driver reads from the
        # nearest serving replica instead of drawing one uniformly.
        self.site = runtime.node_sites.get(node.node_id)
        geo_cfg = self.config.geo
        self._geo_routing = (
            geo_cfg is not None
            and geo_cfg.topology is not None
            and self.site is not None
        )
        self.read_cache = None
        if self.config.reads.client_cache:
            from repro.reads.cache import CommitSetCache

            self.read_cache = CommitSetCache(clock=lambda: self.sim.now)
        runtime.network.register(self)

    # -- API ----------------------------------------------------------------

    def call(
        self,
        target: Any,
        program: str,
        *args: Any,
        retries: int = 8,
        timeout: Optional[float] = None,
    ) -> Future:
        """Run *program* at *target*; resolves to a :class:`CallResult`.

        The one submission surface.  *target* may be:

        - a plain groupid string -- the request goes to that group's
          primary;
        - a :class:`~repro.shard.facade.ShardedGroup`, or the name of one
          registered on the runtime -- the façade's shard map routes
          key-addressed programs to the owning shard.

        The returned future resolves to a :class:`CallResult` (a
        ``(status, value)`` NamedTuple, so tuple unpacking still works).
        ``timeout`` is the wait per attempt before re-probing and
        retrying; it defaults to twice the protocol's call timeout.
        """
        groupid, program, args = self._route(target, program, tuple(args))
        return self._call_group(
            groupid, program, args, retries=retries, timeout=timeout
        )

    def _route(self, target: Any, program: str, args: Tuple) -> Tuple[str, str, Tuple]:
        """Resolve *target* to (groupid, program, args), via a sharded
        façade when the target is one (by instance or registered name)."""
        if isinstance(target, str):
            sharded = self.runtime.sharded.get(target)
            if sharded is None:
                return target, program, args
        else:
            sharded = target
        return sharded.route(program, args, origin=self)

    def _call_group(
        self,
        groupid: str,
        program: str,
        args: Tuple,
        retries: int = 8,
        timeout: Optional[float] = None,
    ) -> Future:
        if timeout is not None and timeout <= 0:
            raise ValueError(f"call() timeout must be > 0, got {timeout!r}")
        self._next_request += 1
        retry = self.timeouts.request_retry(retries, self._rng, timeout)
        request = _PendingRequest(self, self._next_request, groupid, program, tuple(args), retry)
        self._requests[request.request_id] = request
        if self.tracer is not None:
            self.tracer.emit_row(
                "txn_submit",
                self.node.node_id,
                (),
                (self.address, request.request_id, groupid, program),
            )
        self.sender.start(request)
        return request.future

    # -- reads (repro.reads serving path) -------------------------------------

    def read(
        self,
        groupid: str,
        uid: str,
        *,
        max_staleness: Optional[float] = None,
        prefer: str = "primary",
        fallback: Optional[Tuple[str, str, Tuple]] = None,
        retries: int = 8,
        timeout: Optional[float] = None,
    ) -> Future:
        """Read one object's committed value outside the call path.

        Resolves to a :class:`ReadResult`.  *prefer* picks the first
        serving mode tried: ``"primary"`` (leased linearizable read),
        ``"backup"`` (stale-bounded read, honoring *max_staleness*), or
        ``"nearest"`` (geo routing: whichever view member is closest to
        this driver's site -- primary semantics if that is the primary,
        stale-bounded otherwise; degrades to ``"primary"`` on a site-less
        driver or flat network).  Rejections steer later attempts: a
        primary without a lease is retried at a backup and a too-stale
        backup at the primary, so the read lands wherever the group can
        serve it.  *fallback* is an optional ``(coordinator groupid,
        program, args)`` triple run through the full transactional call
        path when the fast path is unavailable (e.g. reads disabled);
        without it such reads resolve failed.  ``timeout`` (> 0) is the
        wait per attempt, the protocol's call timeout by default.
        """
        if prefer not in ("primary", "backup", "nearest"):
            raise ValueError(
                f"read() prefer must be primary|backup|nearest, got {prefer!r}"
            )
        if timeout is not None and timeout <= 0:
            raise ValueError(f"read() timeout must be > 0, got {timeout!r}")
        self._next_request += 1
        wait = timeout if timeout is not None else self.config.call_timeout
        request = _PendingRead(
            request_id=self._next_request,
            groupid=groupid,
            uid=uid,
            future=Future(label=("read:", uid, ":", self._next_request)),
            retry=Retry(lambda: wait, retries + 1),
            max_staleness=max_staleness,
            prefer=prefer,
            fallback=fallback,
            submitted_at=self.sim.now,
        )
        if self.read_cache is not None:
            hit = self.read_cache.lookup(uid, max_staleness)
            if hit is not None:
                value, staleness = hit
                self.runtime.metrics.incr("driver_cache_reads")
                request.future.set_result(
                    ReadResult("ok", value, "cache", staleness)
                )
                return request.future
        self._reads[request.request_id] = request
        self._send_read(request)
        return request.future

    def note_write(self, uid: str, value: Any) -> None:
        """Feed the commit-set cache an observed committed write (the
        driver cannot infer written keys from a program name, so keyed
        workloads report them here)."""
        if self.read_cache is not None:
            self.read_cache.note(uid, value)

    def _send_read(self, request: _PendingRead) -> None:
        entry = self.cache.get(request.groupid)
        if entry is None:
            self.sender.probe(request.groupid)
        else:
            address = entry.primary_address
            if request.prefer == "backup" and entry.view.backups:
                if self._geo_routing:
                    # Geo routing replaces the uniform draw: read from
                    # the backup nearest this driver's site (no RNG pull,
                    # so flat-network schedules are untouched -- this
                    # branch only exists when geo is armed).
                    chosen = self.runtime.location.nearest_backup(
                        request.groupid, entry.view, self.site
                    )
                    if chosen is not None:
                        address = chosen
                        self._trace_geo_route(request, address, "backup")
                else:
                    members = dict(self.runtime.location.lookup(request.groupid))
                    backups = [
                        members[mid] for mid in sorted(entry.view.backups)
                        if mid in members
                    ]
                    if backups:
                        address = self._read_rng.choice(backups)
            elif request.prefer == "nearest" and self._geo_routing:
                chosen = self.runtime.location.nearest_member(
                    request.groupid, entry.view, self.site
                )
                if chosen is not None:
                    address = chosen
                    self._trace_geo_route(
                        request,
                        address,
                        "primary" if address == entry.primary_address else "backup",
                    )
            self.send(
                address,
                m.ReadMsg(
                    request_id=request.request_id,
                    uid=request.uid,
                    reply_to=self.address,
                    max_staleness=request.max_staleness,
                ),
            )
        request.timer = self.node.set_timer(
            request.retry.wait(self.sim.now), self._on_read_timeout, request.request_id
        )

    def _trace_geo_route(
        self, request: _PendingRead, target: str, role: str
    ) -> None:
        if self.tracer is not None:
            self.tracer.emit_row(
                "geo_route",
                self.node.node_id,
                (),
                (
                    self.address,
                    self.site,
                    request.groupid,
                    target,
                    self.runtime.location.site_of(target),
                    role,
                    request.prefer,
                ),
            )

    def _on_read_timeout(self, request_id: int) -> None:
        request = self._reads.get(request_id)
        if request is None:
            return
        if request.retry.expired(self.sim.now):
            self._reads.pop(request_id, None)
            self._finish_read_via_fallback(request, "retries exhausted")
            return
        self.cache.invalidate(request.groupid)
        self._send_read(request)

    def _finish_read_via_fallback(self, request: _PendingRead, reason: str) -> None:
        """Fast path unavailable: run the transactional fallback, or fail."""
        if request.timer is not None:
            request.timer.cancel()
            request.timer = None
        if request.future.done:
            return
        if request.fallback is None:
            request.future.set_result(ReadResult("failed", None, "none", 0.0))
            return
        coordinator, program, args = request.fallback
        self.runtime.metrics.incr("driver_read_fallbacks")
        call = self._call_group(coordinator, program, tuple(args))

        def chain(future: Future) -> None:
            if request.future.done:
                return
            result: CallResult = future.result()
            if result.committed:
                if self.read_cache is not None:
                    self.read_cache.note(request.uid, result.value)
                request.future.set_result(
                    ReadResult("ok", result.value, "txn", 0.0)
                )
            else:
                request.future.set_result(
                    ReadResult("failed", None, "txn", 0.0)
                )

        call.add_done_callback(chain)

    def _on_read_reply(self, message: m.ReadReplyMsg) -> None:
        request = self._reads.pop(message.request_id, None)
        if request is None:
            return
        if request.timer is not None:
            request.timer.cancel()
        if request.future.done:
            return
        latency = self.sim.now - request.submitted_at
        self.runtime.metrics.observe("driver_read_latency", latency)
        if self.read_cache is not None:
            # The value was committed at least `staleness` ago.
            self.read_cache.note(
                message.uid, message.value, t=self.sim.now - message.staleness
            )
        request.future.set_result(
            ReadResult("ok", message.value, message.mode, message.staleness)
        )

    def _on_read_reject(self, message: m.ReadRejectMsg) -> None:
        request = self._reads.get(message.request_id)
        if request is None:
            return
        self.cache.learn(message.groupid, message.viewid, message.view)
        if message.reason == m.READ_PATH_ABSENT or request.retry.expired(self.sim.now):
            self._reads.pop(message.request_id, None)
            self._finish_read_via_fallback(request, message.reason)
            return
        # Steer the next attempt toward whichever mode can serve: a
        # leaseless primary suggests a backup read, a too-stale backup
        # suggests the primary (or another backup).
        if message.reason == "no_lease":
            request.prefer = "backup"
        elif message.reason in ("too_stale", "not_active"):
            request.prefer = "primary"
        if request.timer is not None:
            request.timer.cancel()
        if message.viewid is None:
            self.cache.invalidate(request.groupid)
        self._send_read(request)

    # -- transmission (the host contract of repro.core.calls.Sender) ------------

    def send(self, destination: str, message) -> None:
        self.runtime.network.send(self.address, destination, message)

    def _resolve_unknown(self, request: _PendingRequest, reason: str) -> None:
        """Give up on a request: the attempt may or may not have committed
        (the ledger is the ground truth).  Stopping the send cancels and
        nulls its timer, which matters on the kernel's lazy-cancel path: a
        resolved request must not pin a live heap entry (or fire into a
        cleared table) later."""
        self.sender.stop(request)
        if not request.future.done:
            request.future.set_result(CallResult("unknown", None))
        if self.tracer is not None:
            self.tracer.emit_row(
                "txn_outcome",
                self.node.node_id,
                (),
                (self.address, request.request_id, "unknown", reason),
            )

    # -- message handling ---------------------------------------------------------

    def handle_message(self, message, source: str) -> None:
        if isinstance(message, m.ReadReplyMsg):
            self._on_read_reply(message)
            return
        if isinstance(message, m.ReadRejectMsg):
            self._on_read_reject(message)
            return
        if isinstance(message, m.TxnOutcomeMsg):
            request = self._requests.pop(message.request_id, None)
            if request is None:
                return
            self.sender.stop(request)
            if not request.future.done:
                latency = self.sim.now - request.submitted_at
                self.runtime.metrics.observe("driver_txn_latency", latency)
                self.rtt.observe(latency)
                if self.tracer is not None:
                    self.tracer.emit_row(
                        "txn_outcome",
                        self.node.node_id,
                        (),
                        (self.address, message.request_id, message.outcome),
                    )
                request.future.set_result(
                    CallResult(message.outcome, message.result)
                )
        elif isinstance(message, m.ViewProbeReplyMsg):
            if self.sender.on_probe_reply(message):
                for read in list(self._reads.values()):
                    if read.groupid == message.groupid:
                        if read.timer is not None:
                            read.timer.cancel()
                        self._send_read(read)
        elif isinstance(message, m.ViewChangedMsg) and message.groupid:
            # A request hit a non-primary (the rejection names no request).
            self.sender.on_rejection(None, message.groupid, message.viewid, message.view)

    def on_crash(self) -> None:
        # Losing volatile state must not strand callers: resolve every
        # pending submission to "unknown" and drop its timer.
        for request in self._requests.values():
            self._resolve_unknown(request, "driver crashed")
        self._requests.clear()
        for read in self._reads.values():
            if read.timer is not None:
                read.timer.cancel()
                read.timer = None
            if not read.future.done:
                read.future.set_result(ReadResult("failed", None, "none", 0.0))
        self._reads.clear()
        if self.read_cache is not None:
            self.read_cache.commit_set.clear()
