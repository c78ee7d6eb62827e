"""The communication buffer (paper sections 2 and 3).

"Instead of checkpointing events directly to the backups, the primary
maintains a communication buffer (similar to a fifo queue) to which it
writes event records...  Information in the buffer is sent to the backups
in timestamp order.  The buffer implementation provides reliable delivery
of event records to all backups in the primary's view; if it fails to
deliver a message, then a crash or communication failure has occurred that
will cause a view change."

Two operations, exactly as specified:

- :meth:`CommunicationBuffer.add` -- "atomically assigns the event a
  timestamp (advancing the timestamp and updating the history in the
  process) and adds the event record to the buffer; it returns the event's
  viewstamp."
- :meth:`CommunicationBuffer.force_to` -- "takes a viewstamp v as an
  argument.  If the viewstamp is not for the current view it returns
  immediately; otherwise it waits until a sub-majority of backups know
  about all events in the current view with timestamps less than or equal
  to v.ts."

Reliable in-order delivery over the lossy datagram network is implemented
with cumulative acks, in one of two transmission modes:

- **unbatched** (the paper-faithful default): every force flushes
  immediately ("speedy delivery"), and every flush re-sends the whole
  suffix above the backup's last cumulative ack;
- **batched** (``BatchConfig.enabled``): forces only *request* a flush;
  one coalescing tick per ``BatchConfig.flush_interval`` sends each backup
  at most ``max_batch`` *new* records (tracked by a per-backup send
  high-water mark) with up to ``pipeline_depth`` batches in flight before
  the sender stalls.  Loss recovery is go-back-N: the background flush
  loop notices a stalled cumulative ack and rewinds the high-water mark to
  it.  Section 3.7's "careful engineering is needed here to provide both
  speedy delivery and small numbers of messages" is exactly this trade.

Delivery failure is surfaced as a force timeout in either mode, which
abandons the force and triggers a view change, matching footnote 1.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.events import EventRecord
from repro.core.messages import BufferAckMsg, BufferMsg
from repro.core.view import sub_majority
from repro.core.viewstamp import ViewId, Viewstamp
from repro.net.messages import estimate_size
from repro.sim.errors import SimulationError
from repro.sim.future import Future

_TUPLE_BYTES = estimate_size(())  # what a records tuple costs before its pairs


class ForceAbandoned(SimulationError):
    """A force_to could not complete; the cohort is switching to a view
    change (paper footnote 1)."""


class _PendingForce:
    __slots__ = ("ts", "future", "deadline")

    def __init__(self, ts: int, future: Future, deadline) -> None:
        self.ts = ts
        self.future = future
        self.deadline = deadline


class CommunicationBuffer:
    """Primary-side event buffer for one view.

    The owning cohort supplies callbacks instead of being imported, keeping
    this module protocol-pure and unit-testable in isolation.

    Parameters
    ----------
    send:
        ``send(mid, message)`` -- transmit to a group peer.
    on_force_failure:
        Invoked once when a force times out; the cohort starts a view change.
    configuration_size:
        Group size; the force threshold is a *sub-majority of the
        configuration* (section 3), not of the current view.
    batch_enabled / flush_delay / pipeline_depth:
        Batched transmission mode (see module docstring).  Defaults
        reproduce the unbatched protocol exactly.
    clock:
        ``clock()`` -> current virtual time; only needed for batched mode.
    trace:
        Optional ``trace(kind, **data)`` hook for batch_flush events.
    """

    def __init__(
        self,
        viewid: ViewId,
        backups: Tuple[int, ...],
        configuration_size: int,
        send: Callable[[int, object], None],
        set_timer: Callable,
        on_force_failure: Callable[[], None],
        force_timeout: float,
        max_batch: int = 64,
        retain_all: bool = False,
        batch_enabled: bool = False,
        flush_delay: float = 0.0,
        pipeline_depth: int = 1,
        clock: Optional[Callable[[], float]] = None,
        trace: Optional[Callable[..., None]] = None,
    ):
        self.viewid = viewid
        self.backups = tuple(backups)
        self.configuration_size = configuration_size
        self._send = send
        self._set_timer = set_timer
        self._on_force_failure = on_force_failure
        self._force_timeout = force_timeout
        self._max_batch = max_batch
        self._retain_all = retain_all  # keep the whole view's records so an
        #                                unilaterally re-added backup can be
        #                                caught up from where it left off
        self._batch_enabled = batch_enabled
        self._flush_delay = flush_delay
        self._pipeline_depth = max(1, pipeline_depth)
        self._clock = clock
        self._trace = trace

        self.timestamp = 0  # Figure 1's "timestamp: int % the timestamp generator"
        self._records: List[Tuple[int, EventRecord]] = []
        self._base_ts = 0  # ts of the first retained record minus one
        # _sized[i] is the wire size of _records[:i]: any slice a flush ships
        # is sized by one subtraction, however often it is re-sent.
        self._sized = array("q", [0])
        self.acked: Dict[int, int] = {mid: 0 for mid in self.backups}
        self._pending_forces: List[_PendingForce] = []
        self.closed = False
        # Batched-mode state: per-backup send high-water mark (highest ts
        # ever shipped), ack progress seen at the last background sweep
        # (go-back-N stall detection), and the pending coalescing tick.
        self._sent: Dict[int, int] = {mid: 0 for mid in self.backups}
        self._last_swept_ack: Dict[int, int] = {}
        self._tick_pending = False
        # Counters surfaced by perf reports and the batching experiments.
        self.msgs_sent = 0
        self.records_sent = 0
        self.flush_ticks = 0

    # -- membership (unilateral view edits, section 4.1) --------------------

    def set_backups(self, backups: Tuple[int, ...]) -> None:
        self.backups = tuple(backups)
        for mid in self.backups:
            self.acked.setdefault(mid, 0)
            self._sent.setdefault(mid, 0)
        for mid in list(self.acked):
            if mid not in self.backups:
                del self.acked[mid]
                self._sent.pop(mid, None)
                self._last_swept_ack.pop(mid, None)
        self._check_forces()

    # -- the two operations -----------------------------------------------

    def add(self, record: EventRecord) -> Viewstamp:
        """Append an event; returns its viewstamp.  Caller advances history."""
        if self.closed:
            raise SimulationError("buffer closed (view change in progress)")
        self.timestamp += 1
        pair = (self.timestamp, record)
        self._records.append(pair)
        self._sized.append(self._sized[-1] + estimate_size(pair))
        if self._batch_enabled:
            self.request_flush()
        return Viewstamp(self.viewid, self.timestamp)

    def force_to(self, viewstamp: Optional[Viewstamp]) -> Future:
        """Wait until a sub-majority of backups cover *viewstamp*.

        Returns an already-resolved future when the viewstamp is from an
        earlier view ("if the viewstamp is not for the current view it
        returns immediately"), when it is None (nothing to force), or when
        the threshold is already met.
        """
        future = Future(label=f"force:{viewstamp}")
        if self.closed:
            future.set_exception(ForceAbandoned("buffer closed"))
            return future
        if viewstamp is None or viewstamp.id != self.viewid:
            future.set_result(None)
            return future
        if viewstamp.ts > self.timestamp:
            raise SimulationError(
                f"force_to({viewstamp}) beyond generated timestamps "
                f"({self.timestamp})"
            )
        if self._sub_majority_ts() >= viewstamp.ts:
            future.set_result(None)
            return future
        deadline = self._set_timer(self._force_timeout, self._force_timed_out)
        self._pending_forces.append(
            _PendingForce(viewstamp.ts, future, deadline)
        )
        if self._batch_enabled:
            self.request_flush()  # coalesced: one tick serves every force
        else:
            self.flush()  # speedy delivery: don't wait for the background timer
        return future

    # -- transmission ------------------------------------------------------

    def flush(self) -> None:
        """Background sweep: re-send what backups are missing.

        Unbatched mode re-sends every backup the full suffix above its
        cumulative ack.  Batched mode is the go-back-N retransmit path: a
        backup whose cumulative ack has not advanced since the previous
        sweep, while records beyond it were already shipped, has lost
        traffic -- rewind its send mark to the ack and re-send from there.
        """
        if self.closed:
            return
        if not self._batch_enabled:
            for mid in self.backups:
                self._flush_one(mid)
            return
        rewound = False
        for mid in self.backups:
            acked = self.acked.get(mid, 0)
            sent = self._sent.get(mid, 0)
            if sent > acked and self._last_swept_ack.get(mid) == acked:
                self._sent[mid] = acked
                rewound = True
            self._last_swept_ack[mid] = acked
        if rewound or self._unsent_backups():
            self._flush_tick()

    def request_flush(self) -> None:
        """Schedule one coalescing flush tick (batched mode only)."""
        if self.closed or self._tick_pending:
            return
        self._tick_pending = True
        self._set_timer(self._flush_delay, self._flush_tick_timer)

    def _flush_tick_timer(self) -> None:
        self._tick_pending = False
        if not self.closed:
            self._flush_tick()

    def _flush_tick(self) -> None:
        """Send each backup its next window of new records, coalesced."""
        msgs = 0
        records = 0
        for mid in self.backups:
            n = self._flush_one_batched(mid)
            if n:
                msgs += 1
                records += n
        if msgs:
            self.flush_ticks += 1
            if self._trace is not None:
                self._trace(
                    "batch_flush",
                    msgs=msgs,
                    records=records,
                    ts=self.timestamp,
                )
        # Keep the pipeline draining while windows are open and records
        # remain unsent (a single tick ships at most max_batch per backup).
        if self._unsent_backups():
            self.request_flush()

    def _flush_one_batched(self, mid: int) -> int:
        """Ship *mid* its next batch of unsent records; returns the count."""
        acked = self.acked.get(mid, 0)
        sent = max(self._sent.get(mid, 0), acked, self._base_ts)
        window_limit = acked + self._pipeline_depth * self._max_batch
        if sent >= self.timestamp or sent >= window_limit:
            return 0
        start_index = sent - self._base_ts
        end_ts = min(sent + self._max_batch, window_limit)
        records = tuple(self._records[start_index : end_ts - self._base_ts])
        if not records:
            return 0
        self._sent[mid] = records[-1][0]
        sent_at = self._clock() if self._clock is not None else None
        self._ship(mid, start_index, records, sent_at)
        return len(records)

    def _unsent_backups(self) -> bool:
        """True if any backup has unsent records inside an open window."""
        for mid in self.backups:
            acked = self.acked.get(mid, 0)
            sent = max(self._sent.get(mid, 0), acked, self._base_ts)
            if sent < self.timestamp and sent < acked + (
                self._pipeline_depth * self._max_batch
            ):
                return True
        return False

    def _flush_one(self, mid: int) -> None:
        acked = self.acked.get(mid, 0)
        start = max(acked, self._base_ts)
        # _records is contiguous from _base_ts + 1, so index arithmetic
        # replaces the O(n) scan on this hot path.
        start_index = start - self._base_ts
        records = tuple(
            self._records[start_index : start_index + self._max_batch]
        )
        if not records and acked >= self.timestamp:
            return
        self._ship(mid, start_index, records)

    def _ship(
        self, mid: int, start_index: int, records: tuple, sent_at: Optional[float] = None
    ) -> None:
        """Send *mid* ``records``, the slice of ``_records`` at *start_index*."""
        self.msgs_sent += 1
        self.records_sent += len(records)
        message = BufferMsg(self.viewid, records, self.timestamp, sent_at)
        message.records_bytes = _TUPLE_BYTES + (
            self._sized[start_index + len(records)] - self._sized[start_index]
        )
        self._send(mid, message)

    def on_ack(self, ack: BufferAckMsg) -> None:
        """Process a cumulative ack from a backup.

        With ack trees armed (repro.scale) the message may carry an
        aggregated subtree of ``(mid, acked_ts)`` pairs in ``agg``; an
        empty ``agg`` is the classic single-backup ack.  Acks are
        max-merged per mid, so stale relayed entries are harmless.
        """
        if self.closed or ack.viewid != self.viewid:
            return
        pairs = ack.agg if ack.agg else ((ack.mid, ack.acked_ts),)
        advanced = False
        for mid, acked_ts in pairs:
            if mid not in self.acked:
                continue  # excluded backup (unilateral edit) or stray
            if acked_ts > self.acked[mid]:
                self.acked[mid] = acked_ts
                advanced = True
                if self._batch_enabled and acked_ts > self._sent.get(mid, 0):
                    self._sent[mid] = acked_ts
        if advanced:
            # An advancing ack opens window space: keep the pipe full.
            if self._batch_enabled and self._unsent_backups():
                self.request_flush()
            self._check_forces()
            self._trim()

    # -- internals -----------------------------------------------------------

    def _sub_majority_ts(self) -> int:
        """Highest ts known to at least a sub-majority of backups."""
        needed = sub_majority(self.configuration_size)
        if needed <= 0:
            return self.timestamp  # single-cohort group: primary alone suffices
        acks = sorted((self.acked.get(mid, 0) for mid in self.backups), reverse=True)
        if len(acks) < needed:
            return 0
        return acks[needed - 1]

    def _check_forces(self) -> None:
        if not self._pending_forces:
            return
        reached = self._sub_majority_ts()
        still_pending = []
        for force in self._pending_forces:
            if force.ts <= reached:
                force.deadline.cancel()
                force.future.set_result(None)
            else:
                still_pending.append(force)
        self._pending_forces = still_pending

    def _force_timed_out(self) -> None:
        if self.closed:
            return
        self._fail_forces("force timed out; communication with backups lost")
        self._on_force_failure()

    def _fail_forces(self, reason: str) -> None:
        pending, self._pending_forces = self._pending_forces, []
        for force in pending:
            force.deadline.cancel()
            if not force.future.done:
                force.future.set_exception(ForceAbandoned(reason))

    def _trim(self) -> None:
        """Drop records every current backup has acknowledged.

        The newview record is always retained (``_base_ts`` never passes
        ts=1 until all backups ack it), so late-added backups can still be
        brought up from the start of the view.
        """
        if self._retain_all or not self.acked:
            return
        min_ack = min(self.acked.values())
        if min_ack <= self._base_ts:
            return
        drop = min_ack - self._base_ts
        del self._records[:drop]
        del self._sized[:drop]  # sizes are only ever subtracted pairwise
        self._base_ts = min_ack

    def close(self) -> None:
        """Abandon the buffer at the start of a view change."""
        if self.closed:
            return
        self.closed = True
        self._fail_forces("view change started")

    # -- introspection ---------------------------------------------------------

    @property
    def unforced_count(self) -> int:
        return self.timestamp - self._sub_majority_ts()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CommunicationBuffer({self.viewid}, ts={self.timestamp}, "
            f"acked={self.acked}, pending_forces={len(self._pending_forces)})"
        )
