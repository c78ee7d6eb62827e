"""The communication buffer (paper sections 2 and 3).

"Instead of checkpointing events directly to the backups, the primary
maintains a communication buffer (similar to a fifo queue) to which it
writes event records...  Information in the buffer is sent to the backups
in timestamp order.  The buffer implementation provides reliable delivery
of event records to all backups in the primary's view; if it fails to
deliver a message, then a crash or communication failure has occurred that
will cause a view change."

Three operations: two as specified, the third the behaviour section 3.7
expects ("the needed completed-call event records ... will already be stored
at a sub-majority"):

- :meth:`CommunicationBuffer.add` -- "atomically assigns the event a
  timestamp (advancing the timestamp and updating the history in the
  process) and adds the event record to the buffer; it returns the event's
  viewstamp."
- :meth:`CommunicationBuffer.force_to` -- "takes a viewstamp v as an
  argument.  If the viewstamp is not for the current view it returns
  immediately; otherwise it waits until a sub-majority of backups know
  about all events in the current view with timestamps less than or equal
  to v.ts."
- :meth:`CommunicationBuffer.push` -- **background delivery**: ship what is
  above the send mark to a sub-majority's worth of backups now, without
  waiting, so that the force that later names it "need not wait".  Called
  from one place, for the one record kind a later force names without
  forcing it itself: the completed call (``ServerRole._run_call``).

Reliable in-order delivery over the lossy datagram network is one discipline
-- each record crosses each link once:

- a per-backup **send mark** (highest ts shipped): a flush ships a backup
  only the records above its mark -- at most ``max_batch`` per message and
  ``pipeline_depth`` batches beyond its cumulative ack -- and sends nothing
  when nothing is new;
- **one retransmitter**, the background sweep (:meth:`flush`): a backup
  whose outstanding records saw no ack progress for ``max(flush_interval,
  rto(mid))`` -- the round-trip timeout its failure detector learned from
  heartbeats; plus ``join_delay``, its viewid write, before its first ack of
  the view -- goes back to its ack (go-back-N); a backup holds a message that
  overtook an earlier one (:class:`HeldRecords`), so reordering costs no resend;
- a force, a push and a flush the window cut short each *request* a flush
  for a few backups (below); an add requests nothing, and the sweep ships
  everybody what they still lack.  A request is served after ``flush_delay``:
  0 (the paper-faithful default) is the same call, "speedy delivery"; above
  0 (``BatchConfig.flush_interval``) one tick serves the interval's requests
  -- section 3.7's "both speedy delivery and small numbers of messages".

Who is served speedily (DESIGN.md D16).  A force waits for a sub-majority, so a
force or push ships ``Quorums.force`` backups -- a sub-majority -- and no more
(:meth:`_speedy`): those with the highest cumulative acks, so a backup that
stops acknowledging loses the role by itself.  The others get the same records
once, coalesced, from the next sweep -- durability is the ack rule, not the send
rule.  One target on a link that loses traffic would stall a force for a whole
sweep, so for ``force_timeout`` after a sweep had to rewind any backup a force
ships everybody.  A push goes to a target only while it has no earlier *push*
unacknowledged, and that ack re-offers what accumulated: one push per link per
round trip, however many calls complete.  The gate is per push, not per link:
forces keep a busy link busy, and what they leave behind is exactly what a
later prepare waits for.  A push a tick serves is not gated (D20).  A delivery
failure surfaces as a force timeout and a view change (footnote 1).
"""

from __future__ import annotations

from array import array
from heapq import nlargest
from itertools import repeat
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.events import EventRecord
from repro.core.messages import BufferAckMsg, BufferMsg
from repro.core.quorum import Quorums
from repro.core.viewstamp import ViewId, Viewstamp
from repro.net.messages import estimate_size
from repro.sim.errors import SimulationError
from repro.sim.future import Future

_TUPLE_BYTES = estimate_size(())  # what a records tuple costs before its pairs


class ForceAbandoned(SimulationError):
    """A force_to could not complete; the cohort is switching to a view
    change (paper footnote 1)."""


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
        configuration* (section 3, ``Quorums.force``), not of the current
        view.
    flush_delay / pipeline_depth:
        A requested flush's coalescing delay and the in-flight window per
        backup in ``max_batch`` batches; 0 and 1 unless batching arms them.
    flush_interval / clock / rto / join_delay:
        The sweep period, ``clock()`` -> virtual time, ``rto(mid)`` -> that
        peer's learned round-trip timeout or None, a backup's stable viewid
        write.  Without them time stands still: every sweep retransmits and
        no force deadline comes due.
    trace:
        Optional ``trace(kind, *values)`` hook for batch_flush events.
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
        flush_delay: float = 0.0,
        pipeline_depth: int = 1,
        flush_interval: float = 0.0,
        clock: Callable[[], float] = lambda: 0.0,
        rto: Callable[[int], Optional[float]] = lambda mid: None,
        join_delay: float = 0.0,
        trace: Optional[Callable[..., None]] = None,
    ):
        self.viewid = viewid
        self.backups = tuple(backups)
        self._send = send
        self._set_timer = set_timer
        self._on_force_failure = on_force_failure
        self._force_timeout = force_timeout
        self._max_batch = max_batch
        # retain_all keeps the whole view's records, so an unilaterally
        # re-added backup can be caught up from where it left off.
        self._retain_all = retain_all
        self._flush_delay = flush_delay
        self._window = pipeline_depth * max_batch
        self._needed = Quorums(configuration_size).force  # backups a force or push wants
        self._speedy_now: Optional[List[int]] = None  # _speedy(), until acks move
        self._flush_interval = flush_interval
        self._clock = clock
        self._rto = rto
        self._join_delay = join_delay
        self._trace = trace

        self.timestamp = 0  # Figure 1's "timestamp: int % the timestamp generator"
        self._records: List[Tuple[int, EventRecord]] = []
        # Per backup: the ts-1 pair shipped to it instead of the buffer's (a
        # newview of what it lacks, DESIGN.md D25) and how many bytes that saves.
        self._first: Dict[int, Tuple[Tuple[int, EventRecord], int]] = {}
        self._base_ts = 0  # ts of the first retained record minus one
        # _sized[i] is the wire size of _records[:i]: any slice a flush ships
        # is sized by one subtraction.
        self._sized = array("q", [0])
        self.acked: Dict[int, int] = {mid: 0 for mid in self.backups}
        # Per backup: the send mark (highest ts ever shipped) and when its
        # outstanding records last made progress (first shipped, or acked).
        self._sent: Dict[int, int] = {mid: 0 for mid in self.backups}
        self._progress_at: Dict[int, float] = {}
        # A backup whose flush the window cut short -> the ts it was asked for.
        self._cut: Dict[int, int] = {}
        self._lossy_until = 0.0  # a sweep rewound a backup: forces ship everybody
        # The backups the next coalescing tick serves; non-empty iff it is armed.
        self._requested: Set[int] = set()
        # Background delivery: the highest ts offered; per backup the ts its
        # last push reached (its gate: shut until acked); is an offer waiting?
        self._offered = 0
        self._pushed: Dict[int, int] = {mid: 0 for mid in self.backups}
        self._push_waiting = False
        # (ts, future, due) in due order, under one deadline timer.
        self._pending_forces: List[Tuple[int, Future, float]] = []
        self._deadline_armed = False
        self.closed = False
        # Counters surfaced by perf reports and the batching experiments.
        self.msgs_sent = 0
        self.records_sent = 0
        self.flush_ticks = 0
        self.pushes = 0

    # -- membership (unilateral view edits, section 4.1) --------------------

    def set_backups(self, backups: Tuple[int, ...]) -> None:
        self.backups, self._speedy_now = tuple(backups), None
        for mid in self.backups:
            self.acked.setdefault(mid, 0)
            self._sent.setdefault(mid, 0)
            self._pushed.setdefault(mid, 0)
        for mid in list(self.acked):
            if mid not in self.backups:
                del self.acked[mid], self._sent[mid], self._pushed[mid]
                self._progress_at.pop(mid, None)
                self._cut.pop(mid, None)
                self._first.pop(mid, None)  # re-added, it gets the buffer's own
        self._check_forces()

    # -- the three operations ---------------------------------------------

    def add(self, record: EventRecord) -> Viewstamp:
        """Append an event; returns its viewstamp.  Caller advances history."""
        if self.closed:
            raise SimulationError("buffer closed (view change in progress)")
        self.timestamp += 1
        pair = (self.timestamp, record)
        self._records.append(pair)
        self._sized.append(self._sized[-1] + estimate_size(pair))
        return Viewstamp(self.viewid, self.timestamp)

    def tailor(self, mid: int, record: EventRecord) -> None:
        """Ship backup *mid* *record* in place of the ts-1 record, on every
        send to it that carries ts 1."""
        pair = (1, record)
        self._first[mid] = (pair, self._sized[1] - self._sized[0] - estimate_size(pair))

    def force_to(self, viewstamp: Optional[Viewstamp]) -> Future:
        """Wait until a sub-majority of backups cover *viewstamp*.

        Returns an already-resolved future when the viewstamp is from an
        earlier view ("if the viewstamp is not for the current view it
        returns immediately"), when it is None (nothing to force), or when
        the threshold is already met.
        """
        future = Future(label="force")
        if self.closed:
            future.set_exception(ForceAbandoned("buffer closed"))
            return future
        if viewstamp is None or viewstamp.id != self.viewid:
            future.set_result(None)
            return future
        if viewstamp.ts > self.timestamp:
            raise SimulationError(
                f"force_to({viewstamp}) beyond generated timestamps ({self.timestamp})"
            )
        if self._sub_majority_ts() >= viewstamp.ts:
            future.set_result(None)
            return future
        now = self._clock()
        self._pending_forces.append((viewstamp.ts, future, now + self._force_timeout))
        if not self._deadline_armed:
            self._deadline_armed = True
            self._set_timer(self._force_timeout, self._force_deadline)
        # To the few it waits for; to everybody while a rewind is recent.
        self._request(self.backups if now < self._lossy_until else self._speedy())
        return future

    def push(self) -> None:
        """Background delivery: offer everything added so far to a
        sub-majority's worth of backups, so that a later force finds it stored
        (or on its way)."""
        if not self.closed:
            self._offered = self.timestamp
            if self._flush_delay:
                self.pushes += 1
                self._request(self._speedy())  # the tick coalesces: no gate
            else:
                self._push_offered()

    def _push_offered(self) -> None:
        """One push per link per round trip: a backup is shipped the offer
        only once its previous push is acknowledged; what it still lacks
        then waits for that ack (:meth:`on_ack` re-offers)."""
        acked, sent, offered = self.acked, self._sent, self._offered
        self._push_waiting = False
        for mid in self._speedy():
            if acked[mid] >= self._pushed[mid] and self._ship_next(mid, offered):
                self._pushed[mid] = sent[mid]
                self.pushes += 1
            if sent[mid] < offered:
                self._push_waiting = True

    def _speedy(self) -> List[int]:
        """The backups owed speedy delivery (module docstring)."""
        if self._speedy_now is None:
            self._speedy_now = nlargest(self._needed, self.backups, key=self.acked.__getitem__)
        return self._speedy_now

    # -- transmission ------------------------------------------------------

    def flush(self) -> None:
        """Background sweep, the one retransmitter: a backup whose outstanding
        records made no ack progress for ``max(flush_interval, rto(mid))`` has
        lost traffic and goes back to its cumulative ack.  Then ship what is
        above each mark: the rewound suffix, and records no force asked for."""
        if self.closed:
            return
        now = self._clock()
        for mid in self.backups:
            if self._sent[mid] > self.acked[mid]:
                # An ack may sit out one coalescing tick at the backup.
                patience = max(self._flush_interval, (self._rto(mid) or 0.0) + self._flush_delay)
                if not self.acked[mid]:
                    patience += self._join_delay  # it cannot ack before it has joined
                if now >= self._progress_at[mid] + patience:  # the sum a timer makes
                    self._sent[mid] = self.acked[mid]
                    self._lossy_until = now + self._force_timeout
        self._flush_new(self.backups)

    def _request(self, targets: Sequence[int]) -> None:
        """Ship *targets* what is new: now, or on the one tick ``flush_delay``
        away that serves every request of the interval."""
        if not self._flush_delay:
            self._flush_new(targets)
            return
        if targets and not self._requested:
            self._set_timer(self._flush_delay, self._flush_tick)
        self._requested.update(targets)

    def _flush_tick(self) -> None:
        requested, self._requested = self._requested, set()
        if not self.closed:  # a backup set_backups removed meanwhile is not served
            self._flush_new([mid for mid in self.backups if mid in requested])

    def _flush_new(self, targets: Sequence[int]) -> None:
        """Send each of *targets* its next batch of records above its mark."""
        upto, cut = self.timestamp, self._cut
        sizes = [n for n in map(self._ship_next, targets, repeat(upto)) if n]
        for mid in targets:
            if self._sent[mid] < upto:
                cut[mid] = upto
            else:
                cut.pop(mid, None)
        if sizes:
            self.flush_ticks += 1
            if self._trace is not None:
                self._trace("batch_flush", len(sizes), sum(sizes), self.timestamp)
        self._resume()  # one flush ships at most max_batch per backup

    def _next_batch(self, mid: int, upto: int) -> Tuple[int, int]:
        """``(sent, end_ts)``: *mid*'s next batch is the records up to *upto*
        in ``(sent, end_ts]``, if any.  The mark is never below the ack, and
        both count from the trim base for a backup re-added beneath it."""
        sent = max(self._sent[mid], self._base_ts)
        window_end = max(self.acked[mid], self._base_ts) + self._window
        return sent, min(sent + self._max_batch, window_end, upto)

    def _ship_next(self, mid: int, upto: int) -> int:
        """Ship *mid* its next batch of unsent records up to *upto* (what a
        flush was asked for, or a push was offered); returns the count."""
        sent, end_ts = self._next_batch(mid, upto)
        if end_ts <= sent:
            return 0
        if self._sent[mid] == self.acked[mid]:
            self._progress_at[mid] = self._clock()  # nothing was outstanding
        self._sent[mid] = end_ts
        start, end = sent - self._base_ts, end_ts - self._base_ts
        self.msgs_sent += 1
        self.records_sent += end - start
        records = tuple(self._records[start:end])
        nbytes = _TUPLE_BYTES + self._sized[end] - self._sized[start]
        if not sent and mid in self._first:
            first, saved = self._first[mid]
            records, nbytes = (first,) + records[1:], nbytes - saved
        message = BufferMsg(self.viewid, records, self.timestamp)
        message.records_bytes = nbytes
        self._send(mid, message)
        return end - start

    def _resume(self) -> None:
        """Keep the pipeline draining: request the next batch for the backups
        a flush left with requested records unsent inside an open window."""
        if self._cut:  # else no flush was cut short: the common case
            batches = map(self._next_batch, self._cut, self._cut.values())
            unsent = [mid for mid, (sent, end) in zip(self._cut, batches) if end > sent]
            if unsent:
                self._request(unsent)

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
                if acked_ts < self._sent[mid]:
                    self._progress_at[mid] = self._clock()  # of what is still out
                else:
                    self._sent[mid] = acked_ts
        if advanced:
            self._speedy_now = None
            self._resume()  # an advancing ack opens window space
            if self._push_waiting:
                self._push_offered()  # the ack a shut gate was waiting for?
            self._check_forces()
            self._trim()

    # -- internals -----------------------------------------------------------

    def _sub_majority_ts(self) -> int:
        """Highest ts known to at least a sub-majority of backups."""
        needed = self._needed
        if needed <= 0:
            return self.timestamp  # single-cohort group: primary alone suffices
        acks = sorted(self.acked.values())  # keyed by exactly the backups
        return acks[-needed] if len(acks) >= needed else 0

    def _check_forces(self) -> None:
        if not self._pending_forces:
            return
        reached = self._sub_majority_ts()
        still_pending = []
        for force in self._pending_forces:
            if force[0] <= reached:
                force[1].set_result(None)
            else:
                still_pending.append(force)
        self._pending_forces = still_pending

    def _force_deadline(self) -> None:
        """The buffer's one deadline timer: armed by the first pending force,
        it re-arms for the oldest survivor's own due time, so a force costs
        no timer of its own and still fails exactly when it would have."""
        self._deadline_armed = False
        if self.closed or not self._pending_forces:
            return
        wait = self._pending_forces[0][2] - self._clock()
        if wait > 0.0:
            self._deadline_armed = True
            self._set_timer(wait, self._force_deadline)
            return
        self._fail_forces("force timed out; communication with backups lost")
        self._on_force_failure()

    def _fail_forces(self, reason: str) -> None:
        pending, self._pending_forces = self._pending_forces, []
        for _ts, future, _due in pending:
            if not future.done:
                future.set_exception(ForceAbandoned(reason))

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


class HeldRecords:
    """Backup side of send-once: ``BufferMsg`` records of one view that
    overtook an earlier message -- or that view's newview, still being made
    durable -- kept until the gap closes, as the primary will not soon send
    them again.  Bounded: what does not fit waits for the sweep's go-back-N."""

    LIMIT = 1024  # messages; more than a primary's window has put in flight here

    def __init__(self) -> None:
        self.viewid: Optional[ViewId] = None
        self._by_first_ts: Dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self._by_first_ts)

    def hold(self, viewid: ViewId, records: tuple) -> None:
        if viewid != self.viewid:
            self.viewid, self._by_first_ts = viewid, {}
        if len(self._by_first_ts) < self.LIMIT:
            self._by_first_ts[records[0][0]] = records

    def take(self, viewid: ViewId, applied_ts: int) -> tuple:
        """Held records of *viewid* that continue (after a go-back-N resend:
        overlap) the prefix applied up to *applied_ts*; ``()`` while a gap stands."""
        held = self._by_first_ts
        if not held or viewid != self.viewid:
            return ()
        first_ts = applied_ts + 1 if applied_ts + 1 in held else min(held)
        return held.pop(first_ts) if first_ts <= applied_ts + 1 else ()

    def clear(self) -> None:
        self.viewid, self._by_first_ts = None, {}
