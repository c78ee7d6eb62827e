"""The cohort: one replica of a module group (paper Figures 1, 4).

A cohort carries exactly the paper's state:

    status        active | view_manager | underling
    gstate        the group's objects (plus the section-3.3 "compromise"
                  representation: pending completed-call/committing records
                  and the transaction-outcome table)
    up_to_date    whether gstate is meaningful (false after a crash)
    configuration the group's cohorts (stable storage)
    mymid / mygroupid                  (stable storage)
    cur_viewid / cur_view / history / max_viewid
    timestamp     the timestamp generator (lives in the buffer)
    buffer        the communication buffer (primary role only)

Role behaviour is delegated: :class:`~repro.core.server_role.ServerRole`
(Figure 3), :class:`~repro.core.client_role.ClientRole` (Figure 2),
:class:`~repro.core.view_change.ViewChangeController` (Figure 5), and
section 4's "I'm alive" messages to :class:`~repro.detect.liveness.Liveness`.
This module owns message dispatch, backup event-record application and
query answering (section 3.4).

Everything beyond the paper, and section 4.1's unilateral view edits and
section 4.2's stable-storage hardening, is an extension object
(:mod:`repro.core.extension`); this module never tests for one, and reads
no section-4.1 switch.  What a liveness sweep finds calls for nothing, a
view edit or a view change: that verdict, and section 4.1's ordered
managers, belong to the view-change controller.
"""

from __future__ import annotations

import enum
from dataclasses import replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.config import IM_ALIVE_INTERVAL, ProtocolConfig
from repro.core import messages as m
from repro.core.buffer import CommunicationBuffer, HeldRecords
from repro.core.cache import ClientCache
from repro.core.calls import RemoteCaller, Sender
from repro.core.events import (
    Aborted,
    Committed,
    Committing,
    CompletedCall,
    Done,
    EventRecord,
    NewView,
    ViewEdit,
)
from repro.core.extension import build_extensions
from repro.core.quorum import Quorums
from repro.core.view import View
from repro.core.viewstamp import History, ViewId, Viewstamp
from repro.detect import AdaptiveTimeouts, RttEstimator
from repro.sim.future import Future
from repro.sim.node import Actor, Node
from repro.storage.stable import StableStore
from repro.txn.ids import Aid, OutcomeTable
from repro.txn.locks import LockManager
from repro.txn.objects import ObjectStore


class Status(enum.Enum):
    """Figure 1: ``status = oneof[active, view_manager, underling]``."""

    ACTIVE = "active"
    VIEW_MANAGER = "view_manager"
    UNDERLING = "underling"


class Cohort(Actor):
    """One replica of a module group."""

    def __init__(
        self,
        node: Node,
        runtime,
        groupid: str,
        mid: int,
        configuration: Tuple[Tuple[int, str], ...],  # (mid, address) pairs
        quorums: Quorums,
        spec,
        initial_image: Mapping[str, Tuple[Any, int]],  # the group's, shared
        config: ProtocolConfig,
        initial_viewid: ViewId,
        initial_view: View,
    ):
        self._addresses: Dict[int, str] = dict(configuration)
        super().__init__(node, self._addresses[mid])
        self.runtime = runtime
        self.config = config
        self.metrics = runtime.metrics
        self.tracer = runtime.tracer
        self.spec = spec

        # -- stable state (written at creation, survives crashes) --
        self.mygroupid = groupid
        self.mymid = mid
        self.configuration = tuple(configuration)
        self.quorums = quorums  # the group's, shared by every cohort
        self.stable = StableStore(node, write_latency=config.stable_write_latency)
        self.stable.write_immediate("mymid", mid)
        self.stable.write_immediate("mygroupid", groupid)
        self.stable.write_immediate("configuration", self.configuration)
        self.stable.write_immediate("cur_viewid", initial_viewid)

        # -- volatile state --
        self.status = Status.ACTIVE
        self.buffer: Optional[CommunicationBuffer] = None
        self.held = HeldRecords()  # backup: records that arrived ahead of a gap
        # What every cohort starts with and every recovery restores; the
        # store holds only the entries that differ from it (DESIGN.md D26).
        self._initial_image = initial_image
        self._start_volatile(initial_viewid, initial_view)

        # -- roles and liveness (imported lazily to avoid cycles) --
        from repro.core.client_role import ClientRole
        from repro.core.coordinator_server import CoordinatorServerRole
        from repro.core.server_role import ServerRole
        from repro.core.view_change import ViewChangeController
        from repro.detect.liveness import Liveness

        self.server_role = ServerRole(self)
        self.client_role = ClientRole(self)
        self.coordinator_role = CoordinatorServerRole(self)
        self.view_change = ViewChangeController(self)
        self.liveness = Liveness(self)  # before the extensions that wrap it
        # -- extensions: what the config arms beyond the paper; () by default --
        self.buffer_options: Dict[str, Any] = {"send": self.liveness.send_traffic}
        self.extensions = build_extensions(self)
        self._wire_handlers()

        self.rtt = RttEstimator()  # fed by call round trips (RemoteCaller)
        self.timeouts = AdaptiveTimeouts(config, self.rtt)
        self._epoch = 0  # bumped on every status transition; guards timers

        runtime.network.register(self)
        if self.is_primary:
            self._open_buffer()
            if self.tracer is not None:
                # The constructor never goes through activate_as_primary,
                # so the initial view's activation is emitted here.
                self.emit(
                    "primary_activated", self.cur_viewid, sorted(self.cur_view.members)
                )
        self.liveness.start()
        if self.is_primary:
            self._start_flush_loop()
            self.server_role.on_become_primary()
            self.client_role.on_become_primary()

    def _start_volatile(self, viewid: ViewId, view: Optional[View]) -> None:
        """Figure 4's volatile state as a process starts it: in *viewid*, up
        to date only when it knows its *view* (at creation, not after a
        crash), holding the group's initial objects and nothing else."""
        self.up_to_date = view is not None
        self.cur_viewid = self.max_viewid = viewid
        self.cur_view = view
        self.history = History([Viewstamp(viewid, 0)])
        self.applied_ts = 0  # backup: highest contiguously applied ts
        self.store = ObjectStore(self._initial_image)
        self.lockmgr = LockManager(self.store)
        self.pending: Dict[Aid, Dict[Viewstamp, CompletedCall]] = {}
        self.outcomes = OutcomeTable()  # aid -> outcome
        self.committing: Dict[Aid, Tuple[Tuple[str, ...], Tuple]] = {}
        # Since when the image's and the outcome table's written-since sets
        # run: ``(V, 1)`` of the view last activated or installed (D25).
        self._written_since: Optional[Viewstamp] = None
        self.cache = ClientCache(self.runtime.location)
        self.sender = Sender(self)
        self.caller = RemoteCaller(self)

    # ------------------------------------------------------------------
    # identity helpers
    # ------------------------------------------------------------------

    @property
    def is_primary(self) -> bool:
        return self.cur_view is not None and self.cur_view.primary == self.mymid

    @property
    def is_active_primary(self) -> bool:
        return self.status is Status.ACTIVE and self.is_primary

    def is_backup_in(self, viewid: ViewId) -> bool:
        """Active, in view *viewid*, and not its primary."""
        return (
            self.status is Status.ACTIVE
            and viewid == self.cur_viewid
            and not self.is_primary
        )

    @property
    def config_size(self) -> int:
        return len(self.configuration)

    def peer_address(self, mid: int) -> str:
        return self._addresses[mid]

    def send(self, destination: str, message) -> None:
        self.runtime.network.send(self.address, destination, message)

    def send_mid(self, mid: int, message) -> None:
        self.send(self.peer_address(mid), message)

    def locate(self, groupid: str):
        """(mid, address) pairs for a group -- via the location service."""
        return self.runtime.location.lookup(groupid)

    def emit(self, kind: str, *values) -> None:
        """Trace one event of this cohort; a no-op when tracing is off.

        Its row is (group, mid, *values*): *values* are the kind's remaining
        ``EVENT_FIELDS``, in order and unrendered."""
        tracer = self.tracer
        if tracer is not None:
            tracer.emit_row(
                kind, self.node.node_id, (), (self.mygroupid, self.mymid, *values)
            )

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------

    def _wire_handlers(self) -> None:
        """Build the dispatch tables: exact ``type(message)`` -> bound handler.

        Rebuilt on recovery, which replaces ``caller``.  A message type in
        neither table is a wiring error (``tests/core/test_dispatch_table``
        holds every concrete message class to exactly one of them).  Each
        extension then adds or wraps rows, innermost first."""
        caller, sender, view_change = self.caller, self.sender, self.view_change
        server, client = self.server_role, self.client_role
        coordinator = self.coordinator_role
        # Handled in every status (section 3.4: queries "can be answered by
        # any cohort that knows the answer"; probes likewise), and replies
        # to calls we originated, consumed in any active state.
        self._any_status = {
            m.QueryMsg: self._handle_query,
            m.ViewProbeMsg: self._handle_view_probe,
            m.ImAliveMsg: self.liveness.on_im_alive,
            m.InviteMsg: view_change.on_invite,
            m.AcceptMsg: view_change.on_accept,
            m.InitViewMsg: view_change.on_init_view,
            m.BufferMsg: self._handle_buffer_msg,
            m.BufferAckMsg: self._handle_buffer_ack,
            m.ReadMsg: self._handle_read,
            m.ReplyMsg: caller.on_reply,
            m.CallFailedMsg: caller.on_call_failed,
            m.ViewChangedMsg: self._handle_view_changed,
            m.ViewProbeReplyMsg: sender.on_probe_reply,
            m.QueryReplyMsg: server.on_query_reply,
        }
        # Everything else requires being the active primary (section 3.3:
        # "cohorts that are not active primaries reject messages sent to
        # them by other module groups").
        self._primary_only = {
            m.CallMsg: server.on_call,
            m.PrepareMsg: server.on_prepare,
            m.CommitMsg: server.on_commit,
            m.AbortMsg: server.on_abort,
            m.SubactionAbortMsg: server.on_subaction_abort,
            m.PrepareOkMsg: client.on_prepare_ok,
            m.PrepareRefusedMsg: client.on_prepare_refused,
            m.CommitAckMsg: client.on_commit_ack,
            m.TxnRequestMsg: client.on_txn_request,
            m.BeginTxnMsg: coordinator.on_begin,
            m.FinishTxnMsg: coordinator.on_finish,
            m.ClientProbeReplyMsg: coordinator.on_probe_reply,
        }
        for extension in self.extensions:
            extension.wire(self._any_status, self._primary_only)

    def handle_message(self, message, source: str) -> None:
        cls = type(message)
        handler = self._any_status.get(cls)
        if handler is None:
            handler = self._primary_only.get(cls)
            if handler is None:
                # A subclass dispatches as its nearest wired base, found once.
                for base in cls.__mro__[1:]:
                    for table in (self._any_status, self._primary_only):
                        if base in table:
                            table[cls] = table[base]
                            return self.handle_message(message, source)
                raise NotImplementedError(f"unhandled message {message!r}")
            if not self.is_active_primary:
                self._reject(message, source)
                return
        handler(message)

    def _handle_view_changed(self, message: m.ViewChangedMsg) -> None:
        self.caller.on_view_changed(message)
        self.client_role.on_view_changed(message)

    def _handle_buffer_ack(self, message: m.BufferAckMsg) -> None:
        self.liveness.heard_traffic(message.mid, message.sent_at)
        if self.is_active_primary and self.buffer is not None:
            self.buffer.on_ack(message)

    def _reject(self, message, source: str) -> None:
        """Reject with current view info if we know it (section 3.3)."""
        call_id = getattr(message, "call_id", None)
        aid = getattr(message, "aid", None)
        reply_to = getattr(message, "reply_to", None) or getattr(
            message, "coordinator", None
        ) or source
        if isinstance(
            message,
            (m.CallMsg, m.PrepareMsg, m.CommitMsg, m.TxnRequestMsg),
        ):
            viewid, view = (None, None)
            if self.status is Status.ACTIVE:
                viewid, view = self.cur_viewid, self.cur_view
            self.send(
                reply_to,
                m.ViewChangedMsg(
                    call_id=call_id,
                    viewid=viewid,
                    view=view,
                    aid=aid,
                    groupid=self.mygroupid,
                ),
            )

    # ------------------------------------------------------------------
    # event records: primary-side add, backup-side apply
    # ------------------------------------------------------------------

    def add_record(self, record: EventRecord) -> Viewstamp:
        """Primary: buffer.add + history advance + local bookkeeping."""
        assert self.is_active_primary and self.buffer is not None
        viewstamp = self.buffer.add(record)
        self.history.advance(viewstamp.id, viewstamp.ts)
        self._record_bookkeeping(viewstamp, record, at_backup=False)
        if self.tracer is not None:
            self._trace_record_added(viewstamp.id, viewstamp.ts, record, "primary")
        return viewstamp

    def force_to(self, viewstamp: Optional[Viewstamp]) -> Future:
        assert self.is_active_primary and self.buffer is not None
        return self.buffer.force_to(viewstamp)

    def force_all(self) -> Future:
        """Force the entire buffer (Figure 2's coordinator step 2)."""
        assert self.buffer is not None
        return self.force_to(Viewstamp(self.cur_viewid, self.buffer.timestamp))

    def _record_bookkeeping(
        self, viewstamp: Viewstamp, record: EventRecord, at_backup: bool
    ) -> None:
        """State updates shared by primary add and backup apply."""
        if isinstance(record, CompletedCall):
            self.pending.setdefault(record.aid, {})[viewstamp] = record
        elif isinstance(record, Committing):
            self.committing[record.aid] = (record.plist, record.pset_pairs)
        elif isinstance(record, Committed):
            self.outcomes[record.aid] = "committed"
            if at_backup:
                self._backup_install(record)
                self.server_role.on_backup_commit(record)
            self.pending.pop(record.aid, None)
            self.server_role.executed.pop(record.aid, None)
        elif isinstance(record, Aborted):
            self.outcomes[record.aid] = "aborted"
            self.pending.pop(record.aid, None)
            self.server_role.executed.pop(record.aid, None)
            self.committing.pop(record.aid, None)
        elif isinstance(record, Done):
            self.committing.pop(record.aid, None)
        elif isinstance(record, ViewEdit):
            self.cur_view = View(primary=self.cur_view.primary, backups=record.backups)
        elif isinstance(record, NewView):
            # At the primary the record *is* a snapshot of current state, so
            # adding it is a no-op here; at a backup the view-change
            # controller installs it before ordinary application begins, and
            # retransmissions are filtered by applied_ts.
            if at_backup:
                raise AssertionError("newview records are installed, not applied")

    def _backup_install(self, record: Committed) -> None:
        """Apply a commit at a backup: install tentative versions from the
        stored completed-call records (section 3.3's compromise: records are
        stored until the commit/abort arrives, then performed)."""
        allowed = {
            pair.vs for pair in record.pset_pairs if pair.groupid == self.mygroupid
        }
        self.store.install_calls(self.pending.get(record.aid, {}), allowed)

    # ------------------------------------------------------------------
    # backup: buffer application
    # ------------------------------------------------------------------

    def _handle_buffer_msg(self, msg: m.BufferMsg) -> None:
        if self.status is Status.UNDERLING:
            self.view_change.on_buffer_while_underling(msg)
            return
        if self.status is not Status.ACTIVE:
            return
        if msg.viewid != self.cur_viewid or self.is_primary:
            return  # stale primary's traffic, or ours echoed back
        self.liveness.heard_traffic(self.cur_view.primary, msg.sent_at)
        self._apply_buffer_records(msg.records)
        self.acknowledge()

    def _apply_buffer_records(self, records) -> None:
        # Pairs are contiguous in ts (the buffer ships a slice), so a
        # retransmitted prefix is skipped by index rather than pair by pair.
        while records:
            skip = self.applied_ts + 1 - records[0][0]
            if skip < 0:
                # Overtook an earlier message, which is sent only once: hold
                # these until the gap closes instead of waiting for a resend.
                self.held.hold(self.cur_viewid, records)
                return
            for ts, record in records[skip:]:
                self.applied_ts = ts
                viewstamp = Viewstamp(self.cur_viewid, ts)
                self.history.advance(self.cur_viewid, ts)
                self._record_bookkeeping(viewstamp, record, at_backup=True)
                if self.tracer is not None:
                    self._trace_record_added(self.cur_viewid, ts, record, "backup")
            records = self.held.take(self.cur_viewid, self.applied_ts)

    def _trace_record_added(self, viewid, ts: int, record, role: str) -> None:
        """Armed path only, once per record per cohort."""
        self.tracer.emit_row(
            "record_added",
            self.node.node_id,
            (),
            (self.mygroupid, self.mymid, viewid, ts, type(record).__name__, role),
        )

    def ack_now(self) -> None:
        destination, ack = self.build_buffer_ack()
        self.liveness.send_traffic(destination, ack)

    #: *when* a backup acknowledges applied records: every BufferMsg
    #: individually, at once (the paper's implicit scheme)
    acknowledge = ack_now

    def build_buffer_ack(self) -> Tuple[int, m.BufferAckMsg]:
        """Where the cumulative ack goes, and the ack."""
        return self.cur_view.primary, m.BufferAckMsg(
            viewid=self.cur_viewid, acked_ts=self.applied_ts, mid=self.mymid
        )

    # ------------------------------------------------------------------
    # queries (section 3.4)
    # ------------------------------------------------------------------

    def _handle_query(self, msg: m.QueryMsg) -> None:
        outcome, pset_pairs = self.query_outcome(msg.aid)
        if outcome == "unknown":
            return  # stay silent; another cohort may know
        if outcome == "active":
            # Section 3.5: before letting a transaction look alive forever,
            # the coordinator-server checks that its client still is.
            self.coordinator_role.on_query_for_active(msg.aid)
        self.send(
            msg.reply_to,
            m.QueryReplyMsg(aid=msg.aid, outcome=outcome, pset_pairs=pset_pairs),
        )

    def query_outcome(self, aid: Aid) -> Tuple[str, Tuple]:
        """What this cohort knows about *aid* (committed/aborted/active/unknown).

        Safety notes (see DESIGN.md): "committed" is answered only from the
        outcomes table -- never from a raw committing record at a backup,
        because that record may not yet be known to a majority.  The
        "aborted" inference for a transaction born in an older view of our
        own group is sound because a committing record forced in that view
        is guaranteed to survive into our current state -- and, for one a
        sole participant decides (D17), because only it asks, while
        undecided, and its abort on this answer makes the answer true.
        """
        known = self.outcomes.get(aid)
        if known is not None:
            pairs: Tuple = ()
            if known == "committed" and aid in self.committing:
                pairs = self.committing[aid][1]
            return known, pairs
        if aid.groupid == self.mygroupid and self.status is Status.ACTIVE:
            if aid in self.committing:
                return "unknown", ()  # decision pending / being resumed
            if not self.is_primary:
                # Only the primary may make the inferences below: a backup
                # cannot see an in-flight (re-)coordination of this aid at
                # the primary, so its "aborted" inference could contradict a
                # commit the primary is about to make.
                return "unknown", ()
            if self.client_role.is_running(aid) or self.coordinator_role.is_active(aid):
                return "active", ()
            if aid.viewid < self.cur_viewid:
                # Born in an older view of our group with no surviving
                # committing record: it can never commit (the force that
                # precedes commit messages guarantees survival).
                return "aborted", ()
            if aid.viewid == self.cur_viewid and self.client_role.knows(aid):
                return "aborted", ()  # ran here and is gone -> it aborted
        return "unknown", ()

    def _handle_view_probe(self, msg: m.ViewProbeMsg) -> None:
        active = self.status is Status.ACTIVE
        self.send(
            msg.reply_to,
            m.ViewProbeReplyMsg(
                groupid=self.mygroupid,
                viewid=self.cur_viewid if active else None,
                view=self.cur_view if active else None,
                active=active,
            ),
        )

    def _handle_read(self, msg: m.ReadMsg) -> None:
        """Section 3.7 prices a read as a call: a cohort with no serving
        path of its own says so, and the driver falls back to one."""
        self.refuse_read(msg, m.READ_PATH_ABSENT)

    def refuse_read(self, msg: m.ReadMsg, reason: str, **extra) -> None:
        """Reject with current view info if we know it (as ``_reject``)."""
        viewid, view = (None, None)
        if self.status is Status.ACTIVE and self.up_to_date:
            viewid, view = self.cur_viewid, self.cur_view
        self.send(
            msg.reply_to,
            m.ReadRejectMsg(
                request_id=msg.request_id,
                reason=reason,
                groupid=self.mygroupid,
                viewid=viewid,
                view=view,
                **extra,
            ),
        )

    # ------------------------------------------------------------------
    # status transitions (used by the view-change controller)
    # ------------------------------------------------------------------

    def note_change_needed(self) -> None:
        """Internal failure signal (e.g. an abandoned force)."""
        if self.status is Status.ACTIVE:
            self.view_change.become_manager()

    def leave_active(self) -> None:
        """Stop transaction processing; abandon the buffer and calls."""
        self._epoch += 1
        for extension in self.extensions:
            extension.on_leave_active()
        if self.buffer is not None:
            self.buffer.close()
        self.held.clear()
        self.caller.abandon_all()
        self.server_role.on_leave_active()
        self.client_role.on_leave_active()
        self.coordinator_role.on_leave_active()

    def _open_buffer(self) -> None:
        self.buffer = CommunicationBuffer(
            viewid=self.cur_viewid,
            backups=self.quorums.storage(self.cur_view.backups),
            configuration_size=self.config_size,
            set_timer=self.set_timer,
            on_force_failure=self.note_change_needed,
            force_timeout=self.config.force_timeout,
            flush_interval=self.config.flush_interval,
            clock=self.liveness.detect.clock,
            rto=self.liveness.detect.rto,
            join_delay=self.config.stable_write_latency,
            **self.buffer_options,  # send=, max_batch= and what extensions arm
        )

    def _start_flush_loop(self) -> None:
        self.set_timer(self.config.flush_interval, self._flush_tick, self._epoch)

    def _flush_tick(self, epoch: int) -> None:
        if self._epoch != epoch or not self.is_active_primary:
            return
        if self.buffer is not None:
            self.buffer.flush()
        self._start_flush_loop()

    def activate_as_primary(self, viewid: ViewId, view: View, reported=()) -> None:
        """Complete ``start_view`` (Figure 5) once cur_viewid is stable.

        The caller (view-change controller) has already set cur_view,
        cur_viewid, opened the history entry and persisted the viewid.
        *reported* is the init-view's ``viewstamps``.
        """
        self._epoch += 1
        self.status = Status.ACTIVE
        self.up_to_date = True
        self.applied_ts = 0
        if self.tracer is not None:
            # Emitted before the newview record is added so the
            # single-primary monitor sees the activation even if the
            # history rejects the record (the very bug it exists to catch).
            self.emit("primary_activated", viewid, sorted(view.members))
        self._open_buffer()
        newview, diffs = self._newview(view, reported)
        self._written_since = Viewstamp(viewid, 1)
        self.add_record(newview)
        for mid, record in diffs.items():
            self.buffer.tailor(mid, record)
        self.lockmgr.rematerialize(self.pending)
        self.server_role.on_become_primary()
        self.client_role.on_become_primary()
        self._start_flush_loop()
        self.buffer.flush()
        for extension in self.extensions:
            extension.on_become_primary()
        self.metrics.incr(f"views_started:{self.mygroupid}")
        self.runtime.ledger.record_view_change(self.mygroupid, viewid, self.mymid)
        if self.tracer is not None:
            self.tracer.emit_row(
                "view_started", self.node.node_id, (), (self.mygroupid, viewid, self.mymid)
            )

    def _newview(self, view: View, reported) -> Tuple[NewView, Dict[int, NewView]]:
        """Figure 5's newview record, and the record each backup in
        *reported* (``(mid, viewstamp)`` pairs) gets instead when this cohort
        knows its viewstamp and has tracked writes since before it: the same
        record with that ``base``, its image and outcome table cut to the
        entries written since ``_written_since`` (DESIGN.md D25).  Either
        record's image holds only entries that differ from the group's
        initial objects, which every receiver holds already (D26), and its
        outcome table is runs of ``seq`` (D27)."""
        # Read before the sizing below starts the written-since sets over.
        written = self.store.written(), self.outcomes.written()
        full = self.gstate_record(view)
        full.with_sizes(self.store.wire_size())
        self.outcomes.wire_size()  # only to start its written() over
        diffs: Dict[int, NewView] = {}
        since = self._written_since  # None: the tables are not tracked
        if since is not None:
            objects = {uid: full.objects[uid] for uid in written[0]}
            for mid, viewstamp in reported:
                if viewstamp >= since and self.history.knows(viewstamp):
                    diffs[mid] = replace(full, objects=objects, outcomes=written[1], base=viewstamp)
        return full, diffs

    def gstate_record(self, view: Optional[View]) -> NewView:
        """This cohort's history and gstate as the full newview record of
        *view*: what a new primary sends and what a stable-storage policy
        writes (section 4.2).  Pending records are in a canonical order."""
        pending = tuple(
            (viewstamp, record)
            for aid in sorted(self.pending)
            for viewstamp, record in sorted(self.pending[aid].items())
        )
        return NewView(
            view, self.history.entries(), self.store.snapshot(), pending,
            self.outcomes.wire(), dict(self.committing),
        )

    def install_newview(self, viewid: ViewId, records) -> None:
        """Underling: initialize state from the newview record heading
        *records* (Figure 5), then apply their tail and what was held."""
        record: NewView = records[0][1]
        assert record.base in (None, self.history.latest), (self.history.latest, record.base)
        self._epoch += 1
        self.cur_viewid = viewid
        self.cur_view = record.view
        self.applied_ts = 1
        self.install_gstate(record)
        self.history.advance(viewid, 1)  # the newview record itself is ts=1
        self._written_since = Viewstamp(viewid, 1)
        self.up_to_date = True
        self.status = Status.ACTIVE
        self.buffer = None
        for extension in self.extensions:
            extension.on_install()
        self.emit("newview_installed", viewid)
        self._apply_buffer_records(records)  # ts 1 is skipped as applied
        self.acknowledge()
        self.metrics.incr(f"views_joined:{self.mygroupid}")

    def install_gstate(self, record: NewView) -> None:
        """Take the history and gstate of *record*: a newview, or the image
        recovery reads from stable storage.  A record with a ``base`` is
        written over the state that base names (DESIGN.md D25).  A full
        record's image replaces this cohort's written entries, so what it
        wrote that the record lacks reads as the initial objects (D26)."""
        self.history = History(record.history_entries)
        self.lockmgr.reset()
        self.pending = {}
        for viewstamp, call_record in record.pending:
            self.pending.setdefault(call_record.aid, {})[viewstamp] = call_record
        self.committing = dict(record.committing)
        if record.base is None:
            self.store.restore(record.objects, record.objects_bytes)
            self.outcomes = OutcomeTable()
        else:
            self.store.patch(record.objects)
        self.outcomes.patch(record.outcomes)

    # ------------------------------------------------------------------
    # crash / recovery (sections 1, 4)
    # ------------------------------------------------------------------

    def on_crash(self) -> None:
        self._epoch += 1
        self.status = Status.UNDERLING  # placeholder; node is down anyway
        self.up_to_date = False
        self.held.clear()
        if self.buffer is not None:
            self.buffer.close()
            self.buffer = None

    def on_recover(self) -> None:
        """Section 4: initialize up_to_date false, max_viewid from stable
        storage, then run a view change as manager.  The gstate restarts
        from the group's initial objects, unless a stable-storage policy
        installs the image it kept (its extension's ``reset``)."""
        self._epoch += 1
        self._start_volatile(self.stable.read("cur_viewid"), None)
        self._wire_handlers()
        self.rtt.reset()  # call round-trip history died with the process
        for extension in self.extensions:
            extension.reset()
        self.server_role.reset()
        self.client_role.reset()
        self.coordinator_role.reset()
        self.liveness.start()  # ages out what the downtime made stale
        self.view_change.reset()
        self.set_timer(IM_ALIVE_INTERVAL, self.view_change.become_manager)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cohort({self.address}, {self.status.value}, view={self.cur_viewid}, "
            f"primary={self.is_primary})"
        )
