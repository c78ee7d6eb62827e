"""Server-side transaction processing (paper Figure 3, sections 3.2-3.4).

At the active primary of a server group:

- **calls** run as processes (they may block on locks and make nested
  calls); completion adds a completed-call record to the buffer and returns
  the reply with the call's pset pairs;
- **prepare** checks ``compatible(pset, mygroupid, history)``, forces
  ``vs_max(pset, mygroupid)``, releases read locks, and accepts or refuses
  and aborts.  Read-only participants, and one the pset names alone, commit
  then and there and accept ``committed`` (D15, D17);
- **commit** installs tentative versions, adds and forces a committed
  record, then acknowledges (a re-sent commit, too, only after the force);
- **abort** discards locks and versions and adds an aborted record;
- a **janitor** periodically queries coordinators about transactions whose
  outcome never arrived (section 3.4) and unilaterally aborts *unprepared*
  transactions whose coordinator is unreachable (a participant that has not
  voted may always abort).  A transaction *inherited* through a view change
  is queried at once and never aborted that way: the old primary may have
  voted for it.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Callable, Dict, Optional, Set, Tuple

from repro.app.context import CallContext, TransactionAborted
from repro.config import QUERY_INTERVAL
from repro.core import messages as m
from repro.core.calls import CallAborted
from repro.core.events import Aborted, Committed, CompletedCall
from repro.core.viewstamp import Viewstamp, compatible, vs_max
from repro.sim.future import Future
from repro.sim.errors import CancelledError
from repro.txn.ids import Aid, CallId
from repro.txn.pset import PSetPair


@dataclasses.dataclass
class _PreparedState:
    coordinator: str
    pset_pairs: Tuple
    queries_sent: int = 0


class ServerRole:
    """Figure 3 behaviour, hosted by a cohort."""

    def __init__(self, cohort):
        self.cohort = cohort
        # Figure 3's reply cache, per aid until its outcome is booked
        # (Cohort._record_bookkeeping drops it): after that a duplicate call
        # is answered from the outcome table instead.
        self.executed: Dict[Aid, Dict[CallId, m.ReplyMsg]] = {}
        self.in_progress: Set[CallId] = set()
        self.known_stale_calls: Set[CallId] = set()  # ran before a view change
        self.prepared: Dict[Aid, _PreparedState] = {}
        self._unprepared_queries: Dict[Aid, int] = {}
        self._inherited: Set[Aid] = set()  # pending when this view began
        self._commit_forces: Dict[Aid, Future] = {}  # until each resolves
        # Backup: applied sole-participant commits the primary may not report.
        self._sole_commits: Set[Aid] = set()
        # Calls the most recently prepared transaction made here: a
        # transaction's earlier calls are not worth a push of their own.
        self._calls_per_txn = 0
        self._call_procs: list = []
        self._janitor_timer = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def reset(self) -> None:
        self.executed.clear()
        self.in_progress.clear()
        self.known_stale_calls.clear()
        self.prepared.clear()
        self._unprepared_queries.clear()
        self._inherited.clear()
        self._commit_forces.clear()
        self._sole_commits.clear()
        self._calls_per_txn = 0
        self._call_procs = []
        self._janitor_timer = None

    def on_leave_active(self) -> None:
        for process in self._call_procs:
            if not process.done:
                process.interrupt()
        self._call_procs = []
        self.in_progress.clear()
        self.executed.clear()
        self.prepared.clear()
        self._unprepared_queries.clear()
        self._commit_forces.clear()
        if self._janitor_timer is not None:
            self._janitor_timer.cancel()
            self._janitor_timer = None

    def on_become_primary(self) -> None:
        """Rebuild duplicate-detection state from surviving records and
        start the outcome janitor, which asks about every transaction whose
        records (and so locks) this view inherited, and reports inherited
        sole-participant commits as ``ClientRole._resume_commit`` does."""
        cohort = self.cohort
        pending = cohort.pending
        self.known_stale_calls = {
            record.call_id for calls in pending.values() for record in calls.values()
        }
        self._inherited = set(pending)
        self._unprepared_queries.update(dict.fromkeys(pending, 0))
        inherited = sorted(
            aid for aid in self._sole_commits if cohort.outcomes.get(aid) == "committed"
        )
        if inherited:
            self._when_durable(None, self._report_inherited, inherited)
        self._arm_janitor()

    def _report_inherited(self, aids) -> None:
        for aid in aids:
            self.cohort.runtime.ledger.record_commit(aid)
        self._sole_commits.difference_update(aids)

    def on_backup_commit(self, record: Committed) -> None:
        if self._names_only_us(record.pset_pairs):
            self._sole_commits.add(record.aid)

    def _names_only_us(self, pset_pairs) -> bool:
        mygroupid = self.cohort.mygroupid
        return all(pair.groupid == mygroupid for pair in pset_pairs)

    def _when_durable(self, aid: Optional[Aid], then: Callable, *args) -> None:
        """``then(*args)`` once *aid*'s committed record is majority-known in
        this view: after its pending force, else (inherited, or already
        forced; *aid* None: every inherited one) the view's first; never after
        an abandoned one."""
        cohort = self.cohort
        force = self._commit_forces.get(aid) if aid is not None else None
        if force is None:
            force = cohort.force_to(Viewstamp(cohort.cur_viewid, 1))
        epoch = cohort._epoch

        def after_force(future) -> None:
            if future.exception() is None and cohort._epoch == epoch and cohort.is_active_primary:
                then(*args)

        force.add_done_callback(after_force)

    def _arm_janitor(self) -> None:
        cohort = self.cohort
        self._janitor_timer = cohort.set_timer(
            QUERY_INTERVAL, self._janitor_tick, cohort._epoch
        )

    def _janitor_tick(self, epoch: int) -> None:
        # A bound method with the epoch as its argument, never a closure that
        # re-arms itself by name: that is a cycle only the collector frees
        # (tests/sim/test_acyclic_steady_state.py).
        cohort = self.cohort
        if cohort._epoch != epoch or not cohort.is_active_primary:
            return
        self._janitor_sweep()
        self._arm_janitor()

    # ------------------------------------------------------------------
    # calls (Figure 3: "processing a call")
    # ------------------------------------------------------------------

    def on_call(self, msg: m.CallMsg) -> None:
        cohort = self.cohort
        if msg.viewid != cohort.cur_viewid:
            cohort.send(
                msg.reply_to,
                m.ViewChangedMsg(
                    call_id=msg.call_id,
                    viewid=cohort.cur_viewid,
                    view=cohort.cur_view,
                    groupid=cohort.mygroupid,
                ),
            )
            return
        replies = self.executed.get(msg.aid)
        if replies is not None and msg.call_id in replies:
            cohort.send(msg.reply_to, replies[msg.call_id])  # lost-reply probe: re-send
            return
        if msg.call_id in self.in_progress:
            return  # reply will go out when the first delivery finishes
        if msg.call_id in self.known_stale_calls:
            # The call ran before a view change and its result is gone; the
            # client must abort ("to resolve this uncertainty, we abort").
            cohort.send(
                msg.reply_to,
                m.CallFailedMsg(call_id=msg.call_id, reason="duplicate across view change"),
            )
            return
        outcome = cohort.outcomes.get(msg.aid)
        if outcome is not None:
            cohort.send(
                msg.reply_to,
                m.CallFailedMsg(
                    call_id=msg.call_id, reason=f"transaction already {outcome}"
                ),
            )
            return
        for subaction in msg.aborted_subactions:
            # Drop orphaned predecessors' effects before running (3.6):
            # a retried call must not observe its aborted attempt's state.
            self.on_subaction_abort(
                m.SubactionAbortMsg(aid=msg.aid, subaction=subaction)
            )
        self.in_progress.add(msg.call_id)
        process = cohort.spawn(self._run_call(msg), name=("call:", msg.call_id))
        self._call_procs.append(process)
        if len(self._call_procs) > 32:
            self._call_procs = [p for p in self._call_procs if not p.done]

    def _run_call(self, msg: m.CallMsg):
        cohort = self.cohort
        ctx = CallContext(cohort, msg.aid, msg.call_id)
        try:
            procedure = cohort.spec.procedure_named(msg.proc)
            generated = procedure(ctx, *msg.args)
            if inspect.isgenerator(generated):
                result = yield from generated
            else:
                result = generated
        except (TransactionAborted, CallAborted) as error:
            self._fail_call(msg, str(error))
            return
        except CancelledError:
            self.in_progress.discard(msg.call_id)
            return  # view change interrupted us; no reply
        except Exception as error:
            # A buggy module procedure (TypeError, KeyError, ...) must not
            # wedge the group: without this, the call process dies holding
            # its locks and never replies, so the coordinator times out
            # while every later transaction on those objects queues behind
            # a dead lock.  Fail the call like an abort instead.
            self._fail_call(msg, f"{type(error).__name__}: {error}")
            return
        self.in_progress.discard(msg.call_id)
        if not cohort.is_active_primary:
            return
        outcome = cohort.outcomes.get(msg.aid)
        if outcome is not None:
            # Decided while the call ran: answer as on_call does.  A record
            # would re-open the transaction and hold the call's locks.
            self._fail_call(msg, f"transaction already {outcome}")
            return
        record = CompletedCall(
            aid=msg.aid, call_id=msg.call_id, effects=ctx.effects()
        )
        viewstamp = cohort.add_record(record)
        if len(cohort.pending[msg.aid]) >= self._calls_per_txn:
            # Likely the transaction's last call here: deliver it (and the
            # earlier ones) in the background, ahead of the prepare's force.
            cohort.buffer.push()
        if cohort.config.force_on_call:
            # Ablation (section 6): forcing completed-call records before
            # the reply removes view-change aborts but slows every call.
            try:
                yield cohort.force_to(viewstamp)
            except Exception:
                return  # force abandoned; view change in progress
            if not cohort.is_active_primary:
                return
        self._unprepared_queries.setdefault(msg.aid, 0)
        pairs = (PSetPair(cohort.mygroupid, viewstamp),) + ctx.nested_pset_pairs()
        reply = m.ReplyMsg(
            call_id=msg.call_id, result=result, pset_pairs=pairs, piggyback=None
        )
        if msg.aid not in cohort.outcomes:  # decided during the force: no re-ask
            self.executed.setdefault(msg.aid, {})[msg.call_id] = reply
        cohort.send(msg.reply_to, reply)
        cohort.metrics.incr(f"calls_completed:{cohort.mygroupid}")

    def _fail_call(self, msg: m.CallMsg, reason: str) -> None:
        """Release a failed call's footprint and tell the caller."""
        cohort = self.cohort
        self.in_progress.discard(msg.call_id)
        cohort.lockmgr.cancel_waits(msg.aid)
        if msg.aid in cohort.pending:
            # Other calls of this transaction completed here: keep their
            # locks, drop only the failed attempt's tentative writes.
            # The coordinator's abort message cleans up the rest.
            cohort.lockmgr.discard_subaction(msg.aid, msg.call_id.subaction)
        else:
            # No other footprint at this group: release everything the
            # failed call acquired (the coordinator will not send us an
            # abort -- we are not in its pset).
            cohort.lockmgr.discard(msg.aid)
        if cohort.is_active_primary:
            cohort.send(
                msg.reply_to,
                m.CallFailedMsg(call_id=msg.call_id, reason=reason),
            )

    # ------------------------------------------------------------------
    # prepare (Figure 3: "processing a prepare message")
    # ------------------------------------------------------------------

    def on_prepare(self, msg: m.PrepareMsg) -> None:
        cohort = self.cohort
        aid = msg.aid
        if aid in cohort.outcomes:
            self._answer_decided(msg)
            return
        self._drop_orphan_calls(aid, msg.pset_pairs, msg.aborted_subactions)
        if not cohort.config.viewstamp_checks and any(
            pair.groupid == cohort.mygroupid and pair.vs.id != cohort.cur_viewid
            for pair in msg.pset_pairs
        ):
            # Ablation: the virtual-partitions rule -- a transaction that
            # was active across a view change cannot prepare (section 5).
            self._local_abort(aid)
            self._trace_refusal(aid, "active across a view change")
            cohort.send(
                msg.coordinator,
                m.PrepareRefusedMsg(
                    aid=aid,
                    groupid=cohort.mygroupid,
                    reason="active across a view change (no viewstamps)",
                ),
            )
            cohort.metrics.incr(f"prepares_refused:{cohort.mygroupid}")
            return
        if not compatible(msg.pset_pairs, cohort.mygroupid, cohort.history):
            # Some call of this transaction was lost in a view change.
            self._local_abort(aid)
            self._trace_refusal(aid, "pset incompatible with history")
            cohort.send(
                msg.coordinator,
                m.PrepareRefusedMsg(
                    aid=aid,
                    groupid=cohort.mygroupid,
                    reason="pset incompatible with history",
                ),
            )
            cohort.metrics.incr(f"prepares_refused:{cohort.mygroupid}")
            return
        self._calls_per_txn = len(cohort.pending.get(aid, ()))
        target = vs_max(msg.pset_pairs, cohort.mygroupid)
        force = cohort.force_to(target)
        if not force.done:
            cohort.metrics.incr(f"prepare_force_waits:{cohort.mygroupid}")
        epoch = cohort._epoch
        asked_at = cohort.sim.now

        def after_force(future) -> None:
            if future.exception() is not None:
                return  # force abandoned; a view change is under way
            if cohort._epoch != epoch or not cohort.is_active_primary:
                return
            cohort.metrics.observe("prepare_force_wait", cohort.sim.now - asked_at)
            if aid in cohort.outcomes:
                self._answer_decided(msg)  # an abort, or a duplicate's commit, came first
            else:
                self._finish_prepare(msg)

        force.add_done_callback(after_force)

    def _answer_decided(self, msg: m.PrepareMsg) -> None:
        """A duplicate prepare for a decided aid.  While its coordinator still
        prepares, "committed" can only be a commit at prepare: repeat the
        flag (else phase two would follow), once the record is majority-known."""
        cohort = self.cohort
        aid = msg.aid
        if cohort.outcomes[aid] == "aborted":
            self._trace_refusal(aid, "already aborted")
            cohort.send(
                msg.coordinator,
                m.PrepareRefusedMsg(
                    aid=aid, groupid=cohort.mygroupid, reason="already aborted"
                ),
            )
            return
        accept = m.PrepareOkMsg(aid=aid, groupid=cohort.mygroupid, committed=True)
        self._when_durable(aid, cohort.send, msg.coordinator, accept)

    def _finish_prepare(self, msg: m.PrepareMsg) -> None:
        """Accept.  A participant the pset leaves nobody else to tell commits
        at prepare: read-only with no new force (D15); with writes as a commit
        message would have it, answering once that record is forced (D17)."""
        cohort = self.cohort
        aid = msg.aid
        cohort.lockmgr.release_reads(aid)
        committed = not cohort.lockmgr.locks_held_by(aid)
        sole = self._names_only_us(msg.pset_pairs)
        self._unprepared_queries.pop(aid, None)
        cohort.metrics.incr(f"prepares_accepted:{cohort.mygroupid}")
        if committed:
            # "If the transaction is read-only, add a committed record."
            self._ledger_effects(aid)
            record = Committed(aid=aid, pset_pairs=tuple(msg.pset_pairs))
            cohort.add_record(record)
        elif sole:
            self._trace_accept(aid, True)
            ts = self._perform_commit(aid, msg.pset_pairs).ts
            self._when_durable(aid, self._decide, aid, msg.coordinator, ts, cohort.sim.now)
            return
        else:
            self.prepared[aid] = _PreparedState(
                coordinator=msg.coordinator, pset_pairs=tuple(msg.pset_pairs)
            )
        self._trace_accept(aid, committed)
        if committed and sole:
            self.trace_commit_point(aid, None)
        self._answer_coordinator(
            msg.coordinator,
            m.PrepareOkMsg(aid=aid, groupid=cohort.mygroupid, committed=committed),
        )

    def _decide(self, aid: Aid, coordinator: str, force_ts: int, forced_at: float) -> None:
        """A sole participant's record is majority-known: the commit point."""
        cohort = self.cohort
        cohort.runtime.ledger.record_commit(aid)
        cohort.metrics.observe("commit_force_latency", cohort.sim.now - forced_at)
        self.trace_commit_point(aid, force_ts)
        self._answer_coordinator(
            coordinator, m.PrepareOkMsg(aid=aid, groupid=cohort.mygroupid, committed=True)
        )

    def trace_commit_point(self, aid: Aid, force_ts: Optional[int], plist=()) -> None:
        """``commit_point``, once per transaction, where it is decided; in the
        force's resolution, so ``acked`` is the quorum ``commit_quorum`` audits."""
        cohort = self.cohort
        if cohort.tracer is not None:
            cohort.tracer.emit_row(
                "commit_point",
                cohort.node.node_id,
                (),
                (
                    cohort.mygroupid,
                    aid,
                    cohort.cur_viewid,
                    force_ts,
                    sorted(plist),
                    dict(cohort.buffer.acked),
                    cohort.config_size,
                ),
            )

    def _answer_coordinator(self, destination: str, message) -> None:
        """A ``PrepareOkMsg`` / ``CommitAckMsg`` to the coordinator; handed
        over in place when this group coordinates the transaction on itself
        (``ClientRole.deliver``, DESIGN.md D20)."""
        self.cohort.client_role.deliver(destination, message)

    def _drop_orphan_calls(
        self, aid: Aid, pset_pairs, aborted_subactions: Tuple[int, ...]
    ) -> None:
        """Discard effects of subactions the transaction aborted (section
        3.6).  A surviving completed-call record whose viewstamp is not in
        the pset belongs to an orphaned call attempt."""
        cohort = self.cohort
        calls = cohort.pending.get(aid)
        if not calls:
            return
        allowed = {
            pair.vs for pair in pset_pairs if pair.groupid == cohort.mygroupid
        }
        for viewstamp in list(calls):
            record = calls[viewstamp]
            orphan = viewstamp not in allowed or (
                record.call_id.subaction in aborted_subactions
            )
            if orphan:
                cohort.lockmgr.discard_subaction(aid, record.call_id.subaction)
                del calls[viewstamp]

    def _trace_accept(self, aid: Aid, committed: bool) -> None:
        cohort = self.cohort
        if cohort.tracer is not None:
            cohort.tracer.emit_row(
                "prepare_decision",
                cohort.node.node_id,
                (),
                (cohort.mygroupid, aid, "accepted", committed),
            )

    def _trace_refusal(self, aid: Aid, reason: str) -> None:
        """Rare, so in the keyword form: a refusal has ``reason`` where an
        accept has ``committed`` (``EVENT_FIELDS``)."""
        cohort = self.cohort
        if cohort.tracer is not None:
            cohort.tracer.emit(
                "prepare_decision",
                node=cohort.node.node_id,
                group=cohort.mygroupid,
                aid=aid,
                decision="refused",
                reason=reason,
            )

    def _local_abort(self, aid: Aid) -> None:
        cohort = self.cohort
        cohort.lockmgr.discard(aid)
        cohort.add_record(Aborted(aid=aid))
        self.prepared.pop(aid, None)
        self._unprepared_queries.pop(aid, None)
        if cohort.tracer is not None:
            cohort.tracer.emit_row(
                "abort_applied", cohort.node.node_id, (), (cohort.mygroupid, aid)
            )

    # ------------------------------------------------------------------
    # commit / abort (Figure 3)
    # ------------------------------------------------------------------

    def on_commit(self, msg: m.CommitMsg) -> None:
        cohort = self.cohort
        aid = msg.aid
        already_installed = (
            cohort.outcomes.get(aid) == "committed"
            and aid not in self.prepared
            and aid not in cohort.pending
        )
        # A known outcome alone is not enough to skip the install: when this
        # group coordinates a transaction on itself, the client role records
        # "committed" before it hands us our own CommitMsg, while write locks are
        # still held and pending/prepared still name the aid.
        if not already_installed:
            self._perform_commit(aid, msg.pset_pairs)
        ack = m.CommitAckMsg(aid=aid, groupid=cohort.mygroupid)  # a re-sent one too
        self._when_durable(aid, self._answer_coordinator, msg.coordinator, ack)

    def _perform_commit(self, aid: Aid, pset_pairs) -> Viewstamp:
        """Install, add the committed record and force it; its viewstamp."""
        cohort = self.cohort
        self._drop_orphan_calls(aid, pset_pairs, ())
        self._ledger_effects(aid, will_install=True)
        cohort.lockmgr.install(aid)
        record = Committed(aid=aid, pset_pairs=tuple(pset_pairs))
        viewstamp = cohort.add_record(record)
        self.prepared.pop(aid, None)
        self._unprepared_queries.pop(aid, None)
        if cohort.tracer is not None:
            cohort.tracer.emit_row(
                "commit_applied",
                cohort.node.node_id,
                (),
                (cohort.mygroupid, aid, viewstamp.ts),
            )
        force = self._commit_forces[aid] = cohort.force_to(viewstamp)
        epoch = cohort._epoch

        def forgotten(_future) -> None:
            if cohort._epoch == epoch:
                self._commit_forces.pop(aid, None)

        force.add_done_callback(forgotten)
        return viewstamp

    def on_abort(self, msg: m.AbortMsg) -> None:
        cohort = self.cohort
        aid = msg.aid
        if cohort.outcomes.get(aid) is not None:
            return
        if aid in cohort.pending or aid in self.prepared:
            self._local_abort(aid)
            cohort.metrics.incr(f"aborts_processed:{cohort.mygroupid}")

    def on_subaction_abort(self, msg: m.SubactionAbortMsg) -> None:
        """Best-effort early cleanup of an aborted subaction's effects."""
        cohort = self.cohort
        calls = cohort.pending.get(msg.aid)
        if not calls:
            return
        for viewstamp in list(calls):
            if calls[viewstamp].call_id.subaction == msg.subaction:
                cohort.lockmgr.discard_subaction(msg.aid, msg.subaction)
                del calls[viewstamp]

    # ------------------------------------------------------------------
    # outcome queries (section 3.4)
    # ------------------------------------------------------------------

    def _janitor_sweep(self) -> None:
        cohort = self.cohort
        for aid, state in list(self.prepared.items()):
            state.queries_sent += 1
            self._send_query(aid)
        for aid in list(self._unprepared_queries):
            if aid in self.prepared or aid not in cohort.pending:
                self._unprepared_queries.pop(aid, None)
                continue
            # An inherited transaction is asked about on every tick: a view
            # change has outlasted any normal completion, and the old primary
            # may have voted, so only an answer (or the prepare / commit /
            # abort itself) may resolve it.
            if aid not in self._inherited:
                tries = self._unprepared_queries[aid] + 1
                self._unprepared_queries[aid] = tries
                if tries <= 2:
                    continue  # give the transaction time to finish normally
                if tries >= 6:
                    # Unreachable coordinator and we never voted: a participant
                    # may abort unilaterally before preparing.
                    self._local_abort(aid)
                    cohort.metrics.incr(f"unilateral_aborts:{cohort.mygroupid}")
                    continue
            self._send_query(aid)

    def _send_query(self, aid: Aid) -> None:
        cohort = self.cohort
        try:
            members = cohort.locate(aid.groupid)
        except KeyError:
            return
        for _mid, address in members:
            cohort.send(address, m.QueryMsg(aid=aid, reply_to=cohort.address))

    def on_query_reply(self, msg: m.QueryReplyMsg) -> None:
        cohort = self.cohort
        if not cohort.is_active_primary:
            return
        aid = msg.aid
        if aid not in self.prepared and aid not in self._unprepared_queries:
            return
        if msg.outcome == "committed":
            # The reply's pset is empty once Done has cleared the committing
            # record; a prepared participant has the one its prepare carried.
            prepared = self.prepared.get(aid)
            self._perform_commit(
                aid, prepared.pset_pairs if prepared is not None else msg.pset_pairs
            )
        elif msg.outcome == "aborted":
            self._local_abort(aid)
            cohort.metrics.incr(f"aborts_via_query:{cohort.mygroupid}")
        elif msg.outcome == "active":
            # The transaction is alive at its coordinator: keep waiting (and
            # reset the unilateral-abort countdown -- that exists only for
            # transactions whose coordinator has gone silent).
            if aid in self._unprepared_queries:
                self._unprepared_queries[aid] = 2

    # ------------------------------------------------------------------
    # 1SR ledger feed
    # ------------------------------------------------------------------

    def _ledger_effects(self, aid: Aid, will_install: bool = False) -> None:
        """Report this participant's reads/writes for the committed-history
        serializability check (DESIGN.md section 3.4)."""
        cohort = self.cohort
        calls = cohort.pending.get(aid)
        if not calls:
            return
        reads = {}
        writes = {}
        for viewstamp in sorted(calls):
            for effect in calls[viewstamp].effects:
                if effect.read_version is not None and effect.uid not in reads:
                    reads[effect.uid] = effect.read_version
                if effect.writes:
                    version = cohort.store.ensure(effect.uid)[1]
                    writes[effect.uid] = version + 1 if will_install else version
        cohort.runtime.ledger.record_effects(
            aid, cohort.mygroupid, reads=reads, writes=writes
        )
