"""Client-side transaction processing (paper Figure 2, sections 3.1, 3.5-3.6).

The active primary of a client group creates transactions, makes their
remote calls, and coordinates two-phase commit.  Transaction *programs* are
generator functions registered on the group::

    def transfer(txn, src, dst, amount):
        yield txn.call("bank", "withdraw", src, amount)
        yield txn.call("bank", "deposit", dst, amount)
        return "ok"

- A reply merges the call's pset pairs into the transaction's pset.
- No reply after probes aborts the transaction -- unless the program opted
  into subactions (section 3.6), in which case only the call's subaction
  aborts and the call is retried as a new subaction.
- At commit, the primary runs 2PC: prepare (with the pset) to every
  participant, then -- unless every accept said "committed here", when the
  last accept is the commit point (DESIGN.md D15, D17) -- a committing
  record forced to the backups, then commit messages, then a done record
  once all acknowledge.  "User code can continue running as soon as the
  committing record has been forced."
- A view change at the client group auto-aborts its active transactions
  (but one whose sole participant was asked to prepare, and alone may
  abort it, is ``unknown``); a new primary resumes phase two for
  surviving committing records.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Set, Tuple

from repro.core import messages as m
from repro.core.calls import CallAborted, probe_view
from repro.core.events import Aborted, Committing, Done
from repro.detect import Retry
from repro.sim.errors import CancelledError
from repro.sim.future import Future
from repro.txn.ids import Aid, CallId
from repro.txn.pset import PSet

_RETRYABLE_REASONS = ("no reply", "duplicate across view change", "too many view")
_MAX_SUBACTION_RETRIES = 3
_MAX_PREPARE_ROUNDS = 5


class Transaction:
    """Handle passed to a transaction program at the client primary."""

    def __init__(self, role: "ClientRole", aid: Aid, use_subactions: bool):
        self._role = role
        self.aid = aid
        self.pset = PSet()
        self.use_subactions = use_subactions
        self.aborted_subactions: Set[int] = set()
        self._attempt_counter = 0
        self._call_counter = 0
        self.phase = "running"  # running | preparing | committing | done

    def call(self, groupid: str, proc: str, *args: Any) -> Future:
        """Make a remote call; resolves with the call's result."""
        self._call_counter += 1
        return self._role._make_call(self, groupid, proc, tuple(args), retries_left=(
            _MAX_SUBACTION_RETRIES if self.use_subactions else 0
        ))

    def next_attempt_id(self, base_seq: int) -> CallId:
        self._attempt_counter += 1
        return CallId(aid=self.aid, seq=base_seq, subaction=self._attempt_counter)

    def abort(self, reason: str = "aborted by program") -> None:
        raise CallAborted(reason)


@dataclasses.dataclass
class _RunningTxn:
    txn: Transaction
    future: Future  # resolves to (outcome, result)
    prepare_patience: Optional[Retry] = None  # the prepare rounds (repro.detect)
    prepare_timer: Any = None
    prepare_ok: Dict[str, bool] = dataclasses.field(default_factory=dict)
    commit_waiting: Set[str] = dataclasses.field(default_factory=set)
    commit_timer: Any = None
    result: Any = None


class ClientRole:
    """Figure 2 behaviour, hosted by a cohort."""

    def __init__(self, cohort):
        self.cohort = cohort
        self._txns: Dict[Aid, _RunningTxn] = {}
        self._created: Set[Aid] = set()
        self._seq = 0
        self._call_seq = 0
        self._request_replies: Dict[Tuple[str, int], m.TxnOutcomeMsg] = {}
        self._requests_in_progress: Set[Tuple[str, int]] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def reset(self) -> None:
        self._txns.clear()
        self._created.clear()
        self._request_replies.clear()
        self._requests_in_progress.clear()

    def on_leave_active(self) -> None:
        """View change: the group's transactions abort automatically."""
        txns, self._txns = self._txns, {}
        for state in txns.values():
            undecided_here = self._sole_prepare(state.txn)
            state.txn.phase = "done"
            self._cancel_timers(state)
            if not state.future.done:
                if undecided_here or self.cohort.committing.get(state.txn.aid) is not None:
                    state.future.set_result(("unknown", None))
                else:
                    self.cohort.runtime.ledger.record_abort(
                        state.txn.aid, "view change at client group"
                    )
                    state.future.set_result(("aborted", None))
        self._request_replies.clear()
        self._requests_in_progress.clear()

    def on_become_primary(self) -> None:
        """Resume phase two for committing records that survived
        (section 4.1: "transactions that prepared in the old view will be
        able to commit, and those that committed will still be committed")."""
        for aid, (plist, pset_pairs) in list(self.cohort.committing.items()):
            self._resume_commit(aid, plist, pset_pairs)

    def is_running(self, aid: Aid) -> bool:
        return aid in self._txns

    def knows(self, aid: Aid) -> bool:
        return aid in self._created

    def mint_aid(self) -> Aid:
        """A fresh aid for an externally-driven transaction (section 3.5)."""
        cohort = self.cohort
        self._seq += 1
        aid = Aid(cohort.mygroupid, cohort.cur_viewid, self._seq)
        self._created.add(aid)
        return aid

    def coordinate_external(
        self, aid: Aid, pset_pairs, aborted_subactions
    ) -> Future:
        """Run 2PC for a transaction whose calls an unreplicated client made
        itself (the coordinator-server path, section 3.5).  Resolves to
        (outcome, None)."""
        cohort = self.cohort
        assert cohort.is_active_primary
        txn = Transaction(self, aid, use_subactions=False)
        for pair in pset_pairs:
            txn.pset.add(pair.groupid, pair.vs)
        txn.aborted_subactions = set(aborted_subactions)
        future = Future(label=f"external:{aid}")
        state = _RunningTxn(txn=txn, future=future)
        self._txns[aid] = state
        self._created.add(aid)
        # The client's calls populated no cache entries here; warm them so
        # prepares can be addressed.
        for groupid in sorted(txn.pset.participants()):
            if groupid not in cohort.cache:
                probe_view(cohort, groupid)
        self._start_prepare(state)
        return future

    # ------------------------------------------------------------------
    # intake from workload drivers
    # ------------------------------------------------------------------

    def on_txn_request(self, msg: m.TxnRequestMsg) -> None:
        key = (msg.reply_to, msg.request_id)
        cached = self._request_replies.get(key)
        if cached is not None:
            self.cohort.send(msg.reply_to, cached)
            return
        if key in self._requests_in_progress:
            return
        self._requests_in_progress.add(key)
        future = self.run_transaction(msg.program, msg.args)

        def report(done: Future) -> None:
            self._requests_in_progress.discard(key)
            if done.exception() is not None:
                return  # cohort left active; driver will retry elsewhere
            outcome, result = done.result()
            reply = m.TxnOutcomeMsg(
                request_id=msg.request_id,
                outcome=outcome,
                result=result,
                aid=None,
            )
            self._request_replies[key] = reply
            if self.cohort.is_active_primary:
                self.cohort.send(msg.reply_to, reply)

        future.add_done_callback(report)

    # ------------------------------------------------------------------
    # running transactions
    # ------------------------------------------------------------------

    def run_transaction(
        self, program: str, args: Tuple, use_subactions: Optional[bool] = None
    ) -> Future:
        """Start a registered program; resolves to (outcome, result)."""
        cohort = self.cohort
        assert cohort.is_active_primary
        try:
            program_fn = cohort.spec.transaction_program(program)
        except KeyError as error:
            failed = Future(label=f"txn:{program}")
            failed.set_result(("aborted", str(error)))
            return failed
        if use_subactions is None:
            use_subactions = getattr(program_fn, "_vr_subactions", False)
        self._seq += 1
        aid = Aid(cohort.mygroupid, cohort.cur_viewid, self._seq)
        txn = Transaction(self, aid, use_subactions)
        future = Future(label=f"txn:{aid}")
        state = _RunningTxn(txn=txn, future=future)
        self._txns[aid] = state
        self._created.add(aid)
        cohort.metrics.incr(f"txns_started:{cohort.mygroupid}")
        if cohort.tracer is not None:
            cohort.tracer.emit_row(
                "txn_begin", cohort.node.node_id, (), (cohort.mygroupid, aid, program)
            )
        process = cohort.spawn(self._drive(state, program_fn, args), name=f"txn:{aid}")

        def on_process_done(proc_future: Future) -> None:
            error = proc_future.exception()
            if error is None or state.future.done:
                return
            if isinstance(error, CancelledError):
                return  # leave_active already resolved the future
            self._abort_txn(state, reason=str(error))

        process.add_done_callback(on_process_done)
        return future

    def _drive(self, state: _RunningTxn, program_fn, args: Tuple):
        txn = state.txn
        try:
            generated = program_fn(txn, *args)
            if hasattr(generated, "send"):
                result = yield from generated
            else:
                result = generated
        except (CallAborted,) as error:
            self._abort_txn(state, reason=error.reason)
            return
        state.result = result
        self._start_prepare(state)

    # -- remote calls with probe/retry/subaction semantics ------------------

    def _make_call(
        self, txn: Transaction, groupid: str, proc: str, args: Tuple, retries_left: int
    ) -> Future:
        cohort = self.cohort
        done = Future(label=f"txncall:{txn.aid}:{proc}")
        self._call_seq += 1
        call_id = txn.next_attempt_id(self._call_seq)
        attempt = cohort.caller.call(
            txn.aid, groupid, proc, args, call_id,
            aborted_subactions=tuple(sorted(txn.aborted_subactions)),
        )

        def on_done(attempt_future: Future) -> None:
            if done.done:
                return
            error = attempt_future.exception()
            if error is None:
                result, pset_pairs, _piggyback = attempt_future.result()
                for pair in pset_pairs:
                    txn.pset.add(pair.groupid, pair.vs)
                done.set_result(result)
                return
            reason = getattr(error, "reason", str(error))
            retryable = any(token in reason for token in _RETRYABLE_REASONS)
            if txn.use_subactions and retryable and retries_left > 0:
                # Section 3.6: abort just the call subaction and retry the
                # call as a new subaction.
                txn.aborted_subactions.add(call_id.subaction)
                cohort.metrics.incr(f"subaction_retries:{cohort.mygroupid}")
                self._notify_subaction_abort(txn, groupid, call_id.subaction)
                retry = self._make_call(
                    txn, groupid, proc, args, retries_left=retries_left - 1
                )
                retry.add_done_callback(
                    lambda rf: done.set_exception(rf.exception())
                    if rf.exception() is not None
                    else done.set_result(rf.result())
                )
                return
            done.set_exception(
                error if isinstance(error, CallAborted) else CallAborted(reason)
            )

        attempt.add_done_callback(on_done)
        return done

    def _notify_subaction_abort(
        self, txn: Transaction, groupid: str, subaction: int
    ) -> None:
        address = self.cohort.cache.primary(groupid)
        if address is not None:
            self.cohort.send(
                address, m.SubactionAbortMsg(aid=txn.aid, subaction=subaction)
            )

    # ------------------------------------------------------------------
    # two-phase commit: coordinator (Figure 2)
    # ------------------------------------------------------------------

    @staticmethod
    def _sole_prepare(txn: Transaction) -> bool:
        """Prepared at the only group its pset names, which alone may abort it."""
        return txn.phase == "preparing" and len(txn.pset.participants()) == 1

    def _start_prepare(self, state: _RunningTxn) -> None:
        cohort = self.cohort
        txn = state.txn
        if not cohort.is_active_primary or txn.aid not in self._txns:
            return  # deposed: the view change resolved this transaction
        txn.phase = "preparing"
        participants = txn.pset.participants()
        if cohort.tracer is not None:
            cohort.tracer.emit_row(
                "txn_prepare",
                cohort.node.node_id,
                (),
                (cohort.mygroupid, txn.aid, sorted(participants)),
            )
        if not participants:
            # No calls were made; nothing to commit anywhere.
            txn.phase = "done"
            self._txns.pop(txn.aid, None)
            cohort.runtime.ledger.record_commit(txn.aid)
            cohort.metrics.incr(f"txns_committed:{cohort.mygroupid}")
            state.future.set_result(("committed", state.result))
            return
        state.prepare_ok = {}
        self._send_prepares(state, sorted(participants))
        state.prepare_patience = cohort.timeouts.prepare_retry(_MAX_PREPARE_ROUNDS)
        state.prepare_timer = cohort.set_timer(
            state.prepare_patience.wait(cohort.sim.now), self._prepare_retry, state
        )

    def _send_prepares(self, state: _RunningTxn, groupids) -> None:
        txn = state.txn
        message = m.PrepareMsg(
            aid=txn.aid,
            pset_pairs=tuple(txn.pset.pairs()),
            coordinator=self.cohort.address,
            aborted_subactions=tuple(sorted(txn.aborted_subactions)),
        )
        for groupid in groupids:
            self._send_prepare(groupid, message)

    def _send_prepare(self, groupid: str, message: m.PrepareMsg) -> None:
        cohort = self.cohort
        address = self.primary_of(groupid)
        if address is None:
            return  # retry loop will re-probe
        if (
            cohort.tracer is not None
            and len({pair.groupid for pair in message.pset_pairs}) > 1
        ):
            # Per-participant phase-one visibility for sharded /
            # multi-group transactions: one event per prepare actually
            # sent (retransmissions emit again).
            cohort.tracer.emit_row(
                "shard_prepare",
                cohort.node.node_id,
                (),
                (cohort.mygroupid, message.aid, groupid),
            )
        self.deliver(address, message)

    def _prepare_retry(self, state: _RunningTxn) -> None:
        cohort = self.cohort
        txn = state.txn
        if txn.phase != "preparing" or txn.aid not in self._txns:
            return
        out_of_patience = state.prepare_patience.expired(cohort.sim.now)
        if out_of_patience and self._sole_prepare(txn):
            # It may have committed at the prepare: ask, decide nothing here.
            txn.phase = "done"
            self._txns.pop(txn.aid, None)
            self._send_aborts(txn)
            state.future.set_result(("unknown", None))
            return
        if out_of_patience:
            # "If a more recent view cannot be discovered... abort."
            self._abort_txn(state, reason="participants unreachable at prepare")
            return
        missing = sorted(
            g for g in txn.pset.participants() if g not in state.prepare_ok
        )
        for groupid in missing:
            # Probe for fresher view information (the cache only moves
            # forward, so re-sending to the current entry stays correct).
            probe_view(cohort, groupid)
        self._send_prepares(state, missing)
        state.prepare_timer = cohort.set_timer(
            state.prepare_patience.wait(cohort.sim.now), self._prepare_retry, state
        )

    def on_prepare_ok(self, msg: m.PrepareOkMsg) -> None:
        state = self._txns.get(msg.aid)
        if state is None or state.txn.phase != "preparing":
            return
        state.prepare_ok[msg.groupid] = msg.committed
        if set(state.prepare_ok) >= state.txn.pset.participants():
            self._all_prepared(state)

    def on_prepare_refused(self, msg: m.PrepareRefusedMsg) -> None:
        state = self._txns.get(msg.aid)
        if state is None or state.txn.phase != "preparing":
            return
        self._abort_txn(state, reason=f"prepare refused by {msg.groupid}: {msg.reason}")

    def _all_prepared(self, state: _RunningTxn) -> None:
        """Figure 2 step 2: committing record, force, then commit messages;
        with nobody in the plist this instant is the commit point instead."""
        cohort = self.cohort
        txn = state.txn
        self._cancel_timers(state)
        plist = tuple(
            sorted(g for g, committed in state.prepare_ok.items() if not committed)
        )
        if not plist:
            txn.phase = "done"
            del self._txns[txn.aid]
            self._commit_point(state, plist, None)
            return
        txn.phase = "committing"
        pset_pairs = tuple(txn.pset.pairs())
        committing_vs = cohort.add_record(
            Committing(aid=txn.aid, plist=plist, pset_pairs=pset_pairs)
        )
        force = cohort.force_all()
        epoch = cohort._epoch
        forced_at = cohort.sim.now

        def after_force(future: Future) -> None:
            if future.exception() is not None:
                return  # view change; resolution happens via on_leave_active
            if cohort._epoch != epoch or not cohort.is_active_primary:
                return
            cohort.metrics.observe("commit_force_latency", cohort.sim.now - forced_at)
            self._commit_point(state, plist, committing_vs.ts)
            self._phase_two(state, plist, pset_pairs)

        force.add_done_callback(after_force)

    def _commit_point(self, state: _RunningTxn, plist, forced_ts) -> None:
        """Committed: the committing record is known to a majority, or
        (``forced_ts`` None) nobody is in it.  User code continues now."""
        cohort = self.cohort
        txn = state.txn
        if plist or len(txn.pset.participants()) > 1:
            # A sole participant traced its own decision.
            cohort.server_role.trace_commit_point(txn.aid, forced_ts, plist)
        if cohort.tracer is not None and len(txn.pset.participants()) > 1:
            cohort.tracer.emit_row(
                "shard_commit",
                cohort.node.node_id,
                (),
                (
                    cohort.mygroupid,
                    txn.aid,
                    sorted(txn.pset.participants()),
                    sorted(plist),
                ),
            )
        cohort.outcomes[txn.aid] = "committed"
        cohort.runtime.ledger.record_commit(txn.aid)
        cohort.metrics.incr(f"txns_committed:{cohort.mygroupid}")
        if not state.future.done:
            state.future.set_result(("committed", state.result))

    def _phase_two(self, state: _RunningTxn, waiting, pset_pairs) -> None:
        """Commit messages to whoever has yet to acknowledge; retry timer."""
        aid = state.txn.aid
        state.commit_waiting = set(waiting)
        self._send_commits(aid, sorted(state.commit_waiting), pset_pairs)
        state.commit_timer = self.cohort.set_timer(
            self.cohort.timeouts.commit_retry_interval(),
            self._commit_retry,
            aid,
            pset_pairs,
        )

    def _send_commits(self, aid: Aid, groupids, pset_pairs) -> None:
        message = m.CommitMsg(
            aid=aid, pset_pairs=tuple(pset_pairs), coordinator=self.cohort.address
        )
        for groupid in groupids:
            self._send_commit(groupid, message)

    def _send_commit(self, groupid: str, message: m.CommitMsg) -> None:
        cohort = self.cohort
        address = self.primary_of(groupid)
        if address is None:
            probe_view(cohort, groupid)
            return
        self.deliver(address, message)

    def _commit_retry(self, aid: Aid, pset_pairs) -> None:
        cohort = self.cohort
        state = self._txns.get(aid)
        if state is None or not cohort.is_active_primary:
            return
        for groupid in sorted(state.commit_waiting):
            probe_view(cohort, groupid)
        self._phase_two(state, state.commit_waiting, pset_pairs)

    def on_commit_ack(self, msg: m.CommitAckMsg) -> None:
        state = self._txns.get(msg.aid)
        if state is None:
            return
        state.commit_waiting.discard(msg.groupid)
        if not state.commit_waiting:
            # All participants acknowledged: add the done record (Figure 2).
            self._cancel_timers(state)
            self.cohort.add_record(Done(aid=msg.aid))
            self._txns.pop(msg.aid, None)

    # -- resumed phase two (new primary) --------------------------------------

    def _resume_commit(self, aid: Aid, plist, pset_pairs) -> None:
        """A committing record survived the view change; finish phase two.

        The newview/committing state must be forced in *this* view before
        commit messages go out (see DESIGN.md: the commit decision must be
        majority-known in the current view)."""
        cohort = self.cohort
        self._created.add(aid)
        txn = Transaction(self, aid, use_subactions=False)
        txn.phase = "committing"
        state = _RunningTxn(txn=txn, future=Future(label=f"resumed:{aid}"))
        state.future.set_result(("committed", None))
        self._txns[aid] = state
        forced_ts = cohort.buffer.timestamp
        force = cohort.force_all()
        epoch = cohort._epoch

        def after_force(future: Future) -> None:
            if future.exception() is not None:
                return
            if cohort._epoch != epoch or not cohort.is_active_primary:
                return
            cohort.metrics.incr(f"commits_resumed:{cohort.mygroupid}")
            self._commit_point(state, plist, forced_ts)
            self._phase_two(state, plist, pset_pairs)

        force.add_done_callback(after_force)

    # ------------------------------------------------------------------
    # aborts
    # ------------------------------------------------------------------

    def _abort_txn(self, state: _RunningTxn, reason: str) -> None:
        """Figure 2 step 3: tell the participants, record the abort."""
        cohort = self.cohort
        txn = state.txn
        if txn.phase == "done":
            return
        txn.phase = "done"
        self._cancel_timers(state)
        self._txns.pop(txn.aid, None)
        if cohort.is_active_primary:
            self._send_aborts(txn)
            if cohort.outcomes.get(txn.aid) != "aborted":
                cohort.add_record(Aborted(aid=txn.aid))
        cohort.runtime.ledger.record_abort(txn.aid, reason)
        cohort.metrics.incr(f"txns_aborted:{cohort.mygroupid}")
        if cohort.tracer is not None:
            cohort.tracer.emit_row(
                "txn_abort", cohort.node.node_id, (), (cohort.mygroupid, txn.aid, reason)
            )
        if not state.future.done:
            state.future.set_result(("aborted", None))

    def _send_aborts(self, txn: Transaction) -> None:
        for groupid in sorted(txn.pset.participants()):
            address = self.primary_of(groupid)
            if address is not None:
                self.deliver(address, m.AbortMsg(aid=txn.aid))

    # -- a group's messages to itself (DESIGN.md D20) ---------------------------

    def primary_of(self, groupid: str) -> Optional[str]:
        """Where a message for *groupid*'s primary goes: ours is us, another
        group's is cached (None: not known)."""
        cohort = self.cohort
        if groupid == cohort.mygroupid:
            return cohort.address
        return cohort.cache.primary(groupid)

    def deliver(self, destination: str, message) -> None:
        """Send a prepare, commit or abort, or the prepare-ok or commit-ack
        that answers one; addressed to this cohort -- a group coordinating a
        transaction on itself, as a shard's single-key write does -- it is
        handed to its handler in place.  Mailed to ourselves it would arrive
        after what the sender does next: an abort after the ``Aborted``
        record that makes it a no-op, leaking this group's write locks."""
        cohort = self.cohort
        if destination == cohort.address:
            cohort._primary_only[type(message)](message)
        else:
            cohort.send(destination, message)

    def on_view_changed(self, msg: m.ViewChangedMsg) -> None:
        """A participant rejected a prepare/commit; chase the new primary."""
        if msg.aid is None or not self.cohort.is_active_primary:
            return
        state = self._txns.get(msg.aid)
        if state is None:
            return
        if msg.viewid is not None and msg.view is not None and msg.groupid:
            self.cohort.cache.learn(msg.groupid, msg.viewid, msg.view)
            if state.txn.phase == "preparing":
                self._send_prepares(state, [msg.groupid])
            elif state.txn.phase == "committing" and msg.groupid in state.commit_waiting:
                # The committing record's pset, not ``txn.pset``: a commit
                # resumed by a new primary has the record and an empty
                # Transaction, and a commit with an empty pset makes the
                # participant drop every call of the transaction as orphaned.
                _plist, pset_pairs = self.cohort.committing[msg.aid]
                self._send_commits(msg.aid, [msg.groupid], pset_pairs)

    def _cancel_timers(self, state: _RunningTxn) -> None:
        for timer in (state.prepare_timer, state.commit_timer):
            if timer is not None:
                timer.cancel()
        state.prepare_timer = None
        state.commit_timer = None
