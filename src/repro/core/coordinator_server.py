"""The coordinator-server (paper section 3.5).

"If the client is not replicated, it is still desirable for the coordinator
to be highly available, since this can reduce the 'window of vulnerability'
in two-phase commit.  This can be accomplished by providing a replicated
coordinator-server.  The client communicates with such a server when it
starts a transaction, and when it commits or aborts the transaction.  The
coordinator-server carries out two-phase commit as described above on the
client's behalf.  It also responds to queries about the outcome of the
transaction; its groupid is part of the transaction's aid, so that
participants know who it is.  In answering a query about a transaction that
appears to still be active, it would check with the client, but if no reply
is forthcoming, it can abort the transaction unilaterally."
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from repro.core import messages as m
from repro.core.events import Aborted
from repro.txn.ids import Aid


@dataclasses.dataclass
class _ExternalTxn:
    client: str
    status: str = "active"  # active | finishing | done
    probe_timer: Any = None
    probing_since: Optional[float] = None


class CoordinatorServerRole:
    """Runs 2PC on behalf of unreplicated clients (section 3.5).

    Hosted by every cohort; only the active primary processes requests.
    The registry of active external transactions is volatile: after a view
    change, outcomes are recovered through the usual machinery (surviving
    committing records are resumed; everything else is inferably aborted).
    """

    def __init__(self, cohort):
        self.cohort = cohort
        self.registry: Dict[Aid, _ExternalTxn] = {}

    def reset(self) -> None:
        self.registry.clear()

    def on_leave_active(self) -> None:
        for state in self.registry.values():
            if state.probe_timer is not None:
                state.probe_timer.cancel()
        self.registry.clear()

    def is_active(self, aid: Aid) -> bool:
        state = self.registry.get(aid)
        return state is not None and state.status != "done"

    # ------------------------------------------------------------------
    # begin / finish
    # ------------------------------------------------------------------

    def on_begin(self, msg: m.BeginTxnMsg) -> None:
        cohort = self.cohort
        aid = cohort.client_role.mint_aid()
        self.registry[aid] = _ExternalTxn(client=msg.client)
        cohort.send(msg.client, m.BeginTxnReplyMsg(request_id=msg.request_id, aid=aid))

    def on_finish(self, msg: m.FinishTxnMsg) -> None:
        cohort = self.cohort
        aid = msg.aid
        known = cohort.outcomes.get(aid)
        if known is not None:
            # Retry of a finish we already decided (reply was lost).
            cohort.send(msg.client, m.FinishTxnReplyMsg(aid=aid, outcome=known))
            return
        state = self.registry.get(aid)
        if state is not None and state.status == "finishing":
            return  # duplicate request while 2PC runs; reply comes later
        if state is None:
            # We are a new primary: re-admit the transaction (safe -- see
            # DESIGN.md; prepare is idempotent and the pset travels with
            # the request).
            state = _ExternalTxn(client=msg.client)
            self.registry[aid] = state
        if msg.decision == "abort":
            self._abort_external(aid, msg.pset_pairs)
            cohort.send(msg.client, m.FinishTxnReplyMsg(aid=aid, outcome="aborted"))
            return
        state.status = "finishing"
        future = cohort.client_role.coordinate_external(
            aid, msg.pset_pairs, msg.aborted_subactions
        )

        def report(done) -> None:
            if done.exception() is not None:
                return
            outcome, _result = done.result()
            current = self.registry.get(aid)
            if current is not None:
                current.status = "done"
            if cohort.is_active_primary and outcome in ("committed", "aborted"):
                cohort.send(
                    msg.client, m.FinishTxnReplyMsg(aid=aid, outcome=outcome)
                )

        future.add_done_callback(report)

    def _abort_external(self, aid: Aid, pset_pairs) -> None:
        cohort = self.cohort
        groups = {pair.groupid for pair in pset_pairs}
        message = m.AbortMsg(aid=aid)
        for groupid in sorted(groups):
            self._send_abort(groupid, message)
        cohort.add_record(Aborted(aid=aid))
        cohort.runtime.ledger.record_abort(aid, "client requested abort")
        state = self.registry.get(aid)
        if state is not None:
            state.status = "done"

    def _send_abort(self, groupid: str, message: m.AbortMsg) -> None:
        cohort, client = self.cohort, self.cohort.client_role
        address = client.primary_of(groupid)
        if address is not None:
            client.deliver(address, message)
        else:
            for _mid, member in cohort.locate(groupid):
                cohort.send(member, message)

    # ------------------------------------------------------------------
    # "check with the client" before unilateral abort
    # ------------------------------------------------------------------

    def on_query_for_active(self, aid: Aid) -> None:
        """A participant asked about a still-active external transaction;
        make sure its client is actually alive."""
        cohort = self.cohort
        state = self.registry.get(aid)
        if state is None or state.status != "active":
            return
        if state.probe_timer is not None:
            return  # probe already outstanding
        cohort.send(state.client, m.ClientProbeMsg(aid=aid))
        state.probing_since = cohort.sim.now
        state.probe_timer = cohort.set_timer(
            cohort.config.call_timeout * 2, self._probe_timed_out, aid
        )

    def _probe_timed_out(self, aid: Aid) -> None:
        cohort = self.cohort
        state = self.registry.get(aid)
        if state is None or state.status != "active":
            return
        if not cohort.is_active_primary:
            return
        # "If no reply is forthcoming, it can abort the transaction
        # unilaterally."
        state.status = "done"
        state.probe_timer = None
        cohort.add_record(Aborted(aid=aid))
        cohort.runtime.ledger.record_abort(aid, "client unresponsive; unilateral abort")
        cohort.metrics.incr(f"client_abandoned_aborts:{cohort.mygroupid}")

    def on_probe_reply(self, msg: m.ClientProbeReplyMsg) -> None:
        state = self.registry.get(msg.aid)
        if state is None:
            return
        if state.probe_timer is not None:
            state.probe_timer.cancel()
            state.probe_timer = None
        if not msg.active and state.status == "active":
            self._probe_timed_out_now(msg.aid)

    def _probe_timed_out_now(self, aid: Aid) -> None:
        state = self.registry.get(aid)
        if state is not None:
            state.probe_timer = None
        self._probe_timed_out(aid)
