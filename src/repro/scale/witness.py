"""Witness replicas (``ScaleConfig(witnesses=k)``; docs/SCALE.md).

The highest ``k`` module ids of a group vote in view formation -- their
acceptances count toward the majority and they join the formed view -- but
hold no event buffer.  Who they are, and what that does to every quorum (the
buffer addresses only storage backups, condition 1 counts only storage
acceptances), is the group's :class:`~repro.core.quorum.Quorums`; this
extension is what a witness *does*: the view install a witness gets instead
of the newview record, its retransmission, and the evidence-free vote.
Every cohort of such a group carries it; ``is_witness`` says which side of
it a cohort is on.
"""

from __future__ import annotations

from typing import Callable, Set

from repro.core import messages as m
from repro.core.cohort import Cohort, Status
from repro.core.extension import Extension, Table, wrap, wrap_row


class Witnesses(Extension):
    def __init__(self, cohort) -> None:
        super().__init__(cohort)
        self.is_witness = cohort.mymid in cohort.quorums.witnesses
        #: primary: witnesses that have not yet confirmed the view install
        self._install_pending: Set[int] = set()
        wrap(cohort, "beacon", self._beacon_then_resend)
        if self.is_witness:
            wrap(cohort.view_change, "build_acceptance", self._vote_without_evidence)

    def wire(self, any_status: Table, primary_only: Table) -> None:
        any_status[m.WitnessInstallMsg] = self.on_witness_install
        wrap_row(any_status, m.BufferAckMsg, self._confirm_install)

    # -- primary: announcing a formed view to its witnesses ---------------------

    def on_become_primary(self) -> None:
        # Witnesses receive no buffer traffic, so the formed view is
        # announced to them explicitly; retransmitted from the heartbeat
        # loop until each confirms.
        cohort = self.cohort
        self._install_pending = set(cohort.cur_view.members) & cohort.quorums.witnesses
        self._send_installs(sorted(self._install_pending))

    def reset(self) -> None:
        self._install_pending = set()

    def _send_installs(self, peers) -> None:
        cohort = self.cohort
        for peer in peers:
            cohort.send_mid(
                peer, m.WitnessInstallMsg(viewid=cohort.cur_viewid, view=cohort.cur_view)
            )

    def _beacon_then_resend(self, beacon: Callable, pairs) -> None:
        """Retransmit unconfirmed view installs (loss recovery)."""
        beacon(pairs)
        cohort = self.cohort
        if cohort.is_active_primary and self._install_pending:
            pending = [
                peer
                for peer in sorted(self._install_pending)
                if peer in cohort.cur_view
            ]
            self._install_pending = set(pending)
            self._send_installs(pending)

    def _confirm_install(self, handler: Callable, message: m.BufferAckMsg) -> None:
        # A witness confirmed its view install (acked_ts is 0; a witness
        # applies nothing) -- stop retransmitting to it.
        self._install_pending.discard(message.mid)
        handler(message)

    # -- witness: adopting a formed view ---------------------------------------

    def on_witness_install(self, msg: m.WitnessInstallMsg) -> None:
        """A new primary announced its formed view to this witness.

        The newview record never reaches a witness, so the activating
        primary sends an explicit ``WitnessInstallMsg`` instead and
        retransmits it until the witness confirms.  The confirmation is the
        cohort's plain, unstamped cumulative ack (``acked_ts`` 0) --
        harmless to the buffer (a witness mid is not in its acked map) and
        idempotent under loss.
        """
        cohort = self.cohort
        controller = cohort.view_change
        if not self.is_witness:
            return
        if cohort.status is Status.ACTIVE and cohort.cur_viewid == msg.viewid:
            # Duplicate announcement: our ack was lost; just re-confirm.
            self._confirm()
            return
        if msg.viewid < cohort.max_viewid or controller._installing:
            return
        if cohort.status is Status.ACTIVE:
            # The announcement outran an invitation (or we missed the
            # round entirely); a formed view always supersedes.
            cohort.leave_active()
        cohort.max_viewid = msg.viewid
        cohort.status = Status.UNDERLING
        controller.install_when_durable(msg.viewid, lambda: self._install(msg))

    def _install(self, msg: m.WitnessInstallMsg) -> None:
        """There is no state to install -- a witness applies no records --
        so adoption is just the view pointer flip the storage path performs
        as part of ``install_newview``."""
        cohort = self.cohort
        cohort._epoch += 1
        cohort.cur_viewid = msg.viewid
        cohort.cur_view = msg.view
        cohort.up_to_date = True
        cohort.status = Status.ACTIVE
        cohort.buffer = None
        cohort.applied_ts = 0
        for extension in cohort.extensions:
            extension.on_install()
        cohort.emit("newview_installed", msg.viewid, True)
        cohort.metrics.incr(f"views_joined:{cohort.mygroupid}")
        self._confirm()

    def _confirm(self) -> None:
        # The paper's builder, not this instance's wrapped one: no
        # extension's stamp (a lease grant, a tree route) belongs on it.
        cohort = self.cohort
        destination, ack = Cohort.build_buffer_ack(cohort)
        cohort.send_mid(destination, ack)

    # -- view formation ---------------------------------------------------------

    def _vote_without_evidence(self, build: Callable) -> m.AcceptMsg:
        # A witness's vote counts toward the majority and it joins the
        # formed view, but it carries no viewstamp or crash evidence: the
        # formation conditions must be met by storage members alone.
        cohort = self.cohort
        cohort.emit("witness_vote", cohort.max_viewid)
        acceptance = build()
        acceptance.witness = True
        acceptance.crashed = False
        acceptance.viewstamp = None
        acceptance.was_primary = False
        acceptance.crash_viewid = None
        acceptance.view = cohort.cur_view
        return acceptance
