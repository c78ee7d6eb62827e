"""The cohort side of the read-serving path (``ReadConfig(enabled=True)``).

:class:`Leases` is the extension (:mod:`repro.core.extension`) that gives a
cohort a :class:`~repro.reads.lease.ReadState` and everything that touches
it (docs/READS.md): grants and freshness ride the acks and beacons backups
and primaries already send; the primary serves ``ReadMsg`` locally while
it holds a quorum lease, backups from their applied prefix within a
staleness bound; and a view formation carries the acceptors' outstanding
promises so the new primary defers activation until any lease an old one
could still be serving under has expired.
"""

from __future__ import annotations

from typing import Callable

from repro.config import DEFAULT_MAX_STALENESS
from repro.core import messages as m
from repro.core.cohort import Status
from repro.core.extension import Extension, Table, wrap, wrap_row
from repro.core.viewstamp import Viewstamp
from repro.reads.lease import ReadState, formation_lease_bound


class Leases(Extension):
    def __init__(self, cohort) -> None:
        super().__init__(cohort)
        self.state = ReadState(cohort.quorums, lambda: cohort.sim.now)
        # A bufferless member (repro.scale) votes and grants like any
        # backup, but holds no object state to serve.
        self._holds_state = cohort.mymid not in cohort.quorums.witnesses
        wrap(cohort, "build_buffer_ack", self._grant_on_ack)
        wrap(cohort.liveness, "build_im_alive", self._grant_on_beacon)
        controller = cohort.view_change
        wrap(controller, "build_acceptance", self._report_promises)
        wrap(controller, "build_init_view", self._bound_activation)
        wrap(controller, "activate", self._activate_after_bound)

    def wire(self, any_status: Table, primary_only: Table) -> None:
        wrap_row(any_status, m.BufferAckMsg, self._on_buffer_ack)
        wrap_row(any_status, m.ImAliveMsg, self._on_im_alive)
        wrap_row(any_status, m.BufferMsg, self._on_buffer_msg)
        any_status[m.ReadMsg] = self.on_read

    # -- lifecycle ---------------------------------------------------------

    def on_become_primary(self) -> None:
        # A new primary starts leaseless: grants must come from the new
        # view's backups.  Its own state is trivially fresh -- as is a
        # backup's on installing the newview record, a snapshot of it.
        self.state.reset_grants()
        self.state.mark_fresh()

    on_install = on_become_primary

    def on_leave_active(self) -> None:
        """Primary-side lease validity ended by stepping down."""
        if self.state.was_valid:
            self.cohort.emit("lease_expire", self.cohort.cur_viewid, "left_active")
        self.state.reset_grants()

    def reset(self) -> None:
        # Promise state was volatile: report a conservative full-duration
        # residue at the next view change (a promise made just before
        # the crash could still be outstanding even if recovery was
        # quick).  Grants held as primary are simply gone.
        self.state.reset_grants()
        self.state.promise_residue()

    # -- granting: the stamps on traffic backups already send ----------------

    def _grant_on_ack(self, build: Callable):
        destination, ack = build()
        cohort = self.cohort
        if cohort.status is Status.ACTIVE and destination == cohort.cur_view.primary:
            # Every ack renews the read lease; under steady buffer traffic
            # the explicit heartbeat grants are pure backup.  (An ack routed
            # elsewhere skips the grant: the primary would never see it.)
            ack.lease_until = self.state.make_promise(destination)
        return destination, ack

    def _grant_on_beacon(self, build: Callable, peer: int) -> m.ImAliveMsg:
        beacon = build(peer)
        cohort = self.cohort
        if cohort.status is Status.ACTIVE:
            if cohort.is_primary:
                # Stamp the buffer's high-water mark so idle backups can
                # confirm their applied prefix is current (freshness).
                if cohort.buffer is not None:
                    beacon.primary_ts = cohort.buffer.timestamp
            elif peer == cohort.cur_view.primary:
                # Grant/renew the read lease to our primary: the beacon
                # doubles as lease traffic (no extra messages).
                beacon.lease_until = self.state.make_promise(peer)
        return beacon

    # -- holding: grants and freshness arriving on that traffic ----------------

    def _note_grant(self, mid: int, until: float) -> None:
        """Primary: a grant arrived piggybacked on ack/heartbeat traffic."""
        state, cohort = self.state, self.cohort
        state.record_grant(mid, until)
        if not state.was_valid and state.lease_valid(cohort.cur_view):
            state.was_valid = True
            cohort.emit(
                "lease_grant", cohort.cur_viewid, state.lease_until(cohort.cur_view)
            )

    def _on_buffer_ack(self, handler: Callable, message: m.BufferAckMsg) -> None:
        cohort = self.cohort
        if (
            message.lease_until is not None
            and message.viewid == cohort.cur_viewid
            and cohort.is_active_primary
        ):
            self._note_grant(message.mid, message.lease_until)
        handler(message)

    def _on_im_alive(self, handler: Callable, msg: m.ImAliveMsg) -> None:
        cohort = self.cohort
        if (
            msg.lease_until is not None
            and msg.viewid == cohort.cur_viewid
            and cohort.is_active_primary
        ):
            self._note_grant(msg.mid, msg.lease_until)
        if (
            msg.primary_ts is not None
            and cohort.is_backup_in(msg.viewid)
            and msg.mid == cohort.cur_view.primary
            and cohort.applied_ts >= msg.primary_ts
        ):
            # Our applied prefix matches the primary's buffer high-water
            # mark as of the beacon: fresh now.
            self.state.mark_fresh()
        handler(msg)

    def _on_buffer_msg(self, handler: Callable, msg: m.BufferMsg) -> None:
        handler(msg)
        cohort = self.cohort
        if cohort.is_backup_in(msg.viewid) and cohort.applied_ts >= msg.primary_ts:
            # Applied our primary's records up to its high-water mark as of
            # this send: the prefix is fresh (modulo one network delay,
            # which the staleness bound's documentation accounts for).
            self.state.mark_fresh()

    # -- serving ------------------------------------------------------------

    def on_read(self, msg: m.ReadMsg) -> None:
        cohort, state = self.cohort, self.state
        if (
            cohort.status is not Status.ACTIVE
            or not cohort.up_to_date
            or not self._holds_state
        ):
            cohort.refuse_read(msg, "not_active")
            return
        if cohort.is_primary:
            if not state.lease_valid(cohort.cur_view):
                if state.was_valid:
                    state.was_valid = False
                    cohort.emit("lease_expire", cohort.cur_viewid, "expired")
                cohort.refuse_read(msg, "no_lease")
                return
            # Linearizable local read: the lease guarantees no other
            # primary can have committed a newer value (docs/READS.md).
            mode, staleness = "lease", 0.0
            ts = cohort.buffer.timestamp if cohort.buffer is not None else 0
            cohort.emit("lease_read", cohort.cur_viewid, msg.uid)
            cohort.metrics.incr(f"lease_reads:{cohort.mygroupid}")
        else:
            staleness = state.staleness()
            bound = msg.max_staleness
            if bound is None:
                bound = DEFAULT_MAX_STALENESS
            if staleness > bound:
                cohort.refuse_read(msg, "too_stale", staleness=staleness)
                return
            mode, ts = "backup", cohort.applied_ts
            cohort.emit("stale_read", cohort.cur_viewid, msg.uid, staleness)
            cohort.metrics.incr(f"backup_reads:{cohort.mygroupid}")
        cohort.send(
            msg.reply_to,
            m.ReadReplyMsg(
                request_id=msg.request_id,
                uid=msg.uid,
                value=cohort.store.base(msg.uid) if msg.uid in cohort.store else None,
                viewstamp=Viewstamp(cohort.cur_viewid, ts),
                mode=mode,
                staleness=staleness,
                groupid=cohort.mygroupid,
            ),
        )

    # -- view changes ---------------------------------------------------------

    def _report_promises(self, build: Callable) -> m.AcceptMsg:
        # Report outstanding promises so the formation can defer the new
        # primary past any lease an old one could still be serving under.
        acceptance = build()
        acceptance.lease_promises = self.state.outstanding_promises()
        return acceptance

    def _bound_activation(self, build: Callable, view) -> m.InitViewMsg:
        init = build(view)
        init.lease_bound = formation_lease_bound(
            self.cohort.view_change._responses.values(), view.primary
        )
        return init

    def _activate_after_bound(self, activate: Callable, init: m.InitViewMsg) -> None:
        """An old primary may serve leased reads until the bound, and a write
        committed any earlier could be missed by one: wait it out."""
        cohort = self.cohort
        now = cohort.sim.now
        if init.lease_bound <= now:
            activate(init)
            return
        # Grants are valid strictly before their expiry, so waiting until
        # exactly the bound suffices.
        cohort.emit("lease_wait", init.viewid, init.lease_bound)
        cohort.metrics.incr(f"lease_waits:{cohort.mygroupid}")
        cohort.set_timer(init.lease_bound - now, activate, init)
