"""The view change algorithm (paper section 4, Figure 5).

Roles:

- *view manager*: mints a viewid greater than any seen (paired with its own
  mid, so viewids are globally unique), invites every other cohort, collects
  normal/crashed acceptances, and attempts view formation when all have
  responded or a timeout expires.
- *underling*: accepted an invitation; waits (``await_view``) for an
  init-view message (it was chosen primary), a newview record through the
  buffer (it is a backup of the formed view), a higher invitation, or a
  timeout that promotes it to manager.

View formation rule (section 4; the sizes are the group's
:class:`~repro.core.quorum.Quorums`): a majority of cohorts accepted, and

1. a majority accepted *normally* (``Quorums.normals``), or
2. ``crash_viewid < normal_viewid``, or
3. ``crash_viewid == normal_viewid`` and the primary of that view accepted
   normally (a primary always knows at least as much as any backup).

The cohort returning the largest viewstamp in a normal acceptance becomes
the new primary; the old primary of that view is preferred when possible
("since this causes minimal disruption").  All acceptors -- including
crashed ones, which the newview record will re-initialize -- join the view.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional

from repro.config import IM_ALIVE_INTERVAL, INVITE_TIMEOUT
from repro.core import messages as m
from repro.core.cohort import Status
from repro.core.events import NewView
from repro.core.view import View
from repro.core.viewstamp import ViewId, Viewstamp
from repro.detect import ViewChangeWaits


class ViewChangeController:
    """Figure 5's state machine, hosted by a cohort."""

    def __init__(self, cohort):
        self.cohort = cohort
        self._responses: Dict[int, m.AcceptMsg] = {}
        self._invite_timer = None
        self._await_timer = None
        self._retry_timer = None
        self._retransmit_timer = None
        self._installing = False
        self._formed = False
        # Since when the sweep has found a view change needed (a deferring
        # cohort's wait); reset() leaves it, so it outlasts a crash.
        self._change_pending_since: Optional[float] = None

    @functools.cached_property
    def _waits(self) -> ViewChangeWaits:
        """Made on first use: form_view() is also exercised standalone with
        fake cohorts that have no simulator attached."""
        cohort = self.cohort
        return ViewChangeWaits(cohort.config, cohort.runtime.sim.rng, cohort.address)

    def reset(self) -> None:
        """Drop controller state after a crash (timers died with the node)."""
        self._responses = {}
        self._invite_timer = None
        self._await_timer = None
        self._retry_timer = None
        self._retransmit_timer = None
        self._installing = False
        self._formed = False
        self._waits.retry.restart()

    # ------------------------------------------------------------------
    # becoming a manager
    # ------------------------------------------------------------------

    def become_manager(self) -> None:
        cohort = self.cohort
        if not cohort.node.up:
            return
        if cohort.status is Status.ACTIVE:
            cohort.leave_active()
        if cohort.status is Status.VIEW_MANAGER:
            return  # already managing; the retry timer drives progress
        self._cancel_timers()
        cohort.status = Status.VIEW_MANAGER
        cohort.metrics.incr(f"view_changes_started:{cohort.mygroupid}")
        cohort.runtime.ledger.record_view_change_started(
            cohort.mygroupid, cohort.sim.now
        )
        cohort.emit("view_manager")
        self._make_invitations()

    def _make_invitations(self) -> None:
        """Figure 5: mint a new viewid, invite everyone, await responses."""
        cohort = self.cohort
        if cohort.status is not Status.VIEW_MANAGER:
            return  # a stale retry timer fired after we stopped managing
        cohort.max_viewid = cohort.max_viewid.next_for(cohort.mymid)
        self._formed = False
        self._responses = {cohort.mymid: self.build_acceptance()}
        for peer, address in cohort.configuration:
            if peer != cohort.mymid:
                cohort.send(
                    address,
                    m.InviteMsg(viewid=cohort.max_viewid, manager_mid=cohort.mymid),
                )
        self._invite_timer = cohort.set_timer(INVITE_TIMEOUT, self._attempt_formation)
        self._arm_invite_retransmit()

    def _arm_invite_retransmit(self) -> None:
        period = self._waits.invite_period(self.cohort.detect)
        if period is not None:
            self._retransmit_timer = self.cohort.set_timer(period, self._retransmit_invites)

    def _retransmit_invites(self) -> None:
        cohort = self.cohort
        self._retransmit_timer = None
        if cohort.status is not Status.VIEW_MANAGER or self._formed:
            return
        resent = 0
        for peer, address in cohort.configuration:
            if peer == cohort.mymid or peer in self._responses:
                continue
            if cohort._is_suspect(peer):
                continue  # looks dead; formation will not wait for it either
            cohort.send(
                address,
                m.InviteMsg(viewid=cohort.max_viewid, manager_mid=cohort.mymid),
            )
            resent += 1
        if resent:
            cohort.metrics.incr(f"invite_retransmits:{cohort.mygroupid}", resent)
        self._arm_invite_retransmit()

    def build_acceptance(self) -> m.AcceptMsg:
        """This cohort's answer to the invitation it holds (``do_accept``):
        normal with its viewstamp, or crashed with its stable viewid."""
        cohort = self.cohort
        if cohort.up_to_date:
            return m.AcceptMsg(
                viewid=cohort.max_viewid,
                mid=cohort.mymid,
                crashed=False,
                viewstamp=cohort.history.latest,
                was_primary=cohort.cur_view is not None
                and cohort.cur_view.primary == cohort.mymid,
                crash_viewid=None,
                view=cohort.cur_view,
            )
        return m.AcceptMsg(
            viewid=cohort.max_viewid,
            mid=cohort.mymid,
            crashed=True,
            viewstamp=None,
            was_primary=False,
            crash_viewid=cohort.cur_viewid,
        )

    # ------------------------------------------------------------------
    # accepting invitations (do_accept)
    # ------------------------------------------------------------------

    def on_invite(self, msg: m.InviteMsg) -> None:
        cohort = self.cohort
        if msg.viewid < cohort.max_viewid:
            return  # "ignore the msg"
        if msg.viewid == cohort.max_viewid and cohort.status is not Status.UNDERLING:
            # Equal viewid: only re-accept while still awaiting that view.
            return
        self._do_accept(msg.viewid, msg.manager_mid)

    def _do_accept(self, viewid: ViewId, manager_mid: int) -> None:
        cohort = self.cohort
        if cohort.status is Status.ACTIVE:
            cohort.leave_active()
        cohort.max_viewid = viewid
        self._cancel_timers()
        self._installing = False
        cohort.status = Status.UNDERLING
        cohort.emit("invite_accepted", viewid, manager_mid)
        cohort.send_mid(manager_mid, self.build_acceptance())
        self._arm_await_timer()

    def _arm_await_timer(self) -> None:
        self._await_timer = self.cohort.set_timer(
            self._waits.promotion(), self._await_timeout
        )

    def _await_timeout(self) -> None:
        if self.cohort.status is Status.UNDERLING:
            self.become_manager()

    # ------------------------------------------------------------------
    # collecting acceptances and forming the view
    # ------------------------------------------------------------------

    def on_accept(self, msg: m.AcceptMsg) -> None:
        cohort = self.cohort
        if cohort.status is not Status.VIEW_MANAGER:
            return
        if msg.viewid != cohort.max_viewid:
            return  # acceptance of an older proposal of ours
        self._responses[msg.mid] = msg
        if len(self._responses) == cohort.config_size:
            self._attempt_formation()
            return
        # Section 4.1: the manager waits "to hear from all cohorts that the
        # 'I'm alive' messages indicate should reply" -- cohorts that look
        # dead are not waited for beyond this point.
        expected = {
            mid
            for mid, _addr in cohort.configuration
            if mid == cohort.mymid or not cohort._is_suspect(mid)
        }
        if set(self._responses) >= expected:
            self._attempt_formation()

    def _attempt_formation(self) -> None:
        cohort = self.cohort
        if cohort.status is not Status.VIEW_MANAGER or self._formed:
            return
        if self._invite_timer is not None:
            self._invite_timer.cancel()
            self._invite_timer = None
        if self._retransmit_timer is not None:
            self._retransmit_timer.cancel()
            self._retransmit_timer = None
        if self._retry_timer is not None:
            # A late acceptance can trigger another formation attempt while
            # a retry timer from a previous failure is still armed; without
            # cancelling it here the old timer fires alongside the new one
            # and mints two viewids back to back.
            self._retry_timer.cancel()
            self._retry_timer = None
        view = self.form_view(self._responses)
        if view is None:
            self._retry_formation()
            return
        self._formed = True
        if cohort.tracer is not None:
            cohort.emit(
                "view_formed",
                cohort.max_viewid,
                view.primary,
                sorted(view.members),
                cohort.config_size,
            )
        if self._waits.retry.restart():
            cohort.metrics.incr(f"backoff_resets:{cohort.mygroupid}")
        init = self.build_init_view(view)
        if view.primary == cohort.mymid:
            self._start_view(init)
        else:
            cohort.send_mid(view.primary, init)
            cohort.status = Status.UNDERLING
            self._arm_await_timer()

    def _retry_formation(self) -> None:
        """The formation failed: mint a fresh viewid after the retry wait."""
        cohort = self.cohort
        cohort.metrics.incr(f"view_formations_failed:{cohort.mygroupid}")
        self._retry_timer = cohort.set_timer(
            self._waits.retry.wait(cohort.sim.now), self._make_invitations
        )

    def build_init_view(self, view: View) -> m.InitViewMsg:
        """ "You start view ``max_viewid`` with *view*" -- also when the
        chosen primary is this manager itself.  It names the viewstamp of
        every other member whose state is what its viewstamp says: a normal
        acceptance from a cohort that holds records (not a witness) and was
        neither the primary of its view nor restored from stable storage
        since it last joined one (no ``view``); either may hold writes that
        no record carries (DESIGN.md D25)."""
        viewstamps = tuple(
            (a.mid, a.viewstamp)
            for a in self._responses.values()
            if a.mid != view.primary
            and not (a.crashed or a.witness or a.was_primary or a.view is None)
        )
        return m.InitViewMsg(viewid=self.cohort.max_viewid, view=view, viewstamps=viewstamps)

    def form_view(self, responses: Dict[int, m.AcceptMsg]) -> Optional[View]:
        """Apply the section-4 formation rule; None when it cannot be met."""
        cohort = self.cohort
        quorums = cohort.quorums
        accepted = list(responses.values())
        if len(accepted) < quorums.formation:
            return None
        # An acceptor that holds no state (AcceptMsg.witness) votes and
        # joins the view, but carries no evidence.
        normals = [a for a in accepted if not a.crashed and not a.witness]
        crashed = [a for a in accepted if a.crashed and not a.witness]
        if not normals:
            return None
        normal_vs: Viewstamp = max(a.viewstamp for a in normals)
        normal_viewid = normal_vs.id
        if len(normals) < quorums.normals:  # condition 1 fails
            if not crashed:
                return None
            crash_viewid = max(a.crash_viewid for a in crashed)
            cond2 = crash_viewid < normal_viewid
            cond3 = crash_viewid == normal_viewid and any(
                a.was_primary and a.viewstamp.id == normal_viewid for a in normals
            )
            cond4 = (
                crash_viewid == normal_viewid
                and cohort.config.extended_formation_rule
                and self._backups_cover_forces(normals, normal_viewid)
            )
            if not (cond2 or cond3 or cond4):
                return None
        primary = self._choose_primary(normals, normal_vs)
        backups = tuple(sorted(a.mid for a in accepted if a.mid != primary))
        if len(quorums.storage(backups)) < quorums.force:
            return None  # a view that cannot force is no view (D18)
        return View(primary=primary, backups=backups)

    def _backups_cover_forces(self, normals, normal_viewid) -> bool:
        """Extended formation condition (beyond the paper; DESIGN.md D11).

        Every force in view V required acknowledgments from a sub-majority
        ``s`` of V's ``b`` storage backups, and buffer delivery is a
        cumulative prefix of the primary's log.  Therefore if at least
        ``b - s + 1`` backups of V accepted normally, the set intersects
        every possible force quorum (``Quorums.covers_forces``), and its
        max-viewstamp member's prefix contains every forced event -- it can
        safely seed the new view even though V's primary (which the paper's
        condition 3 insists on) is gone.
        """
        members = [a for a in normals if a.viewstamp.id == normal_viewid]
        if not members:
            return False
        old_view = next((a.view for a in members if a.view is not None), None)
        mids = {a.mid for a in members}
        if old_view is None or old_view.primary in mids:
            return False  # no membership info / condition 3 territory
        return self.cohort.quorums.covers_forces(old_view.backups, mids)

    @staticmethod
    def _choose_primary(normals, normal_vs: Viewstamp) -> int:
        """Largest viewstamp wins; the old primary of that view if possible."""
        for acceptance in normals:
            if acceptance.was_primary and acceptance.viewstamp.id == normal_vs.id:
                return acceptance.mid
        candidates = [a.mid for a in normals if a.viewstamp == normal_vs]
        return min(candidates)

    # ------------------------------------------------------------------
    # starting the view (new primary path)
    # ------------------------------------------------------------------

    def on_init_view(self, msg: m.InitViewMsg) -> None:
        cohort = self.cohort
        if msg.viewid != cohort.max_viewid:
            return
        if cohort.status is Status.ACTIVE and cohort.cur_viewid == msg.viewid:
            return  # duplicate init for a view we already started
        self._start_view(msg)

    def _start_view(self, init: m.InitViewMsg) -> None:
        """Figure 5 ``start_view``: open the history entry, persist the
        viewid, then activate (``activate_as_primary`` builds the newview
        record and opens the buffer)."""
        cohort = self.cohort
        self._cancel_timers()
        viewid, view = init.viewid, init.view
        cohort.cur_view = view
        cohort.cur_viewid = viewid
        cohort.history.open_view(viewid)
        write = cohort.stable.write("cur_viewid", viewid)

        def on_durable(future) -> None:
            if cohort.max_viewid != viewid or not cohort.node.up:
                return  # preempted by a higher view while writing
            if future.exception() is not None:
                # The viewid never became durable: activating anyway would
                # break the recovery protocol's reliance on stable
                # cur_viewid (section 4).  Refuse the view and retry.
                self._on_viewid_write_failed(viewid, future.exception())
                return
            self.activate(init)

        write.add_done_callback(on_durable)

    def activate(self, init: m.InitViewMsg) -> None:
        """The viewid is durable: start the view, unless a higher one
        preempted it meanwhile."""
        cohort = self.cohort
        if cohort.max_viewid != init.viewid or not cohort.node.up:
            return
        cohort.activate_as_primary(init.viewid, init.view, init.viewstamps)

    def _on_viewid_write_failed(self, viewid: ViewId, error) -> None:
        """A ``cur_viewid`` stable write resolved to a failure (disk fault).

        The view must not be silently accepted: a manager re-enters the
        invitation round after a backoff (minting a fresh viewid), an
        underling keeps waiting so its await timer can promote it.  Either
        way the failure is counted and traced.
        """
        cohort = self.cohort
        cohort.metrics.incr(f"stable_write_failures:{cohort.mygroupid}")
        cohort.emit("stable_write_failed", viewid, "cur_viewid", error)
        if cohort.status is Status.VIEW_MANAGER:
            self._formed = False
            self._retry_formation()
            return
        # Underling: stay put; re-arm the await timer if _start_view's
        # timer sweep cancelled it, so silence still promotes us.
        if self._await_timer is None or not self._await_timer.active:
            self._arm_await_timer()

    # ------------------------------------------------------------------
    # underling: newview arriving through the buffer
    # ------------------------------------------------------------------

    def on_buffer_while_underling(self, msg: m.BufferMsg) -> None:
        cohort = self.cohort
        if msg.viewid != cohort.max_viewid or not msg.records:
            return
        first_ts, first_record = msg.records[0]
        if self._installing or first_ts != 1:
            # Of the view being formed, but ahead of its newview or of the
            # stable write that admits it: sent once, so held, not dropped.
            cohort.held.hold(msg.viewid, msg.records)
            return
        if not isinstance(first_record, NewView):
            return
        if first_record.base not in (None, cohort.history.latest):
            # A diff of the state this cohort accepted with, which a crash
            # since (its stable viewid already this view's) lost; on_recover's
            # timer starts a view change that ships it the whole gstate.
            return
        self.install_when_durable(
            msg.viewid, lambda: cohort.install_newview(msg.viewid, msg.records)
        )

    def install_when_durable(self, viewid: ViewId, install) -> None:
        """Underling: persist *viewid*, then join the view with *install*."""
        cohort = self.cohort
        self._installing = True
        write = cohort.stable.write("cur_viewid", viewid)

        def on_durable(future) -> None:
            self._installing = False
            if cohort.max_viewid != viewid or not cohort.node.up:
                return
            if cohort.status is not Status.UNDERLING:
                return
            if future.exception() is not None:
                # Joining the view without a durable cur_viewid would make
                # a later recovery report a stale crash_viewid; stay an
                # underling (the await timer still promotes us).
                self._on_viewid_write_failed(viewid, future.exception())
                return
            self._cancel_timers()
            install()

        write.add_done_callback(on_durable)

    # ------------------------------------------------------------------
    # the liveness sweep's verdict (Figure 5's "change" message)
    # ------------------------------------------------------------------

    def on_sweep(self, view_suspects, outside_live) -> None:
        """An active cohort's liveness sweep suspects *view_suspects* among
        the members it judges and hears *outside_live* outside its view
        (DESIGN.md D19): nothing to do, a mended view, or a view change."""
        if not (view_suspects or outside_live) or self.edit_view(
            view_suspects, outside_live
        ):
            self._change_pending_since = None
            return
        now = self.cohort.sim.now
        if self._change_pending_since is None:
            self._change_pending_since = now
        waited = now - self._change_pending_since
        if self.cohort.config.ordered_managers and self._defer(waited):
            return
        self._change_pending_since = None
        self.become_manager()

    def edit_view(self, view_suspects, outside_live) -> bool:
        """Whether the view was mended without a view change: never in
        Figure 5 (section 4.1's unilateral edits are the extension
        :mod:`repro.core.view_edits`)."""
        return False

    def _defer(self, waited: float) -> bool:
        """Section 4.1: become a manager only if all higher-priority
        (lower-mid) cohorts appear inaccessible -- unless the need has
        persisted for *waited*, in which case manage regardless (liveness
        fallback)."""
        cohort = self.cohort
        deferred = any(
            not cohort._is_suspect(peer)
            for peer, _addr in cohort.configuration
            if peer < cohort.mymid
        )
        return deferred and waited < 2.5 * IM_ALIVE_INTERVAL

    # ------------------------------------------------------------------

    def _cancel_timers(self) -> None:
        for timer in (
            self._invite_timer,
            self._await_timer,
            self._retry_timer,
            self._retransmit_timer,
        ):
            if timer is not None:
                timer.cancel()
        self._invite_timer = None
        self._await_timer = None
        self._retry_timer = None
        self._retransmit_timer = None
