"""One cohort's "I'm alive" protocol (section 4; DESIGN.md D14, D19).

Section 4 asks only that "cohorts send periodic 'I'm alive' messages", so
that each can tell whom it can reach.  :class:`Liveness` is that obligation
for one :class:`~repro.core.cohort.Cohort` and the one place that decides
what counts as evidence of life: buffer traffic stands in for a beacon
(D14), a backup that trusts its primary beacons only the primary and vouches
for its fellow backups (D19), and an active cohort's sweep hands what it
finds to the view-change controller.  Other modules ask :meth:`suspects`.
Extensions wrap :meth:`beacon` and :meth:`build_im_alive`, so the cohort
builds its owner before them.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.config import IM_ALIVE_INTERVAL
from repro.core import messages as m
from repro.core.cohort import Status
from repro.detect.suspicion import FailureDetector

_NEVER = -math.inf  # when a peer nothing was sent to was last served


class Liveness:
    """The heartbeat, the traffic that stands in for it, and the sweep."""

    def __init__(self, cohort) -> None:
        self.cohort = cohort
        self.detect = FailureDetector(
            cohort.config,
            peers=[peer for peer, _addr in cohort.configuration if peer != cohort.mymid],
            clock=lambda: cohort.sim.now,
            on_transition=self._on_transition,
        )
        # Per peer: when a buffer message or ack last went to it (a beacon
        # to a peer served within half an interval is redundant) and when
        # one last carried sent_at (the estimators keep the beacon's cadence).
        self._half_interval = 0.5 * IM_ALIVE_INTERVAL
        self._suppressed_key = f"heartbeats_suppressed:{cohort.mygroupid}"
        self._served: Dict[int, float] = {}
        self._stamped: Dict[int, float] = {}

    def start(self) -> None:
        """Arm the first heartbeat round, half to one and a half intervals
        out.  On recovery, last-heard times within one suspect window still
        count as evidence, but anything older is aged out: after a long
        downtime a pre-crash heartbeat (and the loss-stretched cadence
        learned from it) must not make the cohort treat a dead peer as
        live.  What was sent before the crash serves no peer now."""
        cohort = self.cohort
        self.detect.age_out(cohort.sim.now - cohort.config.suspect_timeout())
        self._served.clear()
        self._stamped.clear()
        jitter = cohort.runtime.sim.rng.fork(f"hb/{cohort.address}").uniform(0.0, 1.0)
        cohort.set_timer(IM_ALIVE_INTERVAL * (0.5 + jitter), self._heartbeat)

    # -- buffer traffic: the evidence a beacon is (D14) ------------------------

    def send_traffic(self, mid: int, message) -> None:
        """Send a buffer message or ack: the evidence of life an "I'm alive"
        is (section 4), so the next beacon round may skip *mid*."""
        cohort = self.cohort
        now = self._served[mid] = cohort.sim.now
        if now - self._stamped.get(mid, _NEVER) >= self._half_interval:
            message.sent_at = self._stamped[mid] = now
        cohort.send(cohort.peer_address(mid), message)

    def heard_traffic(self, mid: int, sent_at: Optional[float]) -> None:
        """A buffer message or ack from *mid* arrived: the evidence of life
        a beacon is.  Only a stamped one (or one that ends a suspicion) is a
        sample for the estimators; the rest only refresh ``last_heard``."""
        peer = self.detect.peers.get(mid)
        if peer is None or peer.suspected or sent_at is not None:
            self.detect.heard(mid, sent_at)
        else:
            peer.last_heard = self.cohort.sim.now

    # -- the heartbeat round -----------------------------------------------------

    def _heartbeat(self) -> None:
        cohort = self.cohort
        self.beacon(self._beacon_targets())
        if cohort.status is Status.ACTIVE:
            self._sweep()
        cohort.set_timer(IM_ALIVE_INTERVAL, self._heartbeat)

    def _beacon_targets(self):
        """Every other cohort -- but a backup that trusts its primary
        beacons only the primary and whoever is outside the view, and its
        fellow backups are alive on the primary's word (DESIGN.md D19)."""
        cohort = self.cohort
        view = cohort.cur_view
        if (
            cohort.status is not Status.ACTIVE
            or cohort.is_primary
            or self.suspects(view.primary)
        ):
            return cohort.configuration
        now, members = cohort.sim.now, view.members
        targets = []
        for pair in cohort.configuration:
            peer = pair[0]
            if peer == view.primary or peer not in members:
                targets.append(pair)
            elif peer != cohort.mymid:
                self.detect.vouch(peer, now)
        return targets

    def beacon(self, pairs) -> None:
        """One round of "I'm alive": to each other cohort of *pairs* that
        buffer traffic did not reach within the last half interval."""
        cohort = self.cohort
        served = self._served
        silent_since = cohort.sim.now - self._half_interval
        suppressed = 0
        for peer, address in pairs:
            if peer == cohort.mymid:
                continue
            if served.get(peer, _NEVER) > silent_since:
                suppressed += 1
            else:
                cohort.send(address, self.build_im_alive(peer))
        if suppressed:
            cohort.metrics.incr(self._suppressed_key, suppressed)

    def build_im_alive(self, peer: int) -> m.ImAliveMsg:
        cohort = self.cohort
        return m.ImAliveMsg(
            mid=cohort.mymid, viewid=cohort.cur_viewid, sent_at=cohort.sim.now
        )

    def on_im_alive(self, msg: m.ImAliveMsg) -> None:
        """The cohort's ``ImAliveMsg`` row."""
        cohort = self.cohort
        # A query, not a judgement: hearing a long-silent peer is no
        # suspicion of it.
        previously_silent = self.detect.silent(msg.mid)
        self.detect.heard(msg.mid, sent_at=msg.sent_at)
        if (
            cohort.status is Status.ACTIVE
            and previously_silent
            and msg.mid not in cohort.cur_view
        ):
            # Communication with an excluded cohort resumed (section 4:
            # "...or if it notices that it is communicating with a cohort
            # that it could not communicate with previously").
            self._sweep()

    # -- suspicion -------------------------------------------------------------

    def suspects(self, mid: int) -> bool:
        """Whether *mid* looks dead, recording the suspicion when it is new."""
        return self.detect.is_suspect(mid)

    def _on_transition(self, mid: int, suspected: bool) -> None:
        """The failure detector changed its mind about a peer."""
        cohort = self.cohort
        if suspected:
            cohort.metrics.incr(f"detector_suspicions:{cohort.mygroupid}")
        cohort.runtime.ledger.record_detector_event(
            kind="suspect" if suspected else "trust",
            groupid=cohort.mygroupid,
            observer=cohort.mymid,
            target=mid,
            at=cohort.sim.now,
        )

    def _sweep(self) -> None:
        """Who is suspect, and who is live outside the view; the view-change
        controller decides what that calls for.  The primary judges its
        view; a backup judges its primary (D19)."""
        cohort = self.cohort
        view = cohort.cur_view
        judged = view.members if cohort.is_primary else (view.primary,)
        cohort.view_change.on_sweep(
            [peer for peer in judged if peer != cohort.mymid and self.suspects(peer)],
            [
                peer for peer, _addr in cohort.configuration
                if peer not in view and not self.suspects(peer)
            ],
        )
