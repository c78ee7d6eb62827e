"""Gossip heartbeats (``ScaleConfig(gossip=True)``; docs/SCALE.md).

Instead of the primary beaconing every member and each backup its primary
(DESIGN.md D19), each round reaches a seeded-random ``GOSSIP_FANOUT``
sample and carries recent first-hand liveness *evidence* -- ``(mid,
heard_at)`` pairs -- which receivers fold into their failure detector; the
epidemic relay replaces the primary's broadcast.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.config import IM_ALIVE_INTERVAL
from repro.core import messages as m
from repro.core.cohort import Status
from repro.core.extension import Extension, Table, wrap, wrap_row

#: Peers each heartbeat round targets.
GOSSIP_FANOUT = 3
#: Evidence freshness window, in ``IM_ALIVE_INTERVAL`` units: only peers
#: heard within this horizon are relayed as evidence.
EVIDENCE_HORIZON_INTERVALS = 3.0


class Gossip(Extension):
    def __init__(self, cohort, beacon_primary: bool) -> None:
        super().__init__(cohort)
        #: a backup's sample always includes its primary (lease grants ride
        #: the beacon: the primary must keep hearing it directly even on
        #: rounds the epidemic fan-out happens to miss it)
        self.beacon_primary = beacon_primary
        self._rng = cohort.runtime.sim.rng.fork(f"gossip/{cohort.address}")
        self._evidence: Tuple[Tuple[int, float], ...] = ()  # this round's
        wrap(cohort.liveness, "beacon", self._beacon_sample)
        wrap(cohort.liveness, "build_im_alive", self._carry_evidence)

    def wire(self, any_status: Table, primary_only: Table) -> None:
        wrap_row(any_status, m.ImAliveMsg, self._fold_evidence)

    def _beacon_sample(self, beacon: Callable, _all_peers) -> None:
        cohort = self.cohort
        pairs = self._sample()
        self._evidence = self._fresh_evidence()
        if self._evidence and cohort.tracer is not None:
            cohort.emit(
                "gossip_relay",
                sorted(peer for peer, _addr in pairs),
                len(self._evidence),
            )
        beacon(pairs)

    def _sample(self):
        """The (peer, address) fan-out this round beacons."""
        cohort = self.cohort
        peers = [pair for pair in cohort.configuration if pair[0] != cohort.mymid]
        k = min(GOSSIP_FANOUT, len(peers))
        if k >= len(peers):
            return peers
        chosen = self._rng.sample(peers, k)
        if (
            self.beacon_primary
            and cohort.status is Status.ACTIVE
            and cohort.cur_view is not None
            and not cohort.is_primary
        ):
            primary = cohort.cur_view.primary
            if all(peer != primary for peer, _addr in chosen):
                chosen.append((primary, cohort.peer_address(primary)))
        return chosen

    def _fresh_evidence(self) -> Tuple[Tuple[int, float], ...]:
        """Fresh (mid, heard_at) liveness evidence to relay this round."""
        cohort = self.cohort
        horizon = EVIDENCE_HORIZON_INTERVALS * IM_ALIVE_INTERVAL
        cutoff = cohort.sim.now - horizon
        evidence = []
        for peer, _addr in cohort.configuration:
            if peer == cohort.mymid:
                continue
            heard = cohort.liveness.detect.last_heard(peer)
            if heard > 0.0 and heard >= cutoff:
                evidence.append((peer, heard))
        return tuple(evidence)

    def _carry_evidence(self, build: Callable, peer: int) -> m.ImAliveMsg:
        beacon = build(peer)
        beacon.evidence = self._evidence
        return beacon

    def _fold_evidence(self, handler: Callable, msg: m.ImAliveMsg) -> None:
        # Relay hops are excluded from the RTT estimator by design; the
        # interval EWMA is fed origin-time deltas (see heard_relayed).
        cohort = self.cohort
        for peer, heard_at in msg.evidence:
            if peer == cohort.mymid or peer == msg.mid:
                continue
            cohort.liveness.detect.heard_relayed(peer, heard_at)
        handler(msg)
