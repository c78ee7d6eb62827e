"""Accrual-style failure suspicion from the heartbeat arrival process.

The paper's failure detector is a fixed threshold: silence longer than
``suspect_timeout()`` (a multiple of the configured heartbeat period)
marks a cohort unreachable.  On a lossy or jittery link that constant is
wrong in both directions -- too eager when beats are merely dropped, too
lazy when the link is actually fast.  Following the phi-accrual idea
(Hayashibara et al.), each peer's *observed* inter-arrival process is
summarized (EWMA mean + mean absolute deviation), and the suspicion level
is the current silence expressed in units of the expected inter-arrival
time.  Crossing ``config.suspect_multiplier`` marks the peer suspect --
the same threshold semantics as the fixed detector, but against a learned
baseline that widens automatically when the network drops beats.

With ``config.adaptive_timeouts`` off the detector reproduces the paper's
fixed rule exactly (silence > ``suspect_timeout()``), so ablations compare
like with like.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.config import IM_ALIVE_INTERVAL
from repro.detect.rtt import RttEstimator


class PeerState:
    """What one cohort knows about one peer, written only in
    :mod:`repro.detect`: :meth:`FailureDetector.heard` on an arrival, and
    :meth:`~repro.detect.liveness.Liveness.heard_traffic` moves
    ``last_heard`` alone for traffic that carries no timing sample.
    ``vouched_at`` is the primary's word (:meth:`FailureDetector.vouch`)."""

    __slots__ = (
        "last_heard", "vouched_at", "mean_interval", "interval_dev", "rtt", "suspected"
    )

    def __init__(self) -> None:
        self.last_heard = 0.0
        self.vouched_at = 0.0
        self.mean_interval: Optional[float] = None
        self.interval_dev = 0.0
        self.rtt = RttEstimator()
        self.suspected = False

    def latest(self) -> float:
        """When the peer was last known alive, first-hand or on the
        primary's word: its silence counts from here."""
        return max(self.last_heard, self.vouched_at)


class FailureDetector:
    """Per-peer liveness estimation for one cohort.

    ``clock`` is a zero-argument callable returning the current simulated
    time; ``on_transition(mid, suspected)`` (optional) fires whenever a
    peer crosses the suspicion threshold in either direction, so hosts
    can count suspicions in metrics and the ledger.
    """

    #: EWMA gain for the inter-arrival mean/deviation (slow enough to ride
    #: out a couple of dropped beats, fast enough to track a mode change).
    GAIN = 0.2

    def __init__(
        self,
        config,
        peers: Iterable[int],
        clock: Callable[[], float],
        on_transition: Optional[Callable[[int, bool], None]] = None,
    ):
        self.config = config
        self.clock = clock
        self.on_transition = on_transition
        self.peers: Dict[int, PeerState] = {mid: PeerState() for mid in peers}

    def age_out(self, cutoff: float) -> list:
        """Forget peers whose evidence predates *cutoff*; returns their mids.

        Used on crash recovery: a heartbeat heard before a long downtime is
        not liveness evidence *now*, and a learned inter-arrival cadence
        stretched by pre-crash loss would make post-recover suspicion far
        too lazy.  Peers heard at or after *cutoff* keep their state (their
        beats genuinely are recent).
        """
        aged = []
        for mid, state in self.peers.items():
            if 0.0 < state.latest() < cutoff:
                self.peers[mid] = PeerState()
                aged.append(mid)
        return aged

    # -- feeding ------------------------------------------------------------

    def heard(
        self, mid: int, sent_at: Optional[float] = None, at: Optional[float] = None
    ) -> None:
        """A liveness-bearing message from *mid* arrived just now (or a relay
        says *mid* was alive at *at*: :meth:`heard_relayed`)."""
        state = self.peers.get(mid)
        if state is None:
            return
        now = self.clock() if at is None else at
        previous = state.latest()
        if previous > 0.0:
            interval = now - previous
            # A silence past the suspicion threshold is an outage, not a
            # cadence: the mean learns only gaps it would have tolerated.
            if 0.0 < interval <= self.config.suspect_multiplier * self.expected_interval(mid):
                if state.mean_interval is None:
                    state.mean_interval = interval
                    state.interval_dev = interval / 2.0
                else:
                    gain = self.GAIN
                    state.interval_dev = (1.0 - gain) * state.interval_dev + (
                        gain * abs(interval - state.mean_interval)
                    )
                    state.mean_interval = (
                        1.0 - gain
                    ) * state.mean_interval + gain * interval
        state.last_heard = now
        if sent_at is not None and now >= sent_at:
            # Global simulated clock: one-way delay doubled is an exact RTT.
            state.rtt.observe(2.0 * (now - sent_at))
        if state.suspected:
            self._trust(mid, state)

    def heard_relayed(self, mid: int, evidence_at: float) -> None:
        """Second-hand liveness: a relay says *mid* was alive at *evidence_at*.

        Gossip (repro.scale) forwards ``(mid, heard_at)`` evidence through
        intermediaries, so the hop count between the evidence's origin and
        us is unknown -- relayed evidence must NOT feed the RTT estimator:
        a Jacobson/Karels sample inflated by relay hops would corrupt every
        RTO-derived timeout.  ``last_heard`` advances monotonically in
        *origin* time, and the inter-arrival EWMA is fed the origin-time
        delta: under epidemic dissemination a peer is heard *directly*
        only every ~``n/fanout`` periods, so arrival spacing of direct
        beats would learn an absurdly lazy baseline, while the cadence at
        which fresh evidence about the peer reaches us is exactly the
        expected-silence unit the accrual threshold should use.
        """
        if evidence_at > self.last_heard(mid):
            self.heard(mid, at=evidence_at)

    def vouch(self, mid: int, at: float) -> None:
        """The primary's word: *mid* is a member of the view that the
        primary this cohort trusts maintains, alive as of *at* (DESIGN.md
        D19).  Silence is measured from it as from a beacon, and it ends a
        suspicion as hearing does, but it is no arrival: neither estimator
        gets a sample, and ``last_heard`` -- first-hand evidence, what gossip
        relays -- does not move, so the word never returns to the primary."""
        state = self.peers.get(mid)
        if state is None:
            return
        state.vouched_at = at
        if state.suspected:
            self._trust(mid, state)

    def _trust(self, mid: int, state: PeerState) -> None:
        state.suspected = False
        if self.on_transition is not None:
            self.on_transition(mid, False)

    # -- querying -----------------------------------------------------------

    def last_heard(self, mid: int) -> float:
        state = self.peers.get(mid)
        return state.last_heard if state is not None else 0.0

    def expected_interval(self, mid: int) -> float:
        """Learned heartbeat inter-arrival estimate (mean + 2 deviations),
        never below the configured period (loss can only stretch it)."""
        configured = IM_ALIVE_INTERVAL
        state = self.peers.get(mid)
        if state is None or state.mean_interval is None:
            return configured
        return max(configured, state.mean_interval + 2.0 * state.interval_dev)

    def suspicion(self, mid: int) -> float:
        """Accrual level: current silence in expected inter-arrival units."""
        state = self.peers.get(mid)
        if state is None:
            return 0.0
        return self._silence(state) / self.expected_interval(mid)

    def silent(self, mid: int) -> bool:
        """Has *mid*'s silence crossed the threshold?  A query: unlike
        :meth:`is_suspect` it records no suspicion."""
        state = self.peers.get(mid)
        if state is None:
            return False
        if self.config.adaptive_timeouts:
            return self.suspicion(mid) > self.config.suspect_multiplier
        return self._silence(state) > self.config.suspect_timeout()

    def _silence(self, state: PeerState) -> float:
        return self.clock() - state.latest()

    def is_suspect(self, mid: int) -> bool:
        """:meth:`silent`, recording the suspicion when it is new."""
        if not self.silent(mid):
            return False
        state = self.peers[mid]
        if not state.suspected:
            state.suspected = True
            if self.on_transition is not None:
                self.on_transition(mid, True)
        return True

    def rto(self, mid: int) -> Optional[float]:
        state = self.peers.get(mid)
        return state.rtt.rto if state is not None else None

    def group_rto(self) -> Optional[float]:
        """The slowest live peer RTO (None before any heartbeat sample)."""
        rtos = [
            state.rtt.rto
            for state in self.peers.values()
            if state.rtt.rto is not None
        ]
        return max(rtos) if rtos else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FailureDetector(peers={sorted(self.peers)})"
