"""Round-trip estimation and the timeouts derived from it.

The estimator is the classic Jacobson/Karels pair of exponentially
weighted moving averages (SRTT and RTTVAR, RFC 6298 coefficients) that
TCP uses for its retransmission timer.  Samples come from two places:

- heartbeat one-way delays (``ImAliveMsg.sent_at`` against the receiver's
  clock, doubled -- the simulator has a global clock, so this is exact);
- observed call round trips (request sent to reply received).

Call samples include server-side processing -- a call blocked on a lock
inflates SRTT -- which errs on the conservative side: timeouts grow
toward their fixed ceilings, they never become trigger-happy.
"""

from __future__ import annotations

from typing import Optional

from repro.config import CALL_PROBES, COMMIT_RETRY_INTERVAL, MIN_TIMEOUT, PREPARE_TIMEOUT
from repro.detect.backoff import Backoff, Retry


class RttEstimator:
    """Jacobson/Karels smoothed RTT + variance -> retransmission timeout.

    ``rto`` is ``srtt + k * rttvar`` (k=4, as in TCP).  Until the first
    sample arrives the estimator reports ``None`` so consumers can fall
    back to their configured fixed timeout.
    """

    __slots__ = ("srtt", "rttvar", "samples", "_alpha", "_beta", "_k")

    def __init__(self, alpha: float = 0.125, beta: float = 0.25, k: float = 4.0):
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.samples = 0
        self._alpha = alpha
        self._beta = beta
        self._k = k

    def observe(self, sample: float) -> None:
        """Feed one round-trip sample (ignored if non-positive)."""
        if sample <= 0.0:
            return
        self.samples += 1
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
            return
        self.rttvar = (1.0 - self._beta) * self.rttvar + self._beta * abs(
            self.srtt - sample
        )
        self.srtt = (1.0 - self._alpha) * self.srtt + self._alpha * sample

    @property
    def rto(self) -> Optional[float]:
        """Current retransmission timeout, or None before any sample."""
        if self.srtt is None:
            return None
        return self.srtt + self._k * self.rttvar

    def reset(self) -> None:
        self.srtt = None
        self.rttvar = 0.0
        self.samples = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.srtt is None:
            return "RttEstimator(no samples)"
        return (
            f"RttEstimator(srtt={self.srtt:.3f}, rttvar={self.rttvar:.3f}, "
            f"rto={self.rto:.3f}, n={self.samples})"
        )


class AdaptiveTimeouts:
    """Protocol timeouts derived from a live RTO instead of constants.

    Each derived timeout is ``multiplier * rto`` plus a slack term for any
    known server-side waiting (a prepare may sit behind a buffer flush,
    for example), clamped to ``[MIN_TIMEOUT, fixed]`` where ``fixed`` is
    the paper-faithful wait from :mod:`repro.config`.  The clamp means adaptive mode
    can only detect failures *faster* than the fixed configuration, never
    wait longer; and with ``adaptive_timeouts`` off (or before the first
    RTT sample) every method returns exactly the fixed constant.  It also
    hands each retrier its :class:`~repro.detect.backoff.Retry`.
    """

    def __init__(self, config, rtt: RttEstimator):
        self.config = config
        self.rtt = rtt

    # -- the retry schedules (DESIGN.md D21): the one place the mode is read --

    def call_retry(self, rng) -> Retry:
        """A call's retransmits (Figure 2's probes): ``CALL_PROBES`` waits of
        ``call_timeout``; adaptive, backed-off RTT waits on *rng* within the
        same total patience, the last one clamped to it."""
        config = self.config
        if not config.adaptive_timeouts:
            return Retry(self.call_timeout, CALL_PROBES)
        return Retry(
            self.call_timeout,
            patience=config.call_timeout * CALL_PROBES,
            backoff=Backoff(config.call_timeout, rng),
            clamp=True,
        )

    def prepare_retry(self, rounds: int) -> Retry:
        """A coordinator's prepare rounds: *rounds* waits of
        ``PREPARE_TIMEOUT``; adaptive, RTT waits within the same total
        patience (the last one is not clamped)."""
        if not self.config.adaptive_timeouts:
            return Retry(self.prepare_timeout, rounds)
        return Retry(self.prepare_timeout, patience=PREPARE_TIMEOUT * max(1, rounds))

    def commit_retry(self) -> Retry:
        """A coordinator's commit re-sends: every ``commit_retry_interval``,
        with no end of patience (phase two never gives up)."""
        return Retry(self.commit_retry_interval)

    def request_retry(self, retries: int, rng, wait: Optional[float] = None) -> Retry:
        """A driver's re-sends: ``retries + 1`` waits, counted in both modes,
        of *wait* verbatim or else of thrice an end-to-end transaction time
        (at most twice ``call_timeout``), backed off on *rng* when adaptive."""
        if wait is not None:
            return Retry(lambda: wait, retries + 1)
        derived = self._derive(self.config.call_timeout * 2, 3.0)
        backoff = Backoff(derived, rng) if self.config.adaptive_timeouts else None
        return Retry(lambda: derived, retries + 1, backoff=backoff)

    # -- the derived waits ------------------------------------------------------

    def _derive(self, fixed: float, multiplier: float, slack: float = 0.0) -> float:
        if not self.config.adaptive_timeouts:
            return fixed
        rto = self.rtt.rto
        if rto is None:
            return fixed
        return min(fixed, max(MIN_TIMEOUT, multiplier * rto + slack))

    def call_timeout(self) -> float:
        """Per-attempt wait for a call reply (retransmits probe sooner)."""
        return self._derive(self.config.call_timeout, 3.0)

    def prepare_timeout(self) -> float:
        """Coordinator's wait for prepare-ok: the participant may have to
        force, which can sit behind a flush interval."""
        return self._derive(PREPARE_TIMEOUT, 4.0, slack=2.0 * self.config.flush_interval)

    def commit_retry_interval(self) -> float:
        """Coordinator's commit re-send period: the participant forces the
        committed record before acknowledging."""
        return self._derive(COMMIT_RETRY_INTERVAL, 3.0, slack=self.config.flush_interval)
