"""Retry pacing: the schedule every retry path holds (DESIGN.md D21).

In adaptive mode a :class:`Retry` draws from a capped exponential
:class:`Backoff` so that (a) persistent failures are retried progressively
less often and (b) *competing* retriers -- most importantly duelling view
managers, which with symmetric fixed delays mint competing viewids in
lockstep forever -- desynchronize.  Jitter comes from a named fork of the
simulator's seeded RNG, so the "random" spread is byte-for-byte reproducible
for a given seed; a fixed-mode schedule never draws.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.config import INVITE_TIMEOUT, MIN_TIMEOUT, UNDERLING_TIMEOUT

#: Growth factor of every retry backoff (view-change retries, call
#: retransmits, driver resubmits), its ceiling as a multiple of the base
#: delay, and the jitter band (delay scaled by 1 +/- jitter/2).
MULTIPLIER = 2.0
CAP_FACTOR = 8.0
JITTER = 0.5
#: A manager whose formation failed retries after this long (the base of its
#: backoff in adaptive mode).
VIEW_RETRY_DELAY = 25.0
#: Spread of the underling -> manager timeout in adaptive mode
#: (``UNDERLING_TIMEOUT`` x [1, 1 + PROMOTION_JITTER)), desynchronizing
#: competing managers.
PROMOTION_JITTER = 0.5


class Backoff:
    """Delay policy: ``min(base * multiplier**n, base * cap_factor)``,
    scaled by a jitter factor drawn uniformly from
    ``[1 - jitter/2, 1 + jitter/2]``.

    ``n`` is the number of draws since the last :meth:`reset`.  The base
    may be overridden per draw (callers whose base delay is itself
    adaptive -- e.g. RTT-derived call timeouts -- pass the live value).
    """

    __slots__ = ("base", "rng", "multiplier", "cap_factor", "jitter", "attempts")

    def __init__(
        self,
        base: float,
        rng,
        multiplier: float = MULTIPLIER,
        cap_factor: float = CAP_FACTOR,
        jitter: float = JITTER,
    ):
        if base <= 0:
            raise ValueError("backoff base must be > 0")
        if multiplier < 1.0:
            raise ValueError("backoff multiplier must be >= 1")
        if cap_factor < 1.0:
            raise ValueError("backoff cap_factor must be >= 1")
        if not 0.0 <= jitter < 2.0:
            raise ValueError("backoff jitter must be in [0, 2)")
        self.base = base
        self.rng = rng
        self.multiplier = multiplier
        self.cap_factor = cap_factor
        self.jitter = jitter
        self.attempts = 0

    def next(self, base: Optional[float] = None) -> float:
        """The next delay; advances the attempt counter."""
        b = self.base if base is None else base
        nominal = min(b * self.multiplier**self.attempts, b * self.cap_factor)
        self.attempts += 1
        if self.jitter > 0.0:
            nominal *= 1.0 + self.jitter * (self.rng.random() - 0.5)
        return nominal

    def reset(self) -> bool:
        """Restart from the base delay; True if any attempts were pending."""
        had_attempts = self.attempts > 0
        self.attempts = 0
        return had_attempts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Backoff(base={self.base}, x{self.multiplier}, "
            f"cap={self.cap_factor}x, attempts={self.attempts})"
        )


@dataclasses.dataclass(slots=True)
class Retry:
    """One retrier's schedule: :meth:`wait` before each timed send,
    :meth:`expired` when a wait runs out, :meth:`restart` for full patience.

    The wait is ``base()``, grown and jittered by ``backoff`` if given.
    Patience is ``attempts`` expiries (None: never spent) or, given
    ``patience``, a deadline that long after the first wait, on which
    ``clamp`` ends the last wait.  :class:`~repro.detect.AdaptiveTimeouts`
    builds one per retrier and picks the mode.
    """

    base: Callable[[], float]
    attempts: Optional[int] = None
    patience: Optional[float] = None
    backoff: Optional[Backoff] = None
    clamp: bool = False
    expiries: int = 0
    deadline: Optional[float] = None

    def wait(self, now: float) -> float:
        delay = self.base()
        if self.backoff is not None:
            delay = self.backoff.next(delay)
        if self.patience is not None:
            if self.deadline is None:
                self.deadline = now + self.patience
            if self.clamp:
                delay = max(min(delay, self.deadline - now), 0.0)
        return delay

    def expired(self, now: float) -> bool:
        """A wait ran out: is patience spent?"""
        if self.patience is not None:
            return now >= self.deadline - 1e-9
        self.expiries += 1
        return self.attempts is not None and self.expiries >= self.attempts

    def restart(self) -> bool:
        """Full patience again; True if a backed-off wait had been drawn."""
        self.expiries = 0
        self.deadline = None
        return self.backoff is not None and self.backoff.reset()


class ViewChangeWaits:
    """A cohort's view-change timing: the formation ``retry``, the
    underling's :meth:`promotion` wait and the manager's
    :meth:`invite_period`.  Fixed mode is the paper's constants and no
    invite re-sends; adaptive mode backs the retry off and stretches the
    promotion, each on a stream of its own named after *name*."""

    def __init__(self, config, rng, name: str):
        self.config = config
        adaptive = config.adaptive_timeouts
        backoff = Backoff(VIEW_RETRY_DELAY, rng.fork(f"vc-backoff/{name}")) if adaptive else None
        self.retry = Retry(lambda: VIEW_RETRY_DELAY, backoff=backoff)
        self._stretch = rng.fork(f"vc-await/{name}") if adaptive else None

    def promotion(self) -> float:
        delay = UNDERLING_TIMEOUT
        if self._stretch is not None:  # only ever *extends* "fairly long"
            delay *= 1.0 + PROMOTION_JITTER * self._stretch.random()
        return delay

    def invite_period(self, detect) -> Optional[float]:
        """Adaptive: re-send invites every couple of the detector's round
        trips, so that a lost invite or accept does not stall the round for
        the whole ``INVITE_TIMEOUT``; at least one re-send per round."""
        if not self.config.adaptive_timeouts:
            return None
        rto = detect.group_rto()
        if rto is not None:
            period = max(MIN_TIMEOUT, 2.0 * rto)
        else:
            period = INVITE_TIMEOUT / 4.0
        return min(period, INVITE_TIMEOUT / 2.0)
