"""Capped exponential backoff with deterministic seeded jitter.

Every retry path in the protocol draws its delay from a :class:`Backoff`
so that (a) persistent failures are retried progressively less often and
(b) *competing* retriers -- most importantly duelling view managers,
which with symmetric fixed delays mint competing viewids in lockstep
forever -- desynchronize.  Jitter comes from a named fork of the
simulator's seeded RNG, so the "random" spread is byte-for-byte
reproducible for a given seed.
"""

from __future__ import annotations

from typing import Optional

#: Growth factor of every retry backoff (view-change retries, call
#: retransmits, driver resubmits), its ceiling as a multiple of the base
#: delay, and the jitter band (delay scaled by 1 +/- jitter/2).
MULTIPLIER = 2.0
CAP_FACTOR = 8.0
JITTER = 0.5


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
