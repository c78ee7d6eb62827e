"""Client-side commit-set cache (Wren-style).

A driver with ``ReadConfig.client_cache`` enabled remembers the
``(key, value, timestamp)`` triples it has observed -- committed writes
it issued and read replies it received -- in a *commit set*.  A lookup
within the staleness window is answered locally without any network
round trip at all.

Pruning follows the Wren client cache: entries older than a stable
timestamp watermark ``lst = now - CACHE_STALENESS`` are discarded
wholesale, so the cache can never serve a value staler than the window.
A capacity bound evicts oldest-first on top of that.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

#: Watermark window: entries with a timestamp older than ``now -
#: CACHE_STALENESS`` are pruned (``t >= lst`` survives).
CACHE_STALENESS = 25.0
#: Commit-set entries kept per driver (oldest evicted beyond this).
CACHE_CAPACITY = 1024


class CommitSetCache:
    """Bounded commit set of (key, value, timestamp) entries."""

    def __init__(
        self, clock, staleness: float = CACHE_STALENESS, capacity: int = CACHE_CAPACITY
    ):
        self.staleness = staleness
        self.capacity = capacity
        self.clock = clock
        self.commit_set: List[Tuple[str, Any, float]] = []
        self.hits = 0
        self.misses = 0

    def note(self, key: str, value: Any, t: Optional[float] = None) -> None:
        """Record an observed committed value for *key* at time *t*."""
        if t is None:
            t = self.clock()
        self.commit_set.append((key, value, t))
        self.prune()

    def prune(self) -> None:
        """Drop entries older than the stable-timestamp watermark, then
        enforce capacity oldest-first."""
        lst = self.clock() - self.staleness
        self.commit_set[:] = [
            (k, v, t) for (k, v, t) in self.commit_set if t >= lst
        ]
        if len(self.commit_set) > self.capacity:
            del self.commit_set[: len(self.commit_set) - self.capacity]

    def lookup(
        self, key: str, max_staleness: Optional[float] = None
    ) -> Optional[Tuple[Any, float]]:
        """Newest cached (value, staleness) for *key* within the tighter of
        the cache window and the request bound, or None."""
        self.prune()
        now = self.clock()
        bound = self.staleness
        if max_staleness is not None:
            bound = min(bound, max_staleness)
        for k, v, t in reversed(self.commit_set):
            if k == key and now - t <= bound:
                self.hits += 1
                return v, now - t
        self.misses += 1
        return None

    def __len__(self) -> int:
        return len(self.commit_set)
