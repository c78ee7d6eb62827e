"""Seeded random-number streams with deterministic forking.

Every source of randomness in a simulation (network delays, workload
inter-arrival times, failure schedules, ...) draws from its own named
sub-stream so that adding a new consumer of randomness never perturbs the
draws seen by existing consumers.  This is what makes regression tests on
end-to-end simulations stable.

The module is also the one owner of ``sha256``, which every digest in the
package imports from here.  It is CPython's built-in SHA-2 (the way
``random`` takes its sha512), because ``hashlib`` maps OpenSSL's libcrypto,
~3 MB of resident memory a run never uses; the same function, so every
stream and digest is the same.  ``hashlib`` is only the fallback for a build
without the built-in modules (``tests/core/test_api_hygiene.py``).
"""

from __future__ import annotations

import random

try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.11
    except ImportError:  # pragma: no cover - a build without the modules
        from hashlib import sha256


class SeededRng:
    """A ``random.Random`` wrapper that can fork named, independent streams.

    Forking is deterministic: ``SeededRng(1).fork("net")`` always produces the
    same stream, regardless of how many other streams were forked before it.
    """

    def __init__(self, seed: int | str, _name: str = "root") -> None:
        self.seed = seed
        self.name = _name
        digest = sha256(f"{seed}/{_name}".encode()).digest()
        self._random = random.Random(int.from_bytes(digest[:8], "big"))
        #: The stream's own C ``random()``: the per-message draws pay no wrapper.
        self.random = self._random.random

    def fork(self, name: str) -> "SeededRng":
        """Return an independent stream derived from this one and *name*."""
        return SeededRng(self.seed, _name=f"{self.name}/{name}")

    # -- draw helpers -----------------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def choice(self, seq):
        return self._random.choice(seq)

    def sample(self, seq, k: int):
        return self._random.sample(seq, k)

    def shuffle(self, seq) -> None:
        self._random.shuffle(seq)

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeededRng(seed={self.seed!r}, name={self.name!r})"
