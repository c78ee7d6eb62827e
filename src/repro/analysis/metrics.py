"""Counters and latency statistics for simulations.

A single :class:`Metrics` instance is threaded through the network and the
protocol layers.  It is deliberately dependency-free (no simulator imports)
so any component can record into it.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from typing import Dict, Iterable, Optional


class LatencyStat:
    """Summary of a latency series (count/mean/min/max/percentiles).

    Keeps every raw sample, in the order recorded, as a C double in one
    ``array('d')`` (8 bytes each, against 32 for a list slot and its float
    object): exact percentiles over tens of thousands of transactions are
    affordable and more useful than sketches.  ``samples`` slices and
    iterates as a list of floats does, but compares equal only to another
    array: compare ``list(stat.samples)``.
    """

    def __init__(self) -> None:
        self.samples = array("d")

    def record(self, value: float) -> None:
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else math.nan

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else math.nan

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else math.nan

    def percentile(self, p: float) -> float:
        """Exact percentile via nearest-rank; ``p`` in [0, 100]."""
        if not self.samples:
            return math.nan
        ordered = sorted(self.samples)
        if p <= 0:
            return ordered[0]
        if p >= 100:
            return ordered[-1]
        rank = max(1, math.ceil(len(ordered) * p / 100.0))
        return ordered[rank - 1]

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.samples:
            return "LatencyStat(empty)"
        return (
            f"LatencyStat(n={self.count}, mean={self.mean:.4f}, "
            f"p50={self.p50:.4f}, p99={self.p99:.4f})"
        )


class Metrics:
    """Message, byte, and event accounting for one simulation run."""

    def __init__(self) -> None:
        self.messages_sent: Dict[str, int] = defaultdict(int)
        self.messages_delivered: Dict[str, int] = defaultdict(int)
        self.messages_dropped: Dict[str, int] = defaultdict(int)
        self.messages_duplicated: Dict[str, int] = defaultdict(int)
        self.bytes_sent: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)
        self.latencies: Dict[str, LatencyStat] = defaultdict(LatencyStat)

    # -- message plane ------------------------------------------------------

    def on_send(self, msg_type: str, size: int) -> None:
        self.messages_sent[msg_type] += 1
        self.bytes_sent[msg_type] += size

    def on_deliver(self, msg_type: str) -> None:
        self.messages_delivered[msg_type] += 1

    def on_drop(self, msg_type: str) -> None:
        self.messages_dropped[msg_type] += 1

    def on_duplicate(self, msg_type: str) -> None:
        self.messages_duplicated[msg_type] += 1

    # -- generic counters/latencies -----------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def observe(self, name: str, value: float) -> None:
        self.latencies[name].record(value)

    # -- aggregation -----------------------------------------------------------

    def total_sent(self, msg_types: Optional[Iterable[str]] = None) -> int:
        if msg_types is None:
            return sum(self.messages_sent.values())
        return sum(self.messages_sent.get(t, 0) for t in msg_types)

    def total_bytes(self, msg_types: Optional[Iterable[str]] = None) -> int:
        if msg_types is None:
            return sum(self.bytes_sent.values())
        return sum(self.bytes_sent.get(t, 0) for t in msg_types)

    def snapshot(self) -> dict:
        """A plain-dict copy, for diffing windows of a run."""
        return {
            "sent": dict(self.messages_sent),
            "delivered": dict(self.messages_delivered),
            "dropped": dict(self.messages_dropped),
            "bytes": dict(self.bytes_sent),
            "counters": dict(self.counters),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Metrics(sent={self.total_sent()}, "
            f"bytes={self.total_bytes()}, counters={len(self.counters)})"
        )
