"""repro.scale: mechanisms that keep large cohorts tractable (docs/SCALE.md).

VR'88 assumes every backup talks directly to the primary: the primary
heartbeats every member and hears every backup's heartbeats and buffer
acks, an O(n) hot spot.  "Can 100 Machines Agree?" (PAPERS.md) shows
agreement protocols degrade qualitatively around n=100; this package adds the
three classic remedies -- **gossip heartbeats** (:mod:`repro.scale.gossip`),
**ack trees** (:mod:`repro.scale.ack_tree`) and **witness replicas**
(:mod:`repro.scale.witness`) -- each independently toggleable through
:class:`repro.config.ScaleConfig`, each one cohort extension
(:mod:`repro.core.extension`), and each *off by the absence of the
config*: ``ProtocolConfig.scale is None`` (or a ScaleConfig with every
mechanism off) builds none of them, never imports this package, and
replays the paper-faithful schedules byte-for-byte, proven by the
``all-off`` row of ``python -m repro.gate scale``.  This module
holds the :class:`AckTree` topology; how many witnesses a group may have,
and which, is its :class:`~repro.core.quorum.Quorums`.
"""

from __future__ import annotations

from typing import Iterable, Tuple

__all__ = ["AckTree"]


class AckTree:
    """The deterministic fan-in tree buffer acks climb toward the primary.

    Built over the current view's *storage* backups sorted ascending by
    module id; node ``i`` (0-based in that order) reports to the primary
    when ``i < fanout`` and to node ``i // fanout - 1`` otherwise, so the
    primary hears from at most ``fanout`` tree roots and every interior
    node from at most ``fanout`` children.  Everyone computes the same
    tree from the same view, with no coordination.
    """

    __slots__ = ("primary", "order", "index", "fanout")

    def __init__(self, primary: int, backups: Iterable[int], fanout: int):
        self.primary = primary
        self.order: Tuple[int, ...] = tuple(sorted(backups))
        self.index = {mid: i for i, mid in enumerate(self.order)}
        self.fanout = max(1, fanout)

    def parent(self, mid: int) -> int:
        """Where *mid* sends its (aggregated) ack; primary for roots."""
        i = self.index.get(mid)
        if i is None or i < self.fanout:
            return self.primary
        return self.order[i // self.fanout - 1]

    def children(self, mid: int) -> Tuple[int, ...]:
        """The mids whose acks *mid* aggregates (empty for leaves)."""
        i = self.index.get(mid)
        if i is None:
            return ()
        base = self.fanout * (i + 1)
        return self.order[base:base + self.fanout]
