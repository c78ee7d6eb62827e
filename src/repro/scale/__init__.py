"""repro.scale: mechanisms that keep large cohorts tractable (docs/SCALE.md).

VR'88 assumes every backup talks directly to the primary: I'm-alive
traffic is all-to-all and buffer-ack fan-in makes the primary an O(n)
hot spot.  "Can 100 Machines Agree?" (PAPERS.md) shows agreement
protocols degrade qualitatively around n=100; this package adds the
three classic remedies -- **gossip heartbeats** (:mod:`repro.scale.gossip`),
**ack trees** (:mod:`repro.scale.ack_tree`) and **witness replicas**
(:mod:`repro.scale.witness`) -- each independently toggleable through
:class:`repro.config.ScaleConfig`, each one cohort extension
(:mod:`repro.core.extension`), and each *off by the absence of the
config*: ``ProtocolConfig.scale is None`` (or a ScaleConfig with every
mechanism off) builds none of them, never imports this package, and
replays the paper-faithful schedules byte-for-byte, proven by the
``all-off`` row of ``python -m repro.gate scale``.  This module
holds what they compute with: the :class:`AckTree` topology and the
witness sizing rules.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Tuple

from repro.core.view import majority

__all__ = [
    "AckTree",
    "max_witnesses",
    "storage_size",
    "validate_witnesses",
    "witness_mids",
]


def max_witnesses(config_size: int) -> int:
    """Most witnesses a *config_size*-member group can afford.

    A force waits on ``sub_majority`` storage-backup acks, i.e. the event
    reaches ``majority(n)`` members counting the primary.  For that quorum
    to exist among storage members alone -- witnesses hold no buffer --
    at least ``majority(n)`` members must be storage, leaving at most
    ``n - majority(n)`` witnesses.
    """
    return max(0, config_size - majority(config_size))


def witness_mids(config_size: int, witnesses: int) -> FrozenSet[int]:
    """The witness module ids: the highest *witnesses* mids of the group.

    Deterministic by construction (mids are dense 0..n-1), and never
    includes mid 0, the seed view's primary.
    """
    if witnesses <= 0:
        return frozenset()
    return frozenset(range(config_size - witnesses, config_size))


def storage_size(config_size: int, witnesses: int) -> int:
    """Members that hold an event buffer (primary included)."""
    return config_size - max(0, witnesses)


def validate_witnesses(config_size: int, witnesses: int) -> None:
    """Raise ValueError unless *witnesses* leaves an all-storage force quorum."""
    if witnesses < 0:
        raise ValueError(f"witnesses must be >= 0, got {witnesses}")
    limit = max_witnesses(config_size)
    if witnesses > limit:
        raise ValueError(
            f"witnesses={witnesses} exceeds the bound for a "
            f"{config_size}-member group: at most {limit} members may be "
            f"bufferless (a force quorum needs majority({config_size})="
            f"{majority(config_size)} storage members)"
        )


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
