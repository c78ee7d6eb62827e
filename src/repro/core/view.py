"""Views: a primary plus backups (paper Figure 1: ``view = <primary: int,
backups: {int}>``), always a subset of the configuration containing a
majority of group members."""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, Tuple

from repro.net.messages import estimate_size


def majority(n: int) -> int:
    """Smallest integer strictly greater than half of *n*."""
    return n // 2 + 1


def sub_majority(n: int) -> int:
    """One less than a majority (section 3): if a sub-majority of *backups*
    know an event, then together with the primary a majority of the
    configuration knows it."""
    return majority(n) - 1


@dataclasses.dataclass(frozen=True)
class View:
    """An ordered view: who is primary, who are backups."""

    primary: int
    backups: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.primary in self.backups:
            raise ValueError("primary cannot also be a backup")
        if len(set(self.backups)) != len(self.backups):
            raise ValueError("duplicate backups")

    @property
    def members(self) -> FrozenSet[int]:
        return frozenset((self.primary, *self.backups))

    def __contains__(self, mid: int) -> bool:
        return mid == self.primary or mid in self.backups

    def is_majority_of(self, configuration_size: int) -> bool:
        return len(self.members) >= majority(configuration_size)

    def __str__(self) -> str:
        return f"<primary={self.primary}, backups={sorted(self.backups)}>"

    def byte_size(self) -> int:
        """Wire size.  The estimator never calls this (a dataclass is the
        sum of its fields); it asks the estimator, so the two agree."""
        return estimate_size(self)
