"""Views: a primary plus backups (paper Figure 1: ``view = <primary: int,
backups: {int}>``), always a subset of the configuration containing a
majority of group members (:class:`repro.core.quorum.Quorums`)."""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, Tuple

from repro.net.messages import estimate_size


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

    def __str__(self) -> str:
        return f"<primary={self.primary}, backups={sorted(self.backups)}>"

    def byte_size(self) -> int:
        """Wire size.  The estimator never calls this (a dataclass is the
        sum of its fields); it asks the estimator, so the two agree."""
        return estimate_size(self)
