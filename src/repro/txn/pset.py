"""The pset: per-transaction record of every remote call's viewstamp.

Section 3.1: "Information about these viewstamps is collected as the
transaction runs in a data structure called the pset, which is a set of
``<groupid, viewstamp>`` pairs.  The pset contains an entry for every call
made by the transaction; a pair ``<g, v>`` indicates that group g ran a
call for the transaction and assigned it viewstamp v."

The pset is the paper's answer to Isis-style piggybacking: it names *that*
events happened (a few dozen bytes), not *what* they were, and it is
discarded when the transaction ends -- experiment E9 measures this.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, Iterable, Iterator, Optional

from repro.core.viewstamp import Viewstamp, hashed_once
from repro.net.messages import estimate_size


@hashed_once
@dataclasses.dataclass(frozen=True, order=True)
class PSetPair:
    """One ``<groupid: int, vs: viewstamp>`` entry."""

    __slots__ = ("groupid", "vs", "_hash")

    groupid: str
    vs: Viewstamp


class PSet:
    """An immutable-by-convention set of :class:`PSetPair`.

    Mutation is via :meth:`add` / :meth:`merge`, which the client primary
    applies as replies arrive (Figure 2 step 2: "add the elements of the
    pset in the reply message to the transaction's pset").
    """

    def __init__(self, pairs: Optional[Iterable[PSetPair]] = None):
        self._pairs: set[PSetPair] = set(pairs) if pairs else set()

    def add(self, groupid: str, vs: Viewstamp) -> None:
        self._pairs.add(PSetPair(groupid, vs))

    def merge(self, other: "PSet") -> None:
        self._pairs |= other._pairs

    def pairs(self) -> FrozenSet[PSetPair]:
        return frozenset(self._pairs)

    def participants(self) -> frozenset[str]:
        """The groups touched by the transaction (Figure 2: "determine who
        the participants are from the pset")."""
        return frozenset(pair.groupid for pair in self._pairs)

    def copy(self) -> "PSet":
        return PSet(self._pairs)

    def __iter__(self) -> Iterator[PSetPair]:
        return iter(sorted(self._pairs))

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, pair: PSetPair) -> bool:
        return pair in self._pairs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PSet) and self._pairs == other._pairs

    def __repr__(self) -> str:
        return f"PSet({sorted(self._pairs)!r})"

    def byte_size(self) -> int:
        """Wire size: a PSet is not a dataclass, so this is what the
        estimator charges for one (rule 3 of repro.net.messages)."""
        return estimate_size(self._pairs)
