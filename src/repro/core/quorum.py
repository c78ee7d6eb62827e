"""Who counts toward which quorum: one immutable value per group (DESIGN.md D18).

VR'88 is safe because of one intersection argument: a force waits until a
sub-majority of backups know its records (section 3), so with the primary a
majority knows them, and a view forms only from a majority whose normal
acceptors cover every such force (section 4).  :class:`Quorums` states it once;
every site that counts members toward a quorum reads it.
"""

from __future__ import annotations

import dataclasses
from typing import AbstractSet, FrozenSet, Iterable, Tuple


def majority(n: int) -> int:
    """Smallest integer strictly greater than half of *n*."""
    return n // 2 + 1


def sub_majority(n: int) -> int:
    """One less than a majority (section 3): if a sub-majority of *backups*
    know an event, then together with the primary a majority of the
    configuration knows it."""
    return majority(n) - 1


@dataclasses.dataclass(frozen=True, init=False)
class Quorums:
    """The quorums of an *n*-member group with *witnesses* bufferless members.

    A witness (``ScaleConfig.witnesses``; docs/SCALE.md) votes in view
    formation, joins views and grants leases, but holds no event buffer.  The
    witnesses are the highest mids, so never mid 0, the seed view's primary.
    At most ``n - formation`` of them are allowed: a force quorum -- the
    primary plus ``force`` backups -- must still fit among the storage
    members alone.

    - ``formation``: acceptances a view needs, ``majority(n)``;
    - ``force``: storage backups a force waits for, ``sub_majority(n)``;
    - ``lease``: grantors beyond the primary a read lease needs, so that the
      holders are a majority and meet every formation quorum;
    - ``normals``: condition 1, the normal acceptances that spare a view the
      crash-evidence conditions.  When every member stores it is the paper's
      ``majority(n)``.  A witness's acceptance carries no evidence, so with
      witnesses the rule is what the paper's majority is for: enough storage
      members that they meet every all-storage force quorum of every view,
      ``storage - formation + 1``.  At odd *n* without witnesses the two
      agree; at even *n* the paper's majority is one larger (n = 4: 3 vs 2),
      and the paper's rule is kept where the paper applies.
    """

    n: int
    witnesses: FrozenSet[int]
    formation: int
    force: int
    lease: int
    normals: int

    def __init__(self, n: int, witnesses: int = 0) -> None:
        formation = majority(n)
        # The lower bound, 0, needs no n: ScaleConfig refuses a negative count.
        if witnesses > n - formation:
            raise ValueError(
                f"witnesses={witnesses} in a {n}-member group: allowed are at most "
                f"{n - formation}, so a force quorum fits among storage members"
            )
        fields = {
            "n": n,
            "witnesses": frozenset(range(n - witnesses, n)),
            "formation": formation,
            "force": sub_majority(n),
            "lease": formation - 1,
            "normals": (n - witnesses) - formation + 1 if witnesses else formation,
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def storage(self, mids: Iterable[int]) -> Tuple[int, ...]:
        """Those of *mids* that hold an event buffer."""
        return tuple(mid for mid in mids if mid not in self.witnesses)

    def covers_forces(self, backups: Iterable[int], acceptors: AbstractSet[int]) -> bool:
        """D11's condition 4: do *acceptors* include some storage member of a
        view with *backups* from every force quorum that view could gather?

        Buffer delivery is a cumulative prefix of the primary's log, so the
        acceptor with the largest viewstamp then holds every forced record.
        At least one of them is required even where no force quorum fits."""
        storage = self.storage(backups)
        present = sum(1 for mid in storage if mid in acceptors)
        return present >= max(len(storage) - self.force + 1, 1)

    def strands(self, survivors: Iterable[int]) -> bool:
        """Could *survivors*, the members left up and up to date, fail to
        form a view that can force?  ``form_view`` refuses a view without a
        storage primary and ``force`` storage backups, so too few storage
        members among them strands the group (the guard ``protect_group``
        crash churn keeps).  Those are ``formation`` members, so the test
        also covers too few survivors to form a view, and too few storage
        acceptors for condition 1 (``normals`` is at most ``formation``)."""
        return len(self.storage(survivors)) < self.force + 1
