"""Transaction, call, and subaction identifiers, and the outcome table.

The paper makes the transaction id (*aid*) "unique across view changes by
including mygroupid and cur_viewid in it" (section 3.1).  That embedding is
load-bearing beyond uniqueness: a cohort answering a query (section 3.4) can
see from the aid alone which group coordinates the transaction and in which
view it started -- if that view is older than the group's current view and
no committing record survived, the transaction can never commit and may be
reported aborted.  The ``seq`` a coordinator view hands out one after
another is what lets :class:`OutcomeTable` keep section 3.3's outcomes as
runs (DESIGN.md D27).
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.viewstamp import ViewId, hashed_once
from repro.net.messages import estimate_size


@hashed_once
@dataclasses.dataclass(frozen=True, order=True)
class Aid:
    """A transaction identifier: coordinator group + view of birth + seq."""

    # ``_wire_size``: interned by repro.net.messages (frozen, scalars only)
    __slots__ = ("groupid", "viewid", "seq", "_hash", "_wire_size")

    groupid: str
    viewid: ViewId
    seq: int

    def __str__(self) -> str:
        return f"{self.groupid}#{self.viewid}#{self.seq}"


@hashed_once
@dataclasses.dataclass(frozen=True, order=True)
class CallId:
    """A remote-call identifier, unique per call attempt.

    ``subaction`` distinguishes retries under nested transactions
    (section 3.6): a retried call is a *new* subaction with a new CallId, so
    server-side duplicate suppression never confuses it with the orphaned
    attempt.
    """

    __slots__ = ("aid", "seq", "subaction", "_hash")

    aid: Aid
    seq: int
    subaction: int

    def __init__(self, aid: Aid, seq: int, subaction: int = 0) -> None:
        # By hand: a slotted field cannot keep its default in the class.
        object.__setattr__(self, "aid", aid)
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "subaction", subaction)

    def __str__(self) -> str:
        return f"{self.aid}/c{self.seq}.{self.subaction}"


#: An outcome's index in an entry of :class:`OutcomeTable`'s wire form.
_OUTCOMES = {"committed": 0, "aborted": 1}


def _add_run(bounds: List[int], lo: int, hi: int) -> None:
    """Merge the run ``[lo, hi)`` into *bounds* (flat, sorted, half-open
    runs that do not touch), joining every run it touches."""
    if not bounds or bounds[-1] < lo:
        bounds += (lo, hi)
        return
    if bounds[-1] == lo:  # extends the last run
        bounds[-1] = hi
        return
    # A boundary's index is odd for a run's end: an odd count of bounds
    # below lo (or at or below hi) means lo (hi) lies in or against a run.
    start, end = bisect_left(bounds, lo), bisect_right(bounds, hi)
    if start & 1:
        start -= 1
        lo = bounds[start]
    if end & 1:
        hi = bounds[end]
        end += 1
    bounds[start:end] = (lo, hi)


def _remove_run(bounds: List[int], lo: int, hi: int) -> None:
    """Cut ``[lo, hi)`` out of *bounds*, keeping what a run holds beyond it."""
    start, end = bisect_left(bounds, lo), bisect_right(bounds, hi)
    bounds[start:end] = (lo,) * (start & 1) + (hi,) * (end & 1)


class OutcomeTable:
    """Section 3.3's outcome table, ``aid -> "committed" | "aborted"``, kept
    as runs of ``seq``.

    A coordinator numbers the aids of a view one after another (section
    3.1), so the aids one coordinator view decides form few runs.  For each
    coordinator view ``(groupid, viewid)`` the table keeps two lists of
    runs of ``seq``, the committed and the aborted, each flat and sorted
    (``[lo0, hi0, lo1, hi1, ...]``, run *i* being ``lo_i <= seq < hi_i``),
    no two runs touching.  A ``seq`` that extends the last run costs O(1);
    any other is placed by ``bisect``.  Callers use it as the dict it
    replaces (``get``, ``in``, ``[aid]``, ``[aid] = outcome``, ``items()``)
    and assignment keeps dict semantics: rewriting an aid moves its ``seq``
    to the other outcome's runs.  Nothing deletes an entry.

    :meth:`wire` is the immutable form a newview record and the stable
    gstate carry, ``((groupid, viewid, committed, aborted), ...)`` sorted
    by key, each bounds tuple flat: O(runs) entries, sized as it is.
    ``OutcomeTable(wire)`` rebuilds the table.  As in a
    :class:`~repro.net.messages.SizedDict`, nothing is tracked until the
    first sizing: from then on :meth:`written` is the wire form of the aids
    assigned since the last sizing, and :meth:`patch` merges such a diff
    and starts the count over.
    """

    __slots__ = ("_views", "_written")

    def __init__(self, wire: Tuple = ()) -> None:
        self._views: Dict[Tuple[str, ViewId], Tuple[List[int], List[int]]] = {
            (groupid, viewid): (list(committed), list(aborted))
            for groupid, viewid, committed, aborted in wire
        }
        self._written: Optional[OutcomeTable] = None

    def get(self, aid: Aid, default: Optional[str] = None) -> Optional[str]:
        runs = self._views.get((aid.groupid, aid.viewid))
        if runs is not None:
            if bisect_right(runs[0], aid.seq) & 1:
                return "committed"
            if bisect_right(runs[1], aid.seq) & 1:
                return "aborted"
        return default

    def __contains__(self, aid: Aid) -> bool:
        return self.get(aid) is not None

    def __getitem__(self, aid: Aid) -> str:
        outcome = self.get(aid)
        if outcome is None:
            raise KeyError(aid)
        return outcome

    def __setitem__(self, aid: Aid, outcome: str) -> None:
        self._assign(aid.groupid, aid.viewid, _OUTCOMES[outcome], aid.seq, aid.seq + 1)
        if self._written is not None:
            self._written[aid] = outcome

    def _assign(self, groupid: str, viewid: ViewId, index: int, lo: int, hi: int) -> None:
        runs = self._views.get((groupid, viewid))
        if runs is None:
            runs = self._views[groupid, viewid] = ([], [])
        _add_run(runs[index], lo, hi)
        if runs[1 - index]:
            _remove_run(runs[1 - index], lo, hi)

    def items(self) -> Iterator[Tuple[Aid, str]]:
        """Every ``(aid, outcome)``, one aid at a time: for tests and tools."""
        for (groupid, viewid), runs in sorted(self._views.items()):
            for outcome, bounds in zip(_OUTCOMES, runs):
                for lo, hi in zip(bounds[::2], bounds[1::2]):
                    for seq in range(lo, hi):
                        yield Aid(groupid, viewid, seq), outcome

    def wire(self) -> Tuple:
        return tuple(
            (groupid, viewid, tuple(committed), tuple(aborted))
            for (groupid, viewid), (committed, aborted) in sorted(self._views.items())
        )

    def wire_size(self) -> int:
        """``estimate_size(self.wire())``, from the run counts; the aids
        assigned from here on are what :meth:`written` reports."""
        size = 4
        for (groupid, viewid), (committed, aborted) in self._views.items():
            # The entry and its two bounds tuples are 4 bytes each, a bound 8.
            size += 12 + len(groupid) + estimate_size(viewid)
            size += 8 * (len(committed) + len(aborted))
        self._written = OutcomeTable()
        return size

    def written(self) -> Optional[Tuple]:
        """The wire form of the aids assigned since the last sizing; None
        before the first, when nothing is tracked."""
        return None if self._written is None else self._written.wire()

    def patch(self, wire: Tuple) -> None:
        """Assign every aid of *wire* its outcome there, then start the
        count over as a sizing does."""
        for groupid, viewid, *classes in wire:
            for index, bounds in enumerate(classes):
                for at in range(0, len(bounds), 2):
                    self._assign(groupid, viewid, index, bounds[at], bounds[at + 1])
        self._written = OutcomeTable()
