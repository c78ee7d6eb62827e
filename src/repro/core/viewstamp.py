"""Viewstamps, viewids, and histories (paper section 2).

A *viewid* identifies a view and is totally ordered; the order is
``(counter, module id)`` lexicographically, so a view manager always
generates a viewid greater than any it has seen by bumping the counter
(Figure 5, ``make_invitations``), and two managers can never mint the same
viewid because their mids differ.

A *viewstamp* is a timestamp concatenated with the viewid of the view in
which the timestamp was generated: ``<id: viewid, ts: int>``.  Timestamps
are meaningful only within a view; comparing viewstamps across views orders
first by viewid.

A *history* is a sequence of viewstamps, each with a different viewid, in
ascending viewid order.  The invariant (section 2): for each viewstamp ``v``
in the history, the cohort's state reflects event ``e`` from view ``v.id``
iff ``e``'s timestamp is <= ``v.ts``.

``compatible`` and ``vs_max`` are the predicates of section 3.2, verbatim.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Tuple


def hashed_once(cls):
    """Keep a frozen dataclass's hash in its ``_hash`` slot.

    Identifiers key the per-message tables, and the generated ``__hash__``
    builds a tuple of the fields, hashing nested ids anew, on every lookup.
    The value is the generated one.  The class declares its ``__slots__`` by
    hand, ``_hash`` among them (and ``_wire_size``, where
    :mod:`repro.net.messages` interns the size): a history keeps thousands
    of ids, and an instance ``__dict__`` for one cached int costs five
    times the object.  A copy or a pickle carries the fields alone, so the
    kept hash stays behind: a ``str`` field hashes differently in another
    process.
    """
    if any("__dict__" in vars(klass) for klass in cls.__mro__) or (
        "_hash" not in cls.__slots__
    ):
        raise TypeError(f"{cls.__name__} must declare __slots__ with '_hash'")
    generated = cls.__hash__
    names = tuple(field.name for field in dataclasses.fields(cls))

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = generated(self)
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(names, state):
            object.__setattr__(self, name, value)

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    cls.__setstate__ = __setstate__
    return cls


@hashed_once
@dataclasses.dataclass(frozen=True, order=True)
class ViewId:
    """``viewid = <cnt: int, mid: int>`` -- totally ordered, globally unique."""

    # ``_wire_size``: interned by repro.net.messages (frozen, scalars only)
    __slots__ = ("cnt", "mid", "_hash", "_wire_size")

    cnt: int
    mid: int

    def __eq__(self, other: object) -> bool:
        # One instance per view travels in every message of that view, so
        # the comparison is most often of a viewid with itself.
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return (self.cnt, self.mid) == (other.cnt, other.mid)
        return NotImplemented

    def next_for(self, mid: int) -> "ViewId":
        """The viewid a manager with *mid* mints after seeing this one."""
        return ViewId(self.cnt + 1, mid)

    def __str__(self) -> str:
        return f"v{self.cnt}.{self.mid}"


@hashed_once
@dataclasses.dataclass(frozen=True, order=True)
class Viewstamp:
    """``viewstamp = <id: viewid, ts: int>``.

    The dataclass ordering (viewid first, then timestamp) is exactly the
    cross-view order the view-change algorithm needs when picking the
    cohort "returning the largest viewstamp" (section 4).
    """

    __slots__ = ("id", "ts", "_hash")

    id: ViewId
    ts: int

    def __str__(self) -> str:
        return f"{self.id}:{self.ts}"


class History:
    """The per-cohort sequence of viewstamps, one per view it has been in.

    Mutating operations preserve the representation invariants: ascending,
    unique viewids; timestamps never decrease within a view.
    """

    def __init__(self, entries: Optional[Iterable[Viewstamp]] = None):
        self._entries: list[Viewstamp] = list(entries) if entries else []
        self._check()

    def _check(self) -> None:
        for earlier, later in zip(self._entries, self._entries[1:]):
            if earlier.id >= later.id:
                raise ValueError(f"history viewids not ascending: {self._entries}")

    # -- accessors ----------------------------------------------------------

    def entries(self) -> Tuple[Viewstamp, ...]:
        return tuple(self._entries)

    @property
    def latest(self) -> Viewstamp:
        """The cohort's "current viewstamp" (used in normal acceptances)."""
        if not self._entries:
            raise ValueError("empty history has no latest viewstamp")
        return self._entries[-1]

    def ts_for(self, viewid: ViewId) -> Optional[int]:
        """The highest timestamp this history covers for *viewid*, if any."""
        for entry in self._entries:
            if entry.id == viewid:
                return entry.ts
        return None

    def knows(self, viewstamp: Viewstamp) -> bool:
        """Does state reflecting this history include the given event?"""
        ts = self.ts_for(viewstamp.id)
        return ts is not None and viewstamp.ts <= ts

    # -- mutation -------------------------------------------------------------

    def open_view(self, viewid: ViewId) -> None:
        """Append ``<viewid, 0>`` -- Figure 5's ``start_view`` step."""
        if self._entries and viewid <= self._entries[-1].id:
            raise ValueError(
                f"cannot open {viewid} after {self._entries[-1].id}"
            )
        self._entries.append(Viewstamp(viewid, 0))

    def advance(self, viewid: ViewId, ts: int) -> None:
        """Record that events of *viewid* up to *ts* are now reflected."""
        if not self._entries or self._entries[-1].id != viewid:
            raise ValueError(f"{viewid} is not the history's current view")
        if ts < self._entries[-1].ts:
            raise ValueError(
                f"timestamp regression in {viewid}: "
                f"{self._entries[-1].ts} -> {ts}"
            )
        self._entries[-1] = Viewstamp(viewid, ts)

    def copy(self) -> "History":
        return History(self._entries)

    # -- dunder --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, History) and self._entries == other._entries

    def __repr__(self) -> str:
        return f"History([{', '.join(str(e) for e in self._entries)}])"

    def byte_size(self) -> int:
        return 16 * len(self._entries)


def compatible(pset_pairs, groupid: str, history: History) -> bool:
    """Section 3.2's ``compatible(ps, g, vh)`` predicate, verbatim.

    True iff for every pair in the pset for group *g*, there is a history
    entry with the same viewid whose timestamp covers the pair's.  A primary
    may agree to prepare only if this holds -- otherwise some remote call
    of the transaction was lost in a view change.
    """
    for pair in pset_pairs:
        if pair.groupid != groupid:
            continue
        if not history.knows(pair.vs):
            return False
    return True


def vs_max(pset_pairs, groupid: str) -> Optional[Viewstamp]:
    """Section 3.2's ``vs_max(ps, g)``: the latest viewstamp for group *g*.

    Returns None when the pset holds no pair for *g* (the paper's definition
    presupposes at least one; callers treat None as "nothing to force").
    """
    best: Optional[Viewstamp] = None
    for pair in pset_pairs:
        if pair.groupid != groupid:
            continue
        if best is None or pair.vs > best:
            best = pair.vs
    return best
