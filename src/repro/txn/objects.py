"""Versioned objects: base versions, tentative versions, lockers.

Figure 1 of the paper:

    object    = <uid: int, base: T, lockers: {lock_info}>
    lock_info = <locker: aid, info: oneof[read: null, write: T]>

A transaction "modifies a tentative version, which is discarded if the
transaction aborts and becomes the base version if it commits" (section 3).
Tentative versions live inside the locker entry, exactly as in the paper.

Subaction support (section 3.6): each tentative write is tagged with the
subaction number that made it, so an aborted subaction's writes can be
discarded while the rest of the transaction's writes survive.
"""

from __future__ import annotations

import dataclasses
from types import MappingProxyType
from typing import Any, Dict, Iterable, Mapping, NamedTuple, Optional, Tuple

from repro.net.messages import SizedDict

READ = "read"
WRITE = "write"
Image = Dict[str, Tuple[Any, int]]  # uid -> (base, version)


@dataclasses.dataclass
class TentativeWrite:
    """One write by (aid, subaction); later writes shadow earlier ones."""

    subaction: int
    value: Any


@dataclasses.dataclass
class LockInfo:
    """A locker entry: who holds what kind of lock, plus tentative writes."""

    kind: str  # READ or WRITE
    writes: list[TentativeWrite] = dataclasses.field(default_factory=list)

    def drop_subaction(self, subaction: int) -> None:
        self.writes = [w for w in self.writes if w.subaction != subaction]
        if not self.writes and self.kind == WRITE:
            # The write lock came from subactions that all aborted; the
            # remaining claim (if the txn also read) is at most a read.
            self.kind = READ


class StoredObject(NamedTuple):
    """Figure 1's object, assembled on demand by :meth:`ObjectStore.get`."""

    uid: str
    base: Any
    version: int  # bumped on every install; used by the 1SR checker
    lockers: Dict[Any, LockInfo]


UNLOCKED: Dict[Any, LockInfo] = {}  # an unlocked uid's lockers; never written
NO_OBJECTS: Mapping[str, Tuple[Any, int]] = MappingProxyType({})


class ObjectStore:
    """The objects portion of a cohort's gstate, relative to the group's
    initial objects (DESIGN.md D26).

    *initial* (``uid -> (value, 0)``, shared by the group's cohorts and
    never written) is what every cohort starts with and every recovery
    restores; the store keeps one ``SizedDict`` of the entries that differ
    from it: those an install bumped, ``create`` or ``ensure`` added, or a
    newview wrote.  That is the shape of ``NewView.objects``, so a snapshot
    and a restore are one copy of what was written.  Reads fall back to
    *initial*, so ``get``, ``base``, ``version``, ``uids``, ``items`` and
    ``in`` answer for the whole image.  ``lockers`` (``uid -> {aid:
    LockInfo}``, kept by the lock manager) holds only the objects that have
    lockers now."""

    def __init__(self, initial: Mapping[str, Tuple[Any, int]] = NO_OBJECTS) -> None:
        self._initial = initial
        self._image = SizedDict()  # the entries that differ from _initial
        self.lockers: Dict[str, Dict[Any, LockInfo]] = {}

    def entry(self, uid: str) -> Optional[Tuple[Any, int]]:
        """``(base, version)`` of *uid*; None if there is no such object."""
        return self._image.get(uid) or self._initial.get(uid)

    def create(self, uid: str, value: Any) -> None:
        if uid in self:
            raise ValueError(f"object {uid!r} already exists")
        self._image[uid] = (value, 0)

    def ensure(self, uid: str, default: Any = None) -> Tuple[Any, int]:
        """``(base, version)`` of *uid*, created as ``(default, 0)`` if absent."""
        entry = self.entry(uid)
        if entry is None:
            entry = self._image[uid] = (default, 0)
        return entry

    def get(self, uid: str) -> StoredObject:
        base, version = self._image.get(uid) or self._initial[uid]
        return StoredObject(uid, base, version, self.lockers.get(uid, UNLOCKED))

    def base(self, uid: str) -> Any:
        return (self._image.get(uid) or self._initial[uid])[0]

    def version(self, uid: str) -> int:
        return (self._image.get(uid) or self._initial[uid])[1]

    def __contains__(self, uid: str) -> bool:
        return uid in self._image or uid in self._initial

    def uids(self) -> Iterable[str]:
        return self._whole().keys()

    def items(self) -> Iterable[Tuple[str, Tuple[Any, int]]]:
        return self._whole().items()

    def _whole(self) -> Image:
        return {**self._initial, **self._image}

    def install(self, uid: str, value: Any) -> None:
        """*value* becomes the base version of *uid*."""
        entry = self.entry(uid)
        self._image[uid] = (value, 1 if entry is None else entry[1] + 1)

    def install_calls(self, calls, allowed) -> None:
        """A backup's commit: perform the writes of one transaction's stored
        completed-call records (*calls*: viewstamp -> record), in viewstamp
        order.  A non-empty *allowed* names the viewstamps in the pset."""
        final_values = {}
        for viewstamp in sorted(calls):
            if allowed and viewstamp not in allowed:
                continue  # orphaned subaction (section 3.6); skip its writes
            for effect in calls[viewstamp].effects:
                if effect.kind != WRITE or not effect.writes:
                    continue
                final_values[effect.uid] = effect.writes[-1][1]
        # One version bump per object per transaction, matching the
        # primary's install (LockManager.install).
        for uid, value in final_values.items():
            self.install(uid, value)

    # -- gstate snapshot / restore (for newview records) --------------------

    def snapshot(self) -> Image:
        """The entries that differ from the initial objects, base versions
        only: lock state is rematerialized from pending completed-call
        records by the new primary (section 3.3 compromise)."""
        return dict(self._image)

    def wire_size(self) -> int:
        """``estimate_size(self.snapshot())``, re-walking only what changed."""
        return self._image.wire_size()

    def written(self) -> Optional[Tuple[str, ...]]:
        """The uids written since the last :meth:`wire_size`; None before it."""
        return self._image.written()

    def restore(self, snapshot: Image, size: Optional[int] = None) -> None:
        """Take *snapshot* (copied: a newview record is shared) as the entries
        that differ from the initial objects, dropping any this store wrote
        that it does not carry, and drop all locks; *size* is its wire size
        when the caller knows it."""
        self._image = SizedDict(snapshot, size)
        self.lockers.clear()

    def patch(self, entries: Image) -> None:
        """Write *entries* (a newview diff) over the image, size it, and drop
        all locks."""
        self._image.patch(entries)
        self.lockers.clear()
