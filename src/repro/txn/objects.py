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
from typing import Any, Dict, Iterable, Tuple

READ = "read"
WRITE = "write"


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

    def tentative_value(self) -> Any:
        if not self.writes:
            raise ValueError("no tentative writes")
        return self.writes[-1].value

    def drop_subaction(self, subaction: int) -> None:
        self.writes = [w for w in self.writes if w.subaction != subaction]
        if not self.writes and self.kind == WRITE:
            # The write lock came from subactions that all aborted; the
            # remaining claim (if the txn also read) is at most a read.
            self.kind = READ


@dataclasses.dataclass
class StoredObject:
    """One object in a group's gstate."""

    uid: str
    base: Any
    lockers: Dict[Any, LockInfo] = dataclasses.field(default_factory=dict)
    version: int = 0  # bumped on every install; used by the 1SR checker

    def value_for(self, aid) -> Any:
        """Read through: a transaction sees its own tentative writes."""
        info = self.lockers.get(aid)
        if info is not None and info.writes:
            return info.tentative_value()
        return self.base


class ObjectStore:
    """The objects portion of a cohort's gstate."""

    def __init__(self) -> None:
        self._objects: Dict[str, StoredObject] = {}

    def create(self, uid: str, value: Any) -> StoredObject:
        if uid in self._objects:
            raise ValueError(f"object {uid!r} already exists")
        obj = StoredObject(uid=uid, base=value)
        self._objects[uid] = obj
        return obj

    def ensure(self, uid: str, default: Any = None) -> StoredObject:
        if uid not in self._objects:
            self._objects[uid] = StoredObject(uid=uid, base=default)
        return self._objects[uid]

    def get(self, uid: str) -> StoredObject:
        return self._objects[uid]

    def __contains__(self, uid: str) -> bool:
        return uid in self._objects

    def uids(self) -> Iterable[str]:
        return self._objects.keys()

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
            obj = self.ensure(uid)
            obj.base = value
            obj.version += 1

    # -- gstate snapshot / restore (for newview records) --------------------

    def snapshot(self) -> Dict[str, Tuple[Any, int]]:
        """Base versions only: lock state is rematerialized from pending
        completed-call records by the new primary (section 3.3 compromise)."""
        return {uid: (obj.base, obj.version) for uid, obj in self._objects.items()}

    def restore(self, snapshot: Dict[str, Tuple[Any, int]]) -> None:
        self._objects = {
            uid: StoredObject(uid=uid, base=base, version=version)
            for uid, (base, version) in snapshot.items()
        }

    def clear_locks(self) -> None:
        for obj in self._objects.values():
            obj.lockers.clear()
