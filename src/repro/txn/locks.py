"""Strict two-phase locking over the object store (paper section 3).

"We assume that transactions are synchronized by means of strict 2-phase
locking with read and write locks."  The paper leaves conflict handling
unspecified; we queue waiters FIFO and let the caller impose a timeout
(the documented deadlock-breaking deviation in DESIGN.md section 3.5).

Semantics:

- read locks are shared; write locks are exclusive;
- a transaction upgrades its own read lock to a write lock when it is the
  sole reader (otherwise it waits for the other readers);
- at *prepare*, read locks are released (Figure 3 step 1), which is legal
  under strict 2PL because the transaction acquires no further locks;
- at *commit*, tentative versions are installed and all locks released;
- at *abort*, tentative versions and locks are discarded.

All grant decisions are synchronous and deterministic (FIFO), so runs are
reproducible.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List

from repro.sim.future import Future
from repro.txn.objects import READ, UNLOCKED, WRITE, LockInfo, ObjectStore, TentativeWrite


@dataclasses.dataclass
class _Waiter:
    aid: Any
    kind: str
    future: Future
    subaction: int


class LockManager:
    """Grants read/write locks on a single group's objects."""

    def __init__(self, store: ObjectStore):
        self.store = store
        self._lockers = store.lockers  # the lock table: only locked uids
        self._wait_queues: Dict[str, List[_Waiter]] = {}
        # Reverse index: aid -> uids it holds locks on, in acquisition
        # order (dict used as an ordered set), so that release_reads /
        # install / discard are O(locks held).
        # Invariant: uid in _held[aid]  <=>  aid in _lockers[uid].
        self._held: Dict[Any, Dict[str, None]] = {}

    # -- acquisition -----------------------------------------------------------

    def acquire(self, uid: str, aid: Any, kind: str, subaction: int = 0) -> Future:
        """Request a lock; the future resolves when the lock is granted.

        If the lock is free (or compatible, or an immediate upgrade), the
        future is already resolved on return, so uncontended transactions
        never yield to the scheduler for locking.
        """
        if kind not in (READ, WRITE):
            raise ValueError(f"unknown lock kind {kind!r}")
        future = Future(label=("lock:", uid, ":", aid, ":", kind))
        holders = self._lockers.get(uid)
        if holders is None:  # a locked uid is in the store already
            self.store.ensure(uid)
            holders = UNLOCKED
        queue = self._wait_queues.get(uid, [])
        # FIFO fairness: a new request must not overtake waiting conflicting
        # requests, or writers starve.  A request only bypasses the queue if
        # the queue is empty or the request is a re-entrant/upgrade claim.
        if self._grantable(holders, aid, kind) and (not queue or aid in holders):
            self._grant(uid, aid, kind)
            future.set_result(None)
            return future
        self._wait_queues.setdefault(uid, []).append(
            _Waiter(aid=aid, kind=kind, future=future, subaction=subaction)
        )
        return future

    def _grantable(self, holders: Dict[Any, LockInfo], aid: Any, kind: str) -> bool:
        if aid in holders:
            current = holders[aid]
            if kind == READ or current.kind == WRITE:
                return True  # re-entrant
            # upgrade READ -> WRITE: sole reader only
            return all(other == aid for other in holders)
        if not holders:
            return True
        if kind == READ:
            return all(info.kind == READ for info in holders.values())
        return False

    def _grant(self, uid: str, aid: Any, kind: str) -> LockInfo:
        holders = self._lockers.get(uid)
        if holders is None:
            holders = self._lockers[uid] = {}
        info = holders.get(aid)
        if info is None:
            info = holders[aid] = LockInfo(kind=kind)
        elif kind == WRITE:
            info.kind = WRITE
        self._held.setdefault(aid, {})[uid] = None
        return info

    def _release(self, uid: str, aid: Any) -> LockInfo:
        """Drop *aid*'s lock on *uid*; the table forgets an unlocked uid."""
        holders = self._lockers[uid]
        info = holders.pop(aid)
        if not holders:
            del self._lockers[uid]
        return info

    def _pump(self, uid: str) -> None:
        """Grant the longest compatible prefix of the wait queue."""
        queue = self._wait_queues.get(uid)
        if not queue:
            return
        while queue and self._grantable(
            self._lockers.get(uid, UNLOCKED), queue[0].aid, queue[0].kind
        ):
            head = queue.pop(0)
            self._grant(uid, head.aid, head.kind)
            head.future.set_result(None)
        if not queue:
            del self._wait_queues[uid]

    # -- write-through ---------------------------------------------------------

    def record_write(self, uid: str, aid: Any, value: Any, subaction: int = 0) -> None:
        """Record a tentative version.  Caller must hold the write lock."""
        info = self._lockers.get(uid, UNLOCKED).get(aid)
        if info is None or info.kind != WRITE:
            raise ValueError(f"{aid} does not hold a write lock on {uid!r}")
        info.writes.append(TentativeWrite(subaction=subaction, value=value))

    def read_value(self, uid: str, aid: Any) -> Any:
        """Read through tentative versions.  Caller must hold a lock."""
        info = self._lockers.get(uid, UNLOCKED).get(aid)
        if info is None:
            raise ValueError(f"{aid} does not hold a lock on {uid!r}")
        if info.writes:
            return info.writes[-1].value  # a transaction sees its own writes
        return self.store.base(uid)

    # -- lifecycle ------------------------------------------------------------

    def release_reads(self, aid: Any) -> None:
        """Drop pure read locks at prepare time (Figure 3)."""
        held = self._held.get(aid)
        if not held:
            return
        for uid in list(held):
            if self._lockers[uid][aid].kind == READ:
                self._release(uid, aid)
                del held[uid]
                self._pump(uid)
        if not held:
            del self._held[aid]

    def install(self, aid: Any) -> list[str]:
        """Commit: tentative versions become base; locks released.

        Returns the uids whose base version changed.
        """
        changed = []
        for uid in self._held.pop(aid, ()):
            info = self._release(uid, aid)
            if info.writes:
                self.store.install(uid, info.writes[-1].value)
                changed.append(uid)
            self._pump(uid)
        return changed

    def discard(self, aid: Any) -> None:
        """Abort: drop locks and tentative versions.

        Pending requests are withdrawn *before* held locks are released --
        otherwise pumping the queue could re-grant the aborted
        transaction's own queued request.
        """
        self.cancel_waits(aid)
        for uid in self._held.pop(aid, ()):
            self._release(uid, aid)
            self._pump(uid)

    def discard_subaction(self, aid: Any, subaction: int) -> None:
        """Abort one subaction: drop its tentative writes only (section 3.6).

        Locks stay with the transaction (Argus semantics: subactions of one
        transaction share its lock family), so the retried call can proceed.
        """
        for uid in self._held.get(aid, ()):
            self._lockers[uid][aid].drop_subaction(subaction)

    def cancel_waits(self, aid: Any) -> None:
        """Withdraw pending lock requests (waiter timed out or txn aborted)."""
        for uid in list(self._wait_queues):
            queue = self._wait_queues[uid]
            remaining = []
            cancelled = False
            for waiter in queue:
                if waiter.aid == aid:
                    waiter.future.cancel()
                    cancelled = True
                else:
                    remaining.append(waiter)
            if remaining:
                self._wait_queues[uid] = remaining
            else:
                del self._wait_queues[uid]
            if cancelled:
                self._pump(uid)

    def holders_of(self, uid: str) -> Dict[Any, str]:
        return {aid: info.kind for aid, info in self._lockers.get(uid, UNLOCKED).items()}

    def locks_held_by(self, aid: Any) -> Dict[str, str]:
        return {uid: self._lockers[uid][aid].kind for uid in self._held.get(aid, ())}

    def rematerialize(self, pending) -> None:
        """New primary: rebuild lock/tentative state from *pending*, the
        cohort's ``aid -> {viewstamp: completed-call record}`` table.

        Section 3.7 requires that locks survive a view change exactly when
        their completed-call records do.  Records reflect locks that were
        granted under 2PL before the view change, so installing them
        directly, without queueing, cannot conflict.
        """
        self.reset()
        for aid, calls in pending.items():
            for viewstamp in sorted(calls):
                for effect in calls[viewstamp].effects:
                    self.store.ensure(effect.uid)
                    info = self._grant(effect.uid, aid, effect.kind)
                    info.writes.extend(TentativeWrite(sub, value) for sub, value in effect.writes)

    def reset(self) -> None:
        """Drop all lock state (used when installing a newview gstate)."""
        self._lockers.clear()
        self._held.clear()
        for queue in self._wait_queues.values():
            for waiter in queue:
                waiter.future.cancel()
        self._wait_queues.clear()
