"""CallContext: what a procedure sees while executing at a primary.

Reads and writes acquire strict-2PL locks (waiting when contended, with a
timeout-abort deadlock breaker); nested remote calls run through the shared
remote-call machinery, and their pset pairs flow into this call's pset
(Figure 3: "If it makes any nested calls, process them as described in
Figure 2").  Every touched object is recorded so the completed-call event
record can list "all objects used by the remote call, together with the
type of lock acquired and the tentative version if any".
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

from repro.core.events import ObjectEffect
from repro.sim.errors import SimulationError
from repro.sim.future import Future
from repro.txn.ids import Aid, CallId
from repro.txn.objects import READ, WRITE


class TransactionAborted(SimulationError):
    """Raised inside a procedure when its transaction cannot continue."""


class LockTimeout(TransactionAborted):
    """A lock wait exceeded the deadlock-breaking timeout."""


@dataclasses.dataclass
class _Touched:
    kind: str  # READ or WRITE
    read_version: Optional[int] = None
    writes: list = dataclasses.field(default_factory=list)  # values in order


class CallContext:
    """Execution context of one remote call at a server primary."""

    def __init__(self, cohort, aid: Aid, call_id: CallId):
        self._cohort = cohort
        self.aid = aid
        self.call_id = call_id
        self.subaction = call_id.subaction
        self._touched: Dict[str, _Touched] = {}
        self._nested_pset_pairs: list = []
        self._nested_seq = 0

    # -- object access ---------------------------------------------------------

    def read(self, uid: str) -> Future:
        """Acquire a read lock and return the object's value."""
        return self._with_lock(uid, READ, self._do_read)

    def write(self, uid: str, value: Any) -> Future:
        """Acquire a write lock and record a tentative version."""
        return self._with_lock(uid, WRITE, self._do_write, value)

    def read_for_update(self, uid: str) -> Future:
        """Read under a *write* lock.

        Read-modify-write procedures should use this instead of
        ``read``-then-``write``: acquiring the read lock first invites the
        classic 2PL upgrade deadlock when several transactions hit the same
        object concurrently (each holds a shared lock and waits for the
        others to release before upgrading).
        """
        return self._with_lock(uid, WRITE, self._do_read_for_update)

    def update(self, uid: str, fn) -> Future:
        """Read-modify-write convenience: ``write(uid, fn(read(uid)))``."""
        done = Future(label=("update:", uid))

        def after_read(read_future: Future) -> None:
            error = read_future.exception()
            if error is not None:
                done.set_exception(error)
                return
            write_future = self.write(uid, fn(read_future.result()))
            write_future.add_done_callback(
                lambda wf: done.set_exception(wf.exception())
                if wf.exception() is not None
                else done.set_result(wf.result())
            )

        self.read(uid).add_done_callback(after_read)
        return done

    def _with_lock(self, uid: str, kind: str, action, *args) -> Future:
        done = Future(label=(kind, ":", uid, ":", self.call_id))
        lockmgr = self._cohort.lockmgr
        lock_future = lockmgr.acquire(uid, self.aid, kind, subaction=self.subaction)
        if lock_future.done and lock_future.exception() is None:
            done.set_result(action(uid, *args))
            return done
        # Stagger timeouts deterministically per transaction so symmetric
        # deadlocks pick a victim instead of aborting everyone at once.
        stagger = 1.0 + 0.05 * (self.aid.seq % 7)
        timer = self._cohort.set_timer(
            self._cohort.config.lock_timeout * stagger,
            self._lock_timed_out,
            uid,
            lock_future,
        )

        def on_granted(granted: Future) -> None:
            timer.cancel()
            if done.done:
                return
            error = granted.exception()
            if error is not None:
                done.set_exception(LockTimeout(f"lock wait on {uid!r} cancelled"))
                return
            try:
                done.set_result(action(uid, *args))
            except SimulationError as app_error:
                done.set_exception(app_error)

        lock_future.add_done_callback(on_granted)
        return done

    def _lock_timed_out(self, uid: str, lock_future: Future) -> None:
        if not lock_future.done:
            self._cohort.lockmgr.cancel_waits(self.aid)

    def _do_read(self, uid: str) -> Any:
        lockmgr = self._cohort.lockmgr
        value = lockmgr.read_value(uid, self.aid)
        touched = self._touched.get(uid)
        if touched is None:
            version = self._cohort.store.version(uid)
            self._touched[uid] = _Touched(kind=READ, read_version=version)
        return value

    def _do_read_for_update(self, uid: str) -> Any:
        lockmgr = self._cohort.lockmgr
        value = lockmgr.read_value(uid, self.aid)
        touched = self._touched.get(uid)
        if touched is None:
            touched = _Touched(kind=WRITE, read_version=self._cohort.store.version(uid))
            self._touched[uid] = touched
        touched.kind = WRITE
        return value

    def _do_write(self, uid: str, value: Any) -> Any:
        lockmgr = self._cohort.lockmgr
        lockmgr.record_write(uid, self.aid, value, subaction=self.subaction)
        touched = self._touched.get(uid)
        if touched is None:
            touched = _Touched(kind=WRITE)
            self._touched[uid] = touched
        touched.kind = WRITE
        touched.writes.append(value)
        return value

    # -- nested remote calls -----------------------------------------------------

    def call(self, groupid: str, proc: str, *args: Any) -> Future:
        """Make a nested remote call on behalf of the same transaction."""
        self._nested_seq += 1
        nested_id = CallId(
            aid=self.aid,
            seq=self.call_id.seq * 1000 + self._nested_seq,
            subaction=self.subaction,
        )
        done = Future(label=("nested:", nested_id))
        inner = self._cohort.caller.call(self.aid, groupid, proc, tuple(args), nested_id)

        def on_done(inner_future: Future) -> None:
            error = inner_future.exception()
            if error is not None:
                done.set_exception(error)
                return
            result, pset_pairs, _piggyback = inner_future.result()
            self._nested_pset_pairs.extend(pset_pairs)
            done.set_result(result)

        inner.add_done_callback(on_done)
        return done

    # -- effect extraction ------------------------------------------------------

    def effects(self) -> Tuple[ObjectEffect, ...]:
        """The completed-call record's object list."""
        return tuple(
            ObjectEffect(
                uid=uid,
                kind=touched.kind,
                writes=tuple((self.subaction, value) for value in touched.writes),
                read_version=touched.read_version,
            )
            for uid, touched in sorted(self._touched.items())
        )

    def nested_pset_pairs(self) -> Tuple:
        return tuple(self._nested_pset_pairs)
