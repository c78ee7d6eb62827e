"""The transaction ledger: authoritative ground truth for one run.

Protocol code reports decisions here at the instant they become durable
(commit = the committing record is majority-known; abort = the coordinator
gave up).  The ledger is a *simulation-level* observer -- it carries no
protocol state back into the system -- and feeds:

- the one-copy serializability checker (committed read/write sets),
- exactly-once accounting (a transaction must never be both committed and
  aborted),
- view-change and availability statistics for the experiment harness.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Tuple

from repro.analysis.serializability import (
    CommittedTransaction,
    Piece,
    SerializabilityChecker,
)

#: ``(uid, version)`` items, sorted by uid.
Items = Tuple[Tuple[str, int], ...]


def _keyed(groupid: str, items: Items) -> Iterator[Tuple[Tuple[str, str], int]]:
    """*items* keyed ``(groupid, uid)``; *groupid* is bound here, so a piece
    read after the next one is made still names its own group."""
    return (((groupid, uid), version) for uid, version in items)


class LedgerViolation(AssertionError):
    """The protocol reported contradictory outcomes for one transaction."""


@dataclasses.dataclass
class ViewChangeEvent:
    groupid: str
    viewid: object
    primary: int
    completed_at: float


@dataclasses.dataclass
class FaultEvent:
    """One fault injected by a :class:`~repro.faults.FaultController`."""

    at: float
    kind: str  # "crash", "recover", "partition", "heal", ...
    target: str


@dataclasses.dataclass
class DetectorEvent:
    """A failure-detector opinion change at one cohort (repro.detect)."""

    at: float
    kind: str  # "suspect" | "trust"
    groupid: str
    observer: int  # mid whose detector changed its mind
    target: int    # mid being judged


class TransactionLedger:
    """Ground-truth record of everything that was decided during a run."""

    def __init__(self, clock=None) -> None:
        self._clock = clock  # callable returning current sim time, or None
        self.committed: Dict[object, float] = {}
        self.aborted: Dict[object, str] = {}
        #: ``(aid, groupid) -> (reads, writes)``, each a tuple of
        #: ``(uid, version)`` items sorted by uid.
        self.effects: Dict[Tuple[object, str], Tuple[Items, Items]] = {}
        self.view_changes: List[ViewChangeEvent] = []
        self.view_change_started: List[Tuple[str, float]] = []
        self.faults: List[FaultEvent] = []
        self.detector_events: List[DetectorEvent] = []
        self._last_at: Dict[str, float] = {}

    def _now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def _check_at(self, stream: str, at: float) -> float:
        """Shared timestamp validation for every timeline stream.

        Each stream's entries must carry non-negative, non-decreasing
        times: the ledger is an observer of a deterministic simulation, so
        a regression means a caller passed a stale or wrong clock value --
        corrupting the availability statistics silently.  Fail loudly.
        """
        if at < 0:
            raise ValueError(f"ledger {stream!r} event at negative time {at!r}")
        last = self._last_at.get(stream)
        if last is not None and at < last:
            raise ValueError(
                f"ledger {stream!r} event at {at!r} is before the stream's "
                f"latest entry at {last!r}"
            )
        self._last_at[stream] = at
        return at

    # -- protocol-facing hooks ------------------------------------------------

    def record_commit(self, aid) -> None:
        if aid in self.aborted:
            raise LedgerViolation(
                f"{aid} committed after being reported aborted "
                f"({self.aborted[aid]!r})"
            )
        self.committed.setdefault(aid, self._now())

    def record_abort(self, aid, reason: str) -> None:
        if aid in self.committed:
            raise LedgerViolation(f"{aid} aborted after being reported committed")
        self.aborted.setdefault(aid, reason)

    def record_effects(self, aid, groupid: str, reads: dict, writes: dict) -> None:
        """First report per (aid, group) wins; retries are idempotent."""
        if (aid, groupid) not in self.effects:
            self.effects[aid, groupid] = (
                tuple(sorted(reads.items())),
                tuple(sorted(writes.items())),
            )

    def record_view_change_started(self, groupid: str, at: float) -> None:
        self.view_change_started.append(
            (groupid, self._check_at("view_change", at))
        )

    def record_fault(self, kind: str, target: str, at: float) -> None:
        """Injected-fault timeline entry, so analysis can correlate
        latency spikes and aborts with the fault that caused them."""
        self.faults.append(
            FaultEvent(at=self._check_at("fault", at), kind=kind, target=target)
        )

    def record_detector_event(
        self, kind: str, groupid: str, observer: int, target: int, at: float
    ) -> None:
        """Suspicion/trust transition from a cohort's failure detector."""
        self.detector_events.append(
            DetectorEvent(
                at=self._check_at("detector", at),
                kind=kind,
                groupid=groupid,
                observer=observer,
                target=target,
            )
        )

    def record_view_change(self, groupid: str, viewid, primary: int) -> None:
        self.view_changes.append(
            ViewChangeEvent(
                groupid=groupid,
                viewid=viewid,
                primary=primary,
                completed_at=self._check_at("view_change_completed", self._now()),
            )
        )

    # -- analysis ------------------------------------------------------------

    def committed_pieces(self) -> Iterator[Piece]:
        """Each committed transaction's effects at each group, keyed
        ``(groupid, uid)``, streamed from the ledger in report order."""
        committed = self.committed
        for (aid, groupid), (reads, writes) in self.effects.items():
            if aid in committed:
                yield aid, _keyed(groupid, reads), _keyed(groupid, writes)

    def committed_transactions(self) -> List[CommittedTransaction]:
        """The committed history with each transaction's pieces merged."""
        merged: Dict[object, CommittedTransaction] = {}
        for aid, reads, writes in self.committed_pieces():
            txn = merged.setdefault(aid, CommittedTransaction(aid=aid))
            txn.reads.update(reads)
            txn.writes.update(writes)
        return list(merged.values())

    def check_serializability(self) -> None:
        SerializabilityChecker.over(self.committed_pieces).check()

    def abort_reasons(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for reason in self.aborted.values():
            counts[reason] = counts.get(reason, 0) + 1
        return counts

    @property
    def commit_count(self) -> int:
        return len(self.committed)

    @property
    def abort_count(self) -> int:
        return len(self.aborted)

    def view_changes_for(self, groupid: str) -> List[ViewChangeEvent]:
        return [event for event in self.view_changes if event.groupid == groupid]

    def view_change_durations(self, groupid: str) -> List[float]:
        """Convergence times: each completion paired with the earliest
        still-unconsumed start at or before it.  Overlapping manager
        attempts between two completions count as one outage, measured
        from the first signal that a change was needed."""
        starts = sorted(
            at for group, at in self.view_change_started if group == groupid
        )
        durations: List[float] = []
        consumed = 0
        for event in sorted(
            self.view_changes_for(groupid), key=lambda e: e.completed_at
        ):
            begin = None
            while consumed < len(starts) and starts[consumed] <= event.completed_at:
                if begin is None:
                    begin = starts[consumed]
                consumed += 1
            if begin is not None:
                durations.append(event.completed_at - begin)
        return durations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransactionLedger(committed={self.commit_count}, "
            f"aborted={self.abort_count}, view_changes={len(self.view_changes)})"
        )
