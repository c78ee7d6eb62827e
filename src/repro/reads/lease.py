"""Lease and staleness bookkeeping for one cohort.

One :class:`ReadState` lives on each cohort of a reads-enabled group and
tracks both sides of the lease protocol plus the freshness of the
backup's applied prefix:

- *primary side*: ``grants`` maps each backup mid to the expiry of the
  newest grant received from it.  The lease is **valid** while the
  primary itself plus the backups with unexpired grants form a majority
  of the configuration (``Quorums.lease`` grantors) -- so any view that
  forms while the lease is valid (``Quorums.formation`` acceptors) must
  include a grantor (or the primary itself), whose acceptance reports the
  promise.
- *backup side*: ``promises`` maps each grantee mid to the latest expiry
  this cohort has promised it.  Expired promises are pruned lazily;
  unexpired ones are attached to every view-change acceptance so the
  formation can compute the activation deferral bound.
- *freshness*: ``prefix_fresh_at`` is the last instant this cohort's
  applied prefix was known to match the primary's buffer timestamp
  (stamped when buffer application catches up, and refreshed by
  heartbeat-carried ``primary_ts`` while idle).  A stale-bounded read's
  staleness is ``now - prefix_fresh_at``.

Nothing here arms timers: validity is evaluated lazily against the
simulator clock, so a reads-enabled but idle group schedules exactly the
same events as a reads-disabled one.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.config import LEASE_DURATION
from repro.core.quorum import Quorums

#: Grantee recorded by a crashed acceptor: its real promises (and their
#: grantees) died with its volatile state, so it conservatively reports a
#: full-duration promise to an unknown grantee, which every formation
#: must count against whatever primary it chooses.
CRASH_GRANTEE = -1


class ReadState:
    """Both sides of the lease protocol plus prefix freshness, per cohort."""

    def __init__(self, quorums: Quorums, clock):
        self.quorums = quorums
        self.clock = clock
        #: primary side: backup mid -> newest grant expiry received
        self.grants: Dict[int, float] = {}
        #: backup side: grantee mid -> latest promise expiry made
        self.promises: Dict[int, float] = {}
        #: last instant the applied prefix was known current
        self.prefix_fresh_at: float = clock()
        #: whether the last validity evaluation held (for grant/expire
        #: trace transitions; updated by callers via note_validity)
        self.was_valid = False

    # -- backup side: making promises ----------------------------------

    def make_promise(self, grantee: int) -> float:
        """Record and return the expiry of a grant to *grantee*."""
        expiry = self.clock() + LEASE_DURATION
        if self.promises.get(grantee, 0.0) < expiry:
            self.promises[grantee] = expiry
        return expiry

    def promise_residue(self, conservative: bool = False) -> None:
        """Replace all promises with a full-duration unknown-grantee bound.

        Used after recovery (``conservative=True`` semantics are implied):
        volatile promise state is gone, and a promise made any time before
        the crash expires no later than ``now + LEASE_DURATION``.
        """
        self.promises = {CRASH_GRANTEE: self.clock() + LEASE_DURATION}

    def outstanding_promises(self) -> Tuple[Tuple[int, float], ...]:
        """Unexpired (grantee, expiry) pairs, pruning the expired ones."""
        now = self.clock()
        self.promises = {
            grantee: expiry
            for grantee, expiry in self.promises.items()
            if expiry > now
        }
        return tuple(sorted(self.promises.items()))

    # -- primary side: holding the lease --------------------------------

    def record_grant(self, mid: int, until: float) -> None:
        if self.grants.get(mid, 0.0) < until:
            self.grants[mid] = until

    def lease_valid(self, view) -> bool:
        """True iff self + unexpired grantors form a configuration majority.

        Only grants from current view members count: an excluded cohort's
        grant proves nothing about the views that can form without us.
        """
        now = self.clock()
        grantors = sum(1 for mid in view.backups if self.grants.get(mid, 0.0) > now)
        return grantors >= self.quorums.lease

    def lease_until(self, view) -> float:
        """The instant validity lapses if no further grant arrives (0.0
        when not currently valid): the k-th largest unexpired grant
        expiry, where self plus k grantors are a bare majority."""
        now = self.clock()
        needed = self.quorums.lease
        expiries = sorted(
            (
                self.grants.get(mid, 0.0)
                for mid in view.backups
                if self.grants.get(mid, 0.0) > now
            ),
            reverse=True,
        )
        if needed <= 0:
            return float("inf")  # a 1-cohort group is its own majority
        if len(expiries) < needed:
            return 0.0
        return expiries[needed - 1]

    def reset_grants(self) -> None:
        self.grants = {}
        self.was_valid = False

    # -- staleness -------------------------------------------------------

    def mark_fresh(self) -> None:
        self.prefix_fresh_at = self.clock()

    def staleness(self) -> float:
        return self.clock() - self.prefix_fresh_at


def formation_lease_bound(
    responses: Iterable, chosen_primary: int
) -> float:
    """The activation deferral for a view formed from *responses*.

    The latest expiry among all reported lease promises made to anyone
    other than *chosen_primary*.  Promises to the chosen primary itself
    are harmless -- that cohort stopped serving when it accepted the
    invitation, and it is the one whose activation is being deferred.
    The unknown grantee (:data:`CRASH_GRANTEE`) never matches, so
    crashed acceptors always defer.
    """
    bound = 0.0
    for acceptance in responses:
        for grantee, expiry in getattr(acceptance, "lease_promises", ()):
            if grantee != chosen_primary and expiry > bound:
                bound = expiry
    return bound
