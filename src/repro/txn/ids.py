"""Transaction, call, and subaction identifiers.

The paper makes the transaction id (*aid*) "unique across view changes by
including mygroupid and cur_viewid in it" (section 3.1).  That embedding is
load-bearing beyond uniqueness: a cohort answering a query (section 3.4) can
see from the aid alone which group coordinates the transaction and in which
view it started -- if that view is older than the group's current view and
no committing record survived, the transaction can never commit and may be
reported aborted.
"""

from __future__ import annotations

import dataclasses

from repro.core.viewstamp import ViewId, hashed_once


@hashed_once
@dataclasses.dataclass(frozen=True, order=True)
class Aid:
    """A transaction identifier: coordinator group + view of birth + seq."""

    groupid: str
    viewid: ViewId
    seq: int
    _wire_size = None  # interned by repro.net.messages (frozen, scalars only)

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

    aid: Aid
    seq: int
    subaction: int = 0

    def __str__(self) -> str:
        return f"{self.aid}/c{self.seq}.{self.subaction}"
