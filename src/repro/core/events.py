"""Event records written to the communication buffer (paper section 2).

"The primary generates a new timestamp each time it needs to communicate
information to its backups; we refer to each such occurrence as an event...
An event record identifies the type of the event, and contains other
relevant information about the event."

Section 3.7 gives the correspondence with a conventional transaction system:
completed-call records play the role of data records forced to stable
storage before preparing; commit and abort records are their stable-storage
counterparts; there is deliberately *no* prepare record (the history plus
the pset in the prepare message replace it).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

from repro.core.viewstamp import Viewstamp
from repro.txn.ids import Aid, CallId


@dataclasses.dataclass(frozen=True)
class ObjectEffect:
    """One object touched by a remote call: lock kind plus tentative writes.

    ``writes`` is a tuple of ``(subaction, value)`` pairs in write order;
    empty for read locks.  This is the "object-list" of Figure 3: "lists all
    objects used by the remote call, together with the type of lock acquired
    and the tentative version if any".
    """

    uid: str
    kind: str  # "read" | "write"
    writes: Tuple[Tuple[int, Any], ...] = ()
    read_version: Optional[int] = None  # object version seen at first read
    #                                     (consumed by the 1SR checker)


@dataclasses.dataclass(frozen=True)
class EventRecord:
    """Base class; ``kind`` mirrors the paper's record-name strings."""

    # Records are immutable once buffered yet re-shipped on every flush, so
    # repro.net.messages interns their wire size (see its docstring).
    _wire_size = None

    @property
    def kind(self) -> str:
        return type(self).KIND  # type: ignore[attr-defined]


@dataclasses.dataclass(frozen=True)
class CompletedCall(EventRecord):
    """``<"completed-call", object-list, aid>`` (Figure 3)."""

    KIND = "completed-call"
    aid: Aid
    call_id: CallId
    effects: Tuple[ObjectEffect, ...]


@dataclasses.dataclass(frozen=True)
class Committing(EventRecord):
    """``<"committing", plist, aid>`` (Figure 2): coordinator commit point.

    ``plist`` lists only non-read-only participants -- "only these must take
    part in phase two".
    """

    KIND = "committing"
    aid: Aid
    plist: Tuple[str, ...]
    pset_pairs: Tuple = ()  # lets a new primary resume phase 2 with the pset


@dataclasses.dataclass(frozen=True)
class Committed(EventRecord):
    """``<"committed", aid>`` (Figure 3): participant learned the commit."""

    KIND = "committed"
    aid: Aid
    pset_pairs: Tuple = ()  # which calls' effects to install (subaction filter)


@dataclasses.dataclass(frozen=True)
class Aborted(EventRecord):
    """``<"aborted", aid>``: transaction aborted (either role)."""

    KIND = "aborted"
    aid: Aid


@dataclasses.dataclass(frozen=True)
class Done(EventRecord):
    """``<"done", aid>`` (Figure 2): all participants acknowledged commit."""

    KIND = "done"
    aid: Aid


@dataclasses.dataclass(frozen=True)
class ViewEdit(EventRecord):
    """Unilateral membership edit by an active primary (section 4.1).

    "One special case is when an active primary notices that it cannot
    communicate with a backup, but it still has a sub-majority of other
    backups.  In this case, the primary can unilaterally exclude the
    inaccessible backup from the view.  Similarly, an active primary can
    unilaterally add a backup to its view."  The paper gives no wire
    mechanism; we propagate the edit as an ordinary event record (see
    DESIGN.md) -- the force threshold stays keyed to the configuration, so
    safety is unaffected.
    """

    KIND = "view-edit"
    backups: Tuple[int, ...]  # new backup set (mids)


@dataclasses.dataclass(frozen=True)
class NewView(EventRecord):
    """``<"newview", ...>``: the first record of every view (Figure 5).

    "This record contains cur_view, history, and gstate."  Our gstate is the
    object snapshot plus the pending completed-call/committing records and
    the transaction-outcome table (section 3.3's compromise representation).

    The record is per receiver (DESIGN.md D25).  With ``base`` None it is
    the full record: what the buffer holds at ts 1 and ships by default,
    whose ``objects`` replace the receiver's own.  A backup the init-view
    names, whose viewstamp the primary knows, at or after ``(V, 1)`` of the
    view V the primary last activated or installed, is shipped instead a
    record with ``base`` that viewstamp, whose ``objects`` and ``outcomes``
    hold only the entries written since ``(V, 1)``; it writes them over its
    own image and outcome table.  Either way ``objects`` holds only entries
    that differ from the group's initial objects, which every cohort holds
    from the module spec (D26), and ``outcomes`` is an outcome table's wire
    form, runs of ``seq`` per coordinator view (D27).
    """

    KIND = "newview"
    view: Any  # View (import cycle avoided; see repro.core.view)
    history_entries: Tuple[Viewstamp, ...]
    objects: Dict[str, Tuple[Any, int]]
    pending: Tuple[Tuple[Viewstamp, EventRecord], ...]
    outcomes: Tuple  # OutcomeTable.wire(): O(runs) entries, sized as they are
    committing: Dict[Aid, Tuple[Tuple[str, ...], Tuple]]
    base: Optional[Viewstamp] = None
    # Not wire data: the size of ``objects``, when the primary's store knew
    # it (repro.net.messages).
    objects_bytes = None  # type: Optional[int]
    _size_hints = {"objects": "objects_bytes"}

    def with_sizes(self, objects_bytes: int) -> "NewView":
        """Declare the image's size; before the record is first sized."""
        object.__setattr__(self, "objects_bytes", objects_bytes)
        return self
