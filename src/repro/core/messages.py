"""Wire messages of the viewstamped replication protocol.

Message names follow the paper: call/reply (section 3.1), prepare/commit/
abort and their replies (Figures 2-3), buffer traffic (section 2), queries
(section 3.4), I'm-alive/invite/accept/init-view (Figure 5), and the
coordinator-server requests of section 3.5.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Tuple

from repro.core.events import EventRecord
from repro.core.view import View
from repro.core.viewstamp import ViewId, Viewstamp
from repro.net.messages import Message
from repro.txn.ids import Aid, CallId

# ---------------------------------------------------------------------------
# transaction processing (sections 3.1-3.2)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(slots=True)
class CallMsg(Message):
    """Remote procedure call to a server group's primary.

    Carries "the viewid from the cache, a unique call id ..., and
    information about the call itself (the procedure name and the
    arguments)" plus the transaction's aid and where to send the reply.
    ``piggyback`` is unused by VR itself; the Isis-style baseline rides the
    same message shapes with effect payloads attached (experiment E9).
    """

    viewid: ViewId
    call_id: CallId
    aid: Aid
    proc: str
    args: Tuple
    reply_to: str
    piggyback: Any = None
    aborted_subactions: Tuple[int, ...] = ()  # section 3.6: effects of these
    #                                           must be dropped before the
    #                                           call runs (a retried call may
    #                                           otherwise read its orphaned
    #                                           predecessor's tentative state)


@dataclasses.dataclass(slots=True)
class ReplyMsg(Message):
    """Successful call reply: result plus the call's pset pairs."""

    call_id: CallId
    result: Any
    pset_pairs: Tuple
    piggyback: Any = None


@dataclasses.dataclass(slots=True)
class CallFailedMsg(Message):
    """The call could not run (lock timeout, app error, group aborting)."""

    call_id: CallId
    reason: str


@dataclasses.dataclass(slots=True)
class ViewChangedMsg(Message):
    """Rejection: "the response to the rejected message contains information
    about the current viewid and primary if the cohort knows them"
    (section 3.3)."""

    call_id: Optional[CallId]
    viewid: Optional[ViewId]
    view: Optional[View]
    aid: Optional[Aid] = None
    groupid: str = ""


@dataclasses.dataclass(slots=True)
class PrepareMsg(Message):
    """Phase one: aid + pset (Figure 2 step 1)."""

    aid: Aid
    pset_pairs: Tuple
    coordinator: str
    aborted_subactions: Tuple[int, ...] = ()


@dataclasses.dataclass(slots=True)
class PrepareOkMsg(Message):
    """Participant acceptance.  ``committed``: committed here, nothing for
    phase two -- a read-only participant (Figure 3), or the only one the
    pset names (DESIGN.md D17)."""

    aid: Aid
    groupid: str
    committed: bool


@dataclasses.dataclass(slots=True)
class PrepareRefusedMsg(Message):
    """Participant refusal -- pset incompatible with its history."""

    aid: Aid
    groupid: str
    reason: str


@dataclasses.dataclass(slots=True)
class CommitMsg(Message):
    """Phase two commit.  Carries the pset so a participant primary that
    changed since prepare can still identify which calls' effects to
    install (see DESIGN.md on subaction filtering)."""

    aid: Aid
    pset_pairs: Tuple
    coordinator: str


@dataclasses.dataclass(slots=True)
class CommitAckMsg(Message):
    """Participant's "done message" after processing a commit (Figure 3)."""

    aid: Aid
    groupid: str


@dataclasses.dataclass(slots=True)
class AbortMsg(Message):
    """Abort notification; delivery is best-effort (section 3.4)."""

    aid: Aid


@dataclasses.dataclass(slots=True)
class SubactionAbortMsg(Message):
    """Best-effort notice that a subaction aborted (section 3.6)."""

    aid: Aid
    subaction: int


# ---------------------------------------------------------------------------
# queries (section 3.4)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(slots=True)
class QueryMsg(Message):
    """Ask any cohort that might know: what happened to *aid*?"""

    aid: Aid
    reply_to: str


@dataclasses.dataclass(slots=True)
class QueryReplyMsg(Message):
    """Outcome: committed / aborted / active / unknown."""

    aid: Aid
    outcome: str
    pset_pairs: Tuple = ()


# ---------------------------------------------------------------------------
# communication buffer (section 2)
# ---------------------------------------------------------------------------


@dataclasses.dataclass  # no slots: ``records_bytes`` is set per instance
class BufferMsg(Message):
    """Primary -> backup: event records in timestamp order.

    ``records`` holds contiguous ``(ts, record)`` pairs: those above the
    backup's send mark -- each record is sent once -- or, when the
    retransmitter went back, those above its last cumulative ack.  A backup
    holds a message that arrives ahead of a gap until the gap closes.

    Buffer traffic doubles as the I'm-alive beacon (the receiver's failure
    detector hears it and the sender skips the redundant heartbeat);
    ``sent_at`` is stamped on one message per link per half
    ``IM_ALIVE_INTERVAL`` (``Liveness.send_traffic``), which gives the
    receiver's estimators the samples a beacon would have.

    ``records_bytes`` is not wire data (no annotation, so not a field): the
    sending buffer, which keeps running sizes of what it retains, sets it to
    the wire size of ``records`` so that a batch of hundreds of pairs is
    not re-walked.  Left ``None``, ``records`` is sized like any other field.
    """

    viewid: ViewId
    records: Tuple[Tuple[int, EventRecord], ...]
    primary_ts: int
    sent_at: Optional[float] = None
    records_bytes = None  # type: Optional[int]
    _size_hints = {"records": "records_bytes"}


@dataclasses.dataclass(slots=True)
class BufferAckMsg(Message):
    """Backup -> primary: cumulative ack of applied timestamps.

    ``sent_at`` serves the same piggybacked-liveness role as on
    :class:`BufferMsg`.  ``lease_until`` is a read
    lease grant riding the ack (reads enabled only): the sender promises
    not to help form a view whose primary may commit writes before this
    time without reporting the promise (see docs/READS.md)."""

    viewid: ViewId
    acked_ts: int
    mid: int
    sent_at: Optional[float] = None
    lease_until: Optional[float] = None
    agg: Tuple[Tuple[int, int], ...] = ()  # ack tree (repro.scale): the
    #                                 sender's subtree's (mid, acked_ts)
    #                                 pairs, aggregated up the fan-in tree;
    #                                 empty on the direct (paper) path


# ---------------------------------------------------------------------------
# view changes (section 4, Figure 5)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(slots=True)
class ImAliveMsg(Message):
    """Periodic liveness beacon among cohorts of one configuration.

    ``sent_at`` stamps the sender's clock so the receiver's failure
    detector can derive a round-trip sample (the simulator's clock is
    global, so one-way delay doubled is exact).  Optional for
    compatibility with hand-built messages in tests.

    With reads enabled (:class:`~repro.config.ReadConfig`) the beacon
    doubles as lease traffic: a backup stamps ``lease_until`` on the copy
    sent to its current primary (a grant renewal), and an active primary
    stamps ``primary_ts`` -- its latest buffer timestamp -- so an idle
    backup whose applied prefix matches stays *fresh* for stale-bounded
    reads without any buffer traffic."""

    mid: int
    viewid: ViewId
    sent_at: Optional[float] = None
    lease_until: Optional[float] = None
    primary_ts: Optional[int] = None
    evidence: Tuple[Tuple[int, float], ...] = ()  # gossip (repro.scale):
    #                                 (mid, heard_at) liveness evidence the
    #                                 sender vouches for; receivers fold it
    #                                 into the detector via heard_relayed
    #                                 (never into the RTT estimator)


@dataclasses.dataclass(slots=True)
class InviteMsg(Message):
    """View manager's invitation to join view *viewid*."""

    viewid: ViewId
    manager_mid: int


@dataclasses.dataclass(slots=True)
class AcceptMsg(Message):
    """Acceptance of an invitation.

    "Normal" acceptances carry the acceptor's current viewstamp and whether
    it is the primary of its current view.  "Crashed" acceptances carry only
    its (stable-storage) viewid -- its gstate was lost (Figure 5,
    ``do_accept``).
    """

    viewid: ViewId  # the invitation being accepted
    mid: int
    crashed: bool
    viewstamp: Optional[Viewstamp]  # normal only
    was_primary: bool               # normal only
    crash_viewid: Optional[ViewId]  # crashed only
    view: Optional[View] = None     # normal only: the acceptor's cur_view,
    #                                 None when stable storage restored
    #                                 its state since it last joined a
    #                                 view.  Read by the extended formation
    #                                 rule, and by build_init_view, which
    #                                 names no viewstamp for a None (D25);
    #                                 the paper's rule ignores it
    lease_promises: Tuple[Tuple[int, float], ...] = ()  # reads enabled:
    #                                 (grantee mid, expiry) read-lease
    #                                 promises the acceptor may have
    #                                 outstanding; a crashed acceptor
    #                                 reports (-1, now + LEASE_DURATION)
    #                                 because its promises died with it
    witness: bool = False           # scale enabled: the acceptor is a
    #                                 bufferless witness -- its vote counts
    #                                 toward the majority, but it carries
    #                                 no event history and can never be
    #                                 chosen primary or a storage backup


@dataclasses.dataclass(slots=True)
class InitViewMsg(Message):
    """Manager -> chosen primary: "you start view *viewid* with *view*".

    ``viewstamps`` are the ``(mid, viewstamp)`` of the other members whose
    normal acceptance holds the state that viewstamp names: a primary that
    knows it ships that backup a newview record of only what it lacks
    (DESIGN.md D25).  ``lease_bound`` (reads enabled) is the latest expiry
    of any lease promise reported by the acceptances that formed the view
    and made to anyone other than the chosen primary; the new primary must
    not activate (and hence cannot commit writes) before it passes."""

    viewid: ViewId
    view: View
    viewstamps: Tuple[Tuple[int, Viewstamp], ...] = ()
    lease_bound: float = 0.0


# ---------------------------------------------------------------------------
# view discovery (section 3: "communicates with members of the configuration
# to determine the current primary and viewid")
# ---------------------------------------------------------------------------


@dataclasses.dataclass(slots=True)
class WitnessInstallMsg(Message):
    """New primary -> witness: adopt view *viewid* (repro.scale).

    Witnesses hold no event buffer, so they never receive the
    :class:`BufferMsg` that tells a storage backup a formed view started
    (``on_buffer_while_underling``).  The activating primary sends them
    this explicit notice instead; a witness stable-writes the viewid and
    adopts the view, exactly as a storage backup would on first buffer
    traffic."""

    viewid: ViewId
    view: View


@dataclasses.dataclass(slots=True)
class ViewProbeMsg(Message):
    """Ask a cohort which view it is in."""

    reply_to: str


@dataclasses.dataclass(slots=True)
class ViewProbeReplyMsg(Message):
    """A cohort's notion of the current view (None if it is mid-change)."""

    groupid: str
    viewid: Optional[ViewId]
    view: Optional[View]
    active: bool


# ---------------------------------------------------------------------------
# read-dominant serving path (repro.reads; beyond the paper)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(slots=True)
class ReadMsg(Message):
    """Driver -> cohort: read one object's committed value.

    Served locally by a primary holding a valid quorum lease, or by a
    backup from its applied prefix when the prefix's staleness is within
    ``max_staleness`` (None = the configured default bound).  Bypasses
    the event buffer entirely; rejected with a :class:`ReadRejectMsg`
    when neither mode applies."""

    request_id: int
    uid: str
    reply_to: str
    max_staleness: Optional[float] = None


@dataclasses.dataclass(slots=True)
class ReadReplyMsg(Message):
    """A served read: the committed value, the viewstamp the serving
    cohort's state reflects, how it was served (``lease`` at a primary,
    ``backup`` from an applied prefix), and the staleness bound the
    server vouches for (0.0 for leased reads)."""

    request_id: int
    uid: str
    value: Any
    viewstamp: Viewstamp
    mode: str  # "lease" | "backup"
    staleness: float
    groupid: str


#: ``ReadRejectMsg.reason`` of a cohort with no read path armed: the driver
#: does not retry it elsewhere, it falls back to the full call path.
READ_PATH_ABSENT = "reads_disabled"


@dataclasses.dataclass(slots=True)
class ReadRejectMsg(Message):
    """The cohort cannot serve the read: reads disabled, no valid lease,
    not active, or the applied prefix is staler than the bound.  Carries
    current view info (like :class:`ViewChangedMsg`) when known so the
    driver can redirect without a probe."""

    request_id: int
    reason: str  # "reads_disabled" | "no_lease" | "not_active" | "too_stale"
    groupid: str
    viewid: Optional[ViewId] = None
    view: Optional[View] = None
    staleness: Optional[float] = None  # too_stale: the actual staleness


# ---------------------------------------------------------------------------
# client-group transaction intake (driver -> client group primary)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(slots=True)
class TxnRequestMsg(Message):
    """A workload driver asks the client-group primary to run a program."""

    request_id: int
    program: str
    args: Tuple
    reply_to: str


@dataclasses.dataclass(slots=True)
class TxnOutcomeMsg(Message):
    """Final outcome of a driver-submitted transaction."""

    request_id: int
    outcome: str  # committed | aborted
    result: Any
    aid: Optional[Aid]


# ---------------------------------------------------------------------------
# coordinator-server (section 3.5)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(slots=True)
class BeginTxnMsg(Message):
    """Unreplicated client registers a transaction with the
    coordinator-server group and obtains an aid."""

    request_id: int
    client: str


@dataclasses.dataclass(slots=True)
class BeginTxnReplyMsg(Message):
    request_id: int
    aid: Optional[Aid]


@dataclasses.dataclass(slots=True)
class FinishTxnMsg(Message):
    """Client asks the coordinator-server to commit (runs 2PC) or abort."""

    aid: Aid
    decision: str  # "commit" | "abort"
    pset_pairs: Tuple
    aborted_subactions: Tuple[int, ...]
    client: str


@dataclasses.dataclass(slots=True)
class FinishTxnReplyMsg(Message):
    aid: Aid
    outcome: str  # committed | aborted


@dataclasses.dataclass(slots=True)
class ClientProbeMsg(Message):
    """Coordinator-server checks whether its client is still alive before
    unilaterally aborting an apparently-active transaction (section 3.5)."""

    aid: Aid


@dataclasses.dataclass(slots=True)
class ClientProbeReplyMsg(Message):
    aid: Aid
    active: bool
