"""Property-based tests for the communication buffer: force semantics,
running sizes, the send-once transmission discipline and background
delivery (the push)."""

import types

from hypothesis import given, settings, strategies as st

from repro.config import ProtocolConfig
from repro.core.buffer import CommunicationBuffer, ForceAbandoned, HeldRecords
from repro.core.cohort import Cohort
from repro.core.events import Aborted, Committed, CompletedCall, ObjectEffect
from repro.core.messages import BufferAckMsg, BufferMsg
from repro.core.quorum import sub_majority
from repro.core.viewstamp import ViewId, Viewstamp
from repro.sim.kernel import Simulator
from repro.txn.ids import Aid, CallId
from repro.txn.pset import PSetPair

from tests.net import _reference_sizing as reference

VID = ViewId(2, 0)


def build(n_backups, config_size):
    sim = Simulator()
    buffer = CommunicationBuffer(
        viewid=VID,
        backups=tuple(range(1, n_backups + 1)),
        configuration_size=config_size,
        send=lambda mid, message: None,
        set_timer=lambda delay, fn, *a: sim.schedule(delay, fn, *a),
        on_force_failure=lambda: None,
        force_timeout=10_000.0,
    )
    return sim, buffer


configs = st.sampled_from([(2, 3), (4, 5), (6, 7)])  # (backups, config size)


@given(
    configs,
    st.integers(1, 20),                               # records added
    st.lists(st.tuples(st.integers(1, 6), st.integers(0, 25)), max_size=30),
)
def test_force_resolves_iff_sub_majority_covers(config, n_records, acks):
    """A force on ts T is resolved exactly when >= sub_majority backups have
    cumulatively acked >= T -- under any ack sequence whatsoever."""
    n_backups, config_size = config
    sim, buffer = build(n_backups, config_size)
    for i in range(n_records):
        buffer.add(Aborted(aid=Aid("g", VID, i)))
    target = Viewstamp(VID, n_records)
    force = buffer.force_to(target)

    applied = {}
    for mid, ts in acks:
        if mid > n_backups:
            continue
        ts = min(ts, n_records)
        buffer.on_ack(BufferAckMsg(viewid=VID, acked_ts=ts, mid=mid))
        applied[mid] = max(applied.get(mid, 0), ts)
        covered = sum(1 for v in applied.values() if v >= n_records)
        if covered >= sub_majority(config_size):
            assert force.done and force.exception() is None
        else:
            assert not force.done


@given(configs, st.lists(st.integers(0, 30), min_size=1, max_size=30))
def test_acks_never_regress(config, ack_sequence):
    n_backups, config_size = config
    _sim, buffer = build(n_backups, config_size)
    for i in range(30):
        buffer.add(Aborted(aid=Aid("g", VID, i)))
    high = 0
    for ts in ack_sequence:
        buffer.on_ack(BufferAckMsg(viewid=VID, acked_ts=ts, mid=1))
        high = max(high, ts)
        assert buffer.acked[1] == high


@given(st.integers(1, 40), st.integers(0, 40))
def test_trim_preserves_unacked_suffix(n_records, min_ack):
    sim, buffer = build(2, 3)
    for i in range(n_records):
        buffer.add(Aborted(aid=Aid("g", VID, i)))
    min_ack = min(min_ack, n_records)
    buffer.on_ack(BufferAckMsg(viewid=VID, acked_ts=min_ack, mid=1))
    buffer.on_ack(BufferAckMsg(viewid=VID, acked_ts=min_ack, mid=2))
    retained = [ts for ts, _r in buffer._records]
    assert retained == list(range(min_ack + 1, n_records + 1))


@given(st.integers(1, 25))
def test_timestamps_dense_and_ordered(n_records):
    _sim, buffer = build(2, 3)
    stamps = [buffer.add(Aborted(aid=Aid("g", VID, i))) for i in range(n_records)]
    assert [vs.ts for vs in stamps] == list(range(1, n_records + 1))
    assert all(vs.id == VID for vs in stamps)


# -- running sizes (BufferMsg.records_bytes) -----------------------------------

ALL_BACKUPS = (1, 2, 3, 4)
_PAIR = PSetPair("kv", Viewstamp(VID, 3))


def _record(kind, n):
    """Records of different wire sizes, so a misaligned prefix sum shows."""
    aid = Aid("g" * (n % 5), VID, n)
    if kind == 0:
        return Aborted(aid=aid)
    if kind == 1:
        return Committed(aid=aid, pset_pairs=(_PAIR,) * (n % 4))
    effects = tuple(
        ObjectEffect(uid=f"k{i}", kind="write", writes=((0, "v" * n),))
        for i in range(n % 3)
    )
    return CompletedCall(aid=aid, call_id=CallId(aid, n), effects=effects)


operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 2), st.integers(0, 40)),
        st.tuples(st.just("ack"), st.sampled_from(ALL_BACKUPS), st.integers(0, 60)),
        st.tuples(
            st.just("agg"),
            st.lists(
                st.tuples(st.sampled_from(ALL_BACKUPS), st.integers(0, 60)),
                min_size=1, max_size=4,
            ),
        ),
        st.tuples(st.just("backups"), st.sets(st.sampled_from(ALL_BACKUPS), min_size=1)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("force")),
        st.tuples(st.just("run"), st.floats(0.1, 3.0)),
    ),
    max_size=60,
)


def _assert_sizes_aligned(buffer):
    """``_sized[i]`` is the reference wire size of ``_records[:i]``, up to
    the constant a trim leaves in ``_sized[0]``."""
    assert len(buffer._sized) == len(buffer._records) + 1
    for index, pair in enumerate(buffer._records):
        step = buffer._sized[index + 1] - buffer._sized[index]
        assert step == reference.estimate_size(pair)


@settings(max_examples=150, deadline=None)
@given(
    operations,
    st.sampled_from([0.0, 0.5]),  # flush_delay: at once, or one coalescing tick
    st.booleans(),             # retain_all
    st.integers(1, 5),         # max_batch
    st.integers(1, 3),         # pipeline_depth
    st.booleans(),             # close at the end
)
def test_every_shipped_message_sizes_like_a_walk(
    ops, flush_delay, retain_all, max_batch, pipeline_depth, close
):
    """Any interleaving of add / ack / aggregated ack / exclude and re-add /
    flush (the go-back-N rewind) / force / timer ticks: each
    BufferMsg handed to ``send`` carries a hint, sizes exactly as the
    reference sizes it by walking, and the running sizes stay aligned with
    the retained records through every trim."""
    sim = Simulator()
    shipped = []
    buffer = CommunicationBuffer(
        viewid=VID,
        backups=ALL_BACKUPS[:2],
        configuration_size=5,
        send=lambda mid, message: shipped.append(message),
        set_timer=lambda delay, fn, *a: sim.schedule(delay, fn, *a),
        on_force_failure=lambda: None,
        force_timeout=10_000.0,
        max_batch=max_batch,
        retain_all=retain_all,
        flush_delay=flush_delay,
        pipeline_depth=pipeline_depth,
        clock=lambda: sim.now,
    )
    for op, *params in ops:
        if op == "add":
            buffer.add(_record(*params))
        elif op == "ack":
            mid, ts = params
            buffer.on_ack(
                BufferAckMsg(viewid=VID, acked_ts=min(ts, buffer.timestamp), mid=mid)
            )
        elif op == "agg":
            agg = tuple((mid, min(ts, buffer.timestamp)) for mid, ts in params[0])
            buffer.on_ack(BufferAckMsg(viewid=VID, acked_ts=0, mid=0, agg=agg))
        elif op == "backups":
            buffer.set_backups(tuple(sorted(params[0])))
        elif op == "flush":
            buffer.flush()
        elif op == "force" and buffer.timestamp:
            buffer.force_to(Viewstamp(VID, buffer.timestamp))
        elif op == "run":
            sim.run(until=sim.now + params[0])
        _assert_sizes_aligned(buffer)
        if retain_all:
            assert len(buffer._records) == buffer.timestamp
    if close:
        buffer.close()
        buffer.flush()
        _assert_sizes_aligned(buffer)
    for message in shipped:
        assert message.records_bytes == reference.estimate_size(message.records)
        assert message.byte_size() == reference.message_byte_size(message)
        if message.records:  # contiguous, which the backup's index skip relies on
            first = message.records[0][0]
            stamps = [ts for ts, _record in message.records]
            assert stamps == list(range(first, first + len(stamps)))


def test_resend_after_trim_and_readd_is_still_sized_exactly():
    """The deterministic corner: trim moves the base, an excluded backup is
    re-added below it, and the suffix is re-sent from the new base."""
    shipped = []
    sim = Simulator()
    buffer = CommunicationBuffer(
        viewid=VID, backups=(1, 2), configuration_size=3,
        send=lambda mid, message: shipped.append((mid, message)),
        set_timer=lambda delay, fn, *a: sim.schedule(delay, fn, *a),
        on_force_failure=lambda: None, force_timeout=10_000.0, max_batch=4,
    )
    for n in range(10):
        buffer.add(_record(n % 3, n))
    buffer.set_backups((1,))
    buffer.on_ack(BufferAckMsg(viewid=VID, acked_ts=6, mid=1))
    assert buffer._base_ts == 6 and len(buffer._sized) == 5
    buffer.set_backups((1, 2))  # mid 2 is back, acked 0: below the base
    buffer.flush()
    (to_two,) = [message for mid, message in shipped if mid == 2]
    assert [ts for ts, _r in to_two.records] == [7, 8, 9, 10]
    for _mid, message in shipped:
        assert message.byte_size() == reference.message_byte_size(message)


# -- the transmission discipline: send once, one retransmitter, held reordering --

FLUSH_INTERVAL = 5.0


class _Backup:
    """The real ``Cohort._apply_buffer_records`` (and the real hold) run on a
    stub that logs every record the bookkeeping sees."""

    def __init__(self):
        self.applied = []  # ts in application order
        self.stub = types.SimpleNamespace(
            applied_ts=0,
            held=HeldRecords(),
            cur_viewid=VID,
            history=types.SimpleNamespace(advance=lambda viewid, ts: None),
            tracer=None,
            config=ProtocolConfig(),
            _record_bookkeeping=lambda viewstamp, record, at_backup: (
                self.applied.append(viewstamp.ts)
            ),
        )

    def deliver(self, message, mid):
        Cohort._apply_buffer_records(self.stub, message.records)
        return BufferAckMsg(viewid=VID, acked_ts=self.stub.applied_ts, mid=mid)


class _SendOnceModel:
    """What the discipline allows, tracked from the outside: per backup the
    send mark, the ack the primary has seen, and when its outstanding records
    last made progress."""

    def __init__(self, backups, patience, window):
        self.patience = patience
        self.window = window
        self.mark = dict.fromkeys(backups, 0)
        self.acked = dict.fromkeys(backups, 0)
        self.progress_at = dict.fromkeys(backups, 0.0)
        self.resends = 0

    def on_send(self, mid, message, now, base_ts):
        stamps = [ts for ts, _record in message.records]
        first, last = stamps[0], stamps[-1]
        assert stamps == list(range(first, last + 1))
        start = max(self.acked[mid], base_ts)
        assert last <= start + self.window  # never past the window
        if first <= self.mark[mid]:
            # A record this backup was already sent: only the sweep's
            # go-back-N does that, from the ack, after a full
            # max(flush_interval, rto) without ack progress.
            assert now - self.progress_at[mid] >= self.patience, (mid, stamps, now)
            assert first == start + 1
            self.resends += 1
            self.progress_at[mid] = now
        else:
            assert first == max(self.mark[mid], base_ts) + 1  # no record skipped
            if self.mark[mid] <= self.acked[mid]:
                self.progress_at[mid] = now  # nothing was outstanding
        self.mark[mid] = last

    def on_ack(self, mid, acked_ts, now):
        if acked_ts > self.acked[mid]:
            self.acked[mid] = acked_ts
            self.progress_at[mid] = now
            self.mark[mid] = max(self.mark[mid], acked_ts)


class _PushModel:
    """What background delivery allows.  A push served at once shows as a
    move of the buffer's per-link gate (``_pushed``); one operation runs at
    most one offer, so the moves of one operation are one offer's pushes.  A
    push a coalescing tick serves moves no gate: the tick is its only path."""

    def __init__(self, buffer, config_size, ticked):
        self.buffer = buffer
        self.needed = sub_majority(config_size)
        self.ticked = ticked
        self.gate = dict(buffer._pushed)
        self.acked_before = dict(buffer.acked)
        self.pushes = 0

    def after_op(self, sends):
        """*sends*: ``(mid, first_ts, last_ts)`` of every message of this op."""
        buffer = self.buffer
        moved = [mid for mid in buffer._pushed if buffer._pushed[mid] != self.gate[mid]]
        if self.ticked:
            assert not moved and buffer.pushes >= self.pushes
            self.pushes = buffer.pushes
        assert len(moved) <= self.needed            # a sub-majority's worth of links
        for mid in moved:
            # Self-clocked: the link's previous push was acknowledged, the
            # primary knew it, before this one left.
            assert buffer.acked[mid] >= self.gate[mid], (mid, self.gate, buffer.acked)
            # One message, ending where the gate now stands.
            assert [s for s in sends if s[0] == mid and s[2] == buffer._pushed[mid]]
            # To the best-acknowledged backups, as the primary saw them before
            # the operation or sees them after it (an ack re-offers).
            ranks = [
                sorted(acks.values(), reverse=True)[self.needed - 1]
                for acks in (self.acked_before, buffer.acked)
            ]
            assert buffer.acked[mid] >= min(ranks), (mid, ranks, buffer.acked)
        assert buffer.pushes == self.pushes + len(moved)
        self.pushes = buffer.pushes
        self.gate = dict(buffer._pushed)
        self.acked_before = dict(buffer.acked)


wire_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(1, 4)),
        st.tuples(st.just("call"), st.integers(1, 3)),  # add, then push: _run_call
        st.tuples(st.just("call"), st.integers(1, 3)),
        st.tuples(st.just("push")),
        st.tuples(st.just("force"), st.integers(0, 40)),
        st.tuples(st.just("sweep")),
        st.tuples(st.just("run"), st.sampled_from([0.25, 0.5, 1.0, 2.5, 5.0, 7.5])),
        st.tuples(st.just("deliver"), st.integers(0, 200)),
        st.tuples(st.just("drop"), st.integers(0, 200)),
        st.tuples(st.just("duplicate"), st.integers(0, 200)),
    ),
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(
    wire_ops,
    st.sampled_from([(2, 3), (4, 5)]),                 # (backups, config size)
    st.sampled_from([0.0, 0.5]),                       # flush_delay
    st.integers(1, 4),                                 # max_batch
    st.integers(1, 3),                                 # pipeline_depth
    st.sampled_from([None, 2.0, 7.5]),                 # every peer's learned RTO
)
def test_send_once_under_loss_duplication_and_reordering(
    ops, shape, flush_delay, max_batch, pipeline_depth, rto
):
    """Any interleaving of add / push / force / tick / sweep with loss,
    duplication and reordering of BufferMsgs and acks alike: every backup
    applies every record exactly once and in order, a force is resolved
    exactly when the primary has seen a sub-majority cover it, no record goes
    to a backup twice -- pushed or forced -- unless a full
    ``max(flush_interval, rto)`` passed without ack progress from it, a link
    carries at most one unacknowledged push, an offer is pushed to at most a
    sub-majority's worth of links (the best-acknowledged ones; a tick serves
    it when ``flush_delay`` > 0) -- and once the link heals, the sweep alone
    converges every backup and resolves every force."""
    n_backups, config_size = shape
    backups = {mid: _Backup() for mid in range(1, n_backups + 1)}
    sim = Simulator()
    # Every message of both kinds in flight, as (destination mid, or 0 for the
    # primary; message): the ops pick what arrives, is lost, or arrives twice.
    in_flight = []
    window = pipeline_depth * max_batch
    # An ack may sit out one coalescing tick at a backup that coalesces them.
    patience = max(FLUSH_INTERVAL, (rto or 0.0) + flush_delay)
    model = _SendOnceModel(backups, patience, window)

    sends = []  # (mid, first ts, last ts) of the current op's messages

    def send(mid, message):
        assert isinstance(message, BufferMsg) and message.records  # nothing new, nothing sent
        model.on_send(mid, message, sim.now, buffer._base_ts)
        in_flight.append((mid, message))
        sends.append((mid, message.records[0][0], message.records[-1][0]))

    buffer = CommunicationBuffer(
        viewid=VID, backups=tuple(backups), configuration_size=config_size,
        send=send, set_timer=lambda delay, fn, *a: sim.schedule(delay, fn, *a),
        on_force_failure=lambda: None, force_timeout=1e9,
        max_batch=max_batch, flush_delay=flush_delay, pipeline_depth=pipeline_depth,
        flush_interval=FLUSH_INTERVAL, clock=lambda: sim.now, rto=lambda mid: rto,
    )
    forces = []  # (ts, future)
    pushes = _PushModel(buffer, config_size, ticked=flush_delay > 0)

    def arrive(destination, message):
        if destination:
            ack = backups[destination].deliver(message, destination)
            in_flight.append((0, ack))
        else:
            model.on_ack(message.mid, message.acked_ts, sim.now)
            buffer.on_ack(message)  # may resume a flush the window cut short
            pushes.after_op(sends)  # ... and re-offer what a shut gate kept
            sends.clear()

    def check():
        needed = sub_majority(config_size)
        for backup in backups.values():
            assert backup.applied == list(range(1, len(backup.applied) + 1))
            assert len(backup.stub.held) <= HeldRecords.LIMIT
        for ts, future in forces:
            covered = sum(1 for acked in model.acked.values() if acked >= ts)
            assert future.done == (covered >= needed)
            if future.done:
                assert future.exception() is None
        pushes.after_op(sends)
        sends.clear()

    for op, *params in ops:
        if op in ("add", "call"):
            for _ in range(params[0]):
                buffer.add(Aborted(aid=Aid("g", VID, buffer.timestamp)))
        if op in ("call", "push"):
            buffer.push()
        elif op == "force" and buffer.timestamp:
            ts = 1 + params[0] % buffer.timestamp
            forces.append((ts, buffer.force_to(Viewstamp(VID, ts))))
        elif op == "sweep":
            buffer.flush()
        elif op == "run":
            sim.run(until=sim.now + params[0])
        elif op in ("deliver", "drop", "duplicate") and in_flight:
            picked = in_flight[params[0] % len(in_flight)]
            if op != "duplicate":
                in_flight.remove(picked)
            if op != "drop":
                arrive(*picked)
        check()

    # The link heals: everything in flight arrives, then sweeps every
    # flush_interval are the only retransmitter there is.
    for _round in range(4 + buffer.timestamp // max_batch):
        while in_flight:
            arrive(*in_flight.pop(0))
        sim.run(until=sim.now + patience)
        buffer.flush()
        sim.run(until=sim.now + 1.0)  # a resume tick
        check()
    while in_flight:
        arrive(*in_flight.pop(0))
    check()
    for backup in backups.values():
        assert len(backup.applied) == buffer.timestamp
        assert len(backup.stub.held) == 0
    assert all(future.done for _ts, future in forces)


thrift_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(1, 3)),
        st.tuples(st.just("call"), st.integers(1, 3)),  # add, then push
        st.tuples(st.just("force"), st.integers(0, 40)),
        st.tuples(st.just("run"), st.sampled_from([0.25, 0.5, 1.0, 2.5, 7.5])),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(
    thrift_ops,
    st.sampled_from([(2, 3), (4, 5), (6, 7), (2, 5)]),  # (backups, config size)
    st.sampled_from([3, 200]),                         # max_batch: a tight window, an ample one
)
def test_speedy_delivery_to_a_sub_majority_still_sends_everybody_everything_once(
    ops, shape, max_batch
):
    """Unbatched, on links that lose nothing (one-way delay 1.0, a sweep every
    5.0): whatever the interleaving of adds, pushes, forces and acks, a force
    or push ships at most a sub-majority's worth of backups, no record goes to
    a backup twice, every sweep brings every send mark to the timestamp
    (window permitting), and at rest ``records_sent`` is exactly
    ``timestamp * len(backups)`` with every force resolved."""
    n_backups, config_size = shape
    needed = sub_majority(config_size)
    sim = Simulator()
    received = {mid: [] for mid in range(1, n_backups + 1)}
    sends = []  # destination of every message of the current op

    def send(mid, message):
        sends.append(mid)
        sim.schedule(1.0, deliver, mid, message)

    def deliver(mid, message):
        received[mid].extend(ts for ts, _record in message.records)
        ack = BufferAckMsg(viewid=VID, acked_ts=received[mid][-1], mid=mid)
        sim.schedule(1.0, buffer.on_ack, ack)

    buffer = CommunicationBuffer(
        viewid=VID, backups=tuple(received), configuration_size=config_size,
        send=send, set_timer=lambda delay, fn, *a: sim.schedule(delay, fn, *a),
        on_force_failure=lambda: None, force_timeout=1e9, max_batch=max_batch,
        flush_interval=FLUSH_INTERVAL, clock=lambda: sim.now,
    )

    def sweep():
        buffer.flush()
        if max_batch == 200:  # marks never go back: nobody is ever a sweep behind
            assert min(buffer._sent.values()) == buffer.timestamp
        sim.schedule(FLUSH_INTERVAL, sweep)

    sim.schedule(FLUSH_INTERVAL, sweep)
    forces = []
    for op, *params in ops:
        sends.clear()
        if op in ("add", "call"):
            for _ in range(params[0]):
                buffer.add(Aborted(aid=Aid("g", VID, buffer.timestamp)))
            if op == "call":
                buffer.push()
        elif op == "force" and buffer.timestamp:
            forces.append(buffer.force_to(Viewstamp(VID, 1 + params[0] % buffer.timestamp)))
        if op == "run":
            sim.run(until=sim.now + params[0])
        else:
            assert len(sends) == len(set(sends)) <= needed
    sim.run(until=sim.now + 4 * FLUSH_INTERVAL * (1 + buffer.timestamp // max_batch))
    for stamps in received.values():  # everything, once, in order
        assert stamps == list(range(1, buffer.timestamp + 1))
    assert buffer.records_sent == buffer.timestamp * n_backups
    assert buffer._lossy_until == 0.0 and not buffer._cut  # no rewind, nothing cut short
    assert all(force.done and force.exception() is None for force in forces)


def test_the_hold_is_bounded_and_belongs_to_one_view():
    record = Aborted(aid=Aid("g", VID, 0))

    def message(first_ts, count=2):
        return tuple((ts, record) for ts in range(first_ts, first_ts + count))

    held = HeldRecords()
    for first_ts in (10, 12, 14, 40):
        held.hold(VID, message(first_ts))
    assert held.take(VID, 5) == ()                   # the gap still stands
    assert held.take(ViewId(3, 0), 9) == ()          # asked for another view
    assert held.take(VID, 9) == message(10)          # exactly the next
    # A go-back-N resend applied through ts 13 meanwhile: the continuation
    # first, then what it overlapped is handed over to be skipped by index.
    assert held.take(VID, 13) == message(14)
    assert held.take(VID, 15) == message(12)
    assert held.take(VID, 15) == () and len(held) == 1
    for first_ts in range(100, 100 + 2 * HeldRecords.LIMIT):
        held.hold(VID, message(first_ts, count=1))
    assert len(held) == HeldRecords.LIMIT            # bounded: the rest is dropped
    held.hold(ViewId(3, 0), message(4))              # a new view's first hold
    assert len(held) == 1 and held.take(VID, 39) == ()  # ... drops the old view's
    held.clear()
    assert len(held) == 0 and held.viewid is None


# -- one force deadline per buffer ------------------------------------------------

FORCE_TIMEOUT = 10.0


class _PerForceTimers:
    """The parent's scheme, kept as the oracle: every pending force owns a
    ``set_timer(force_timeout)`` that resolution cancels; whichever fires
    first fails every pending force and signals the cohort once."""

    def __init__(self, sim):
        self.sim = sim
        self.pending = []  # [ts, timer]
        self.events = []   # (time, "failed", (ts, ...)) | (time, "resolved", ts)

    def force(self, ts):
        self.pending.append([ts, self.sim.schedule(FORCE_TIMEOUT, self._timed_out)])

    def reached(self, ts):
        for force in [f for f in self.pending if f[0] <= ts]:
            force[1].cancel()
            self.pending.remove(force)
            self.events.append((self.sim.now, "resolved", force[0]))

    def _timed_out(self):
        failed = tuple(ts for ts, _timer in self.pending)
        for _ts, timer in self.pending:
            timer.cancel()
        self.pending = []
        self.events.append((self.sim.now, "failed", failed))


deadline_schedules = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.25, 1.0, 2.5, 4.75, 9.75, 10.0, 12.5]),  # then wait
        st.sampled_from(["force", "force", "ack", "add"]),
        st.integers(0, 30),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(deadline_schedules)
def test_one_force_deadline_fires_when_per_force_timers_did(schedule):
    """A scripted schedule of forces and acks (times are quarter units, exact
    in binary): the buffer's single re-armed deadline fails the same forces
    at the same instants as one timer per force did, with at most one
    deadline timer alive and none ever cancelled."""
    sim, oracle_sim = Simulator(), Simulator()  # the same instants, separate heaps
    oracle = _PerForceTimers(oracle_sim)
    events = []
    armed = []

    def set_timer(delay, fn, *args):
        timer = sim.schedule(delay, fn, *args)
        if fn == buffer._force_deadline:
            armed.append(timer)
            assert sum(1 for t in armed if t.active) <= 1
        return timer

    buffer = CommunicationBuffer(
        viewid=VID, backups=(1, 2), configuration_size=5,  # sub-majority 2
        send=lambda mid, message: None, set_timer=set_timer,
        on_force_failure=lambda: events.append((sim.now, "signal")),
        force_timeout=FORCE_TIMEOUT, clock=lambda: sim.now, flush_interval=FLUSH_INTERVAL,
    )

    def watch(ts, future):
        def done(f):
            kind = "failed" if isinstance(f.exception(), ForceAbandoned) else "resolved"
            events.append((sim.now, kind, ts))
        future.add_done_callback(done)

    for wait, op, n in schedule:
        sim.run(until=sim.now + wait)
        oracle_sim.run(until=sim.now)
        if op == "add" or not buffer.timestamp:
            buffer.add(Aborted(aid=Aid("g", VID, buffer.timestamp)))
        elif op == "force":
            ts = 1 + n % buffer.timestamp
            future = buffer.force_to(Viewstamp(VID, ts))
            if not future.done:  # it has to wait: both schemes now time it
                oracle.force(ts)
                watch(ts, future)
        elif op == "ack":
            ts = 1 + n % buffer.timestamp
            for mid in (1, 2):
                buffer.on_ack(BufferAckMsg(viewid=VID, acked_ts=ts, mid=mid))
            oracle.reached(buffer._sub_majority_ts())
    sim.run()
    oracle_sim.run()
    failed_at = [at for at, kind, _stamps in oracle.events if kind == "failed"]
    theirs = [e for e in oracle.events if e[1] == "resolved"] + [
        (at, "failed", ts)
        for at, kind, stamps in oracle.events if kind == "failed" for ts in stamps
    ]
    assert sorted(e for e in events if e[1] != "signal") == sorted(theirs)
    assert [at for at, kind, *_rest in events if kind == "signal"] == failed_at
    assert sim.timers_cancelled == 0  # the oracle cancelled one per resolved force
