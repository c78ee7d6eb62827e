"""Property-based tests for the communication buffer's force semantics."""

from hypothesis import given, settings, strategies as st

from repro.core.buffer import CommunicationBuffer
from repro.core.events import Aborted, Committed, CompletedCall, ObjectEffect
from repro.core.messages import BufferAckMsg
from repro.core.view import sub_majority
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
    st.booleans(),             # batched transmission mode
    st.booleans(),             # retain_all
    st.integers(1, 5),         # max_batch
    st.integers(1, 3),         # pipeline_depth
    st.booleans(),             # close at the end
)
def test_every_shipped_message_sizes_like_a_walk(
    ops, batched, retain_all, max_batch, pipeline_depth, close
):
    """Any interleaving of add / ack / aggregated ack / exclude and re-add /
    flush (the go-back-N rewind in batched mode) / force / timer ticks: each
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
        batch_enabled=batched,
        flush_delay=0.5,
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
