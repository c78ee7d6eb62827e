"""Tests for protocol message shapes, sizes, and configuration."""

import dataclasses

import pytest

from repro.config import BatchConfig, ProtocolConfig, ReadConfig, ScaleConfig, TraceConfig
from repro.core import messages as m
from repro.core.view import View
from repro.core.viewstamp import ViewId, Viewstamp
from repro.net.messages import estimate_size
from repro.storage.stable import StableStoragePolicy
from repro.txn.ids import Aid, CallId
from repro.txn.pset import PSet, PSetPair

V1 = ViewId(1, 0)
AID = Aid("g", V1, 1)


def test_all_messages_are_dataclasses_with_types():
    for name in dir(m):
        obj = getattr(m, name)
        if isinstance(obj, type) and name.endswith("Msg"):
            assert dataclasses.is_dataclass(obj), name


def test_message_type_names():
    call = m.CallMsg(
        viewid=V1, call_id=CallId(AID, 1), aid=AID, proc="p", args=(),
        reply_to="x",
    )
    assert call.msg_type == "CallMsg"
    assert call.byte_size() > 32


def test_prepare_size_scales_with_pset():
    small = m.PrepareMsg(aid=AID, pset_pairs=(), coordinator="c")
    pairs = tuple(
        PSetPair("g", Viewstamp(V1, i)) for i in range(10)
    )
    large = m.PrepareMsg(aid=AID, pset_pairs=pairs, coordinator="c")
    assert large.byte_size() > small.byte_size()


def test_pset_byte_size_small_and_discardable():
    """The paper's point: psets are a few dozen bytes per call."""
    pset = PSet()
    for i in range(3):
        pset.add("g", Viewstamp(V1, i))
    assert pset.byte_size() < 100


def test_view_byte_size():
    view = View(primary=0, backups=(1, 2, 3, 4))
    # What the wire charges: primary + backups tuple (4 + 4 ints).
    assert view.byte_size() == 44 == estimate_size(view)


def test_config_defaults_sane():
    config = ProtocolConfig()
    assert config.suspect_timeout() > config.im_alive_interval
    assert config.force_timeout > config.flush_interval
    assert config.underling_timeout > config.invite_timeout
    assert config.storage_policy is StableStoragePolicy.MINIMAL
    assert config.viewstamp_checks is True
    assert config.force_on_call is False
    assert config.unilateral_edits is False
    assert config.extended_formation_rule is False


@pytest.mark.parametrize(
    "knobs",
    [{"max_batch": 0}, {"max_batch": -3}, {"pipeline_depth": 0}, {"flush_interval": -0.5}],
    ids=["max_batch=0", "max_batch=-3", "pipeline_depth=0", "flush_interval<0"],
)
@pytest.mark.parametrize("enabled", [False, True], ids=["off", "on"])
def test_batch_config_rejects_a_window_that_would_stall_every_force(enabled, knobs):
    """A zero-record window ships no record, batched or not: every force
    times out into a view change (``build_kv_system(seed=1)``, 20 mixed
    operations: 51 view changes, and every write ended ``unknown``).  Such a
    config is refused where it is made."""
    with pytest.raises(ValueError):
        ProtocolConfig(batch=BatchConfig(enabled=enabled, **knobs))
    assert BatchConfig(enabled=enabled, max_batch=1, pipeline_depth=1, flush_interval=0.0)


@pytest.mark.parametrize("ring_size", [0, -5, 2.5, True, "64"])
def test_trace_config_rejects_a_ring_that_is_not_a_positive_int(ring_size):
    """The tracer took ``max(1, int(ring_size))`` without a word, so a ring of
    0 or -5 silently held one event and 2.5 held two.  Such a config is
    refused where it is made, naming the field."""
    with pytest.raises(ValueError, match="ring_size"):
        TraceConfig(ring_size=ring_size)
    assert TraceConfig(ring_size=1).ring_size == 1


@pytest.mark.parametrize("witnesses", [-1, -5])
def test_scale_config_rejects_a_negative_witness_count(witnesses):
    """A negative count used to build a paper-faithful group silently; the
    config refuses it where it is made, naming the field (the upper bound
    needs the group's size, so ``Quorums`` keeps that one)."""
    with pytest.raises(ValueError, match="witnesses"):
        ScaleConfig(witnesses=witnesses)
    assert ScaleConfig(witnesses=0).witnesses == 0


@pytest.mark.parametrize("fanout", [0, -2])
def test_scale_config_rejects_a_gossip_fanout_below_one(fanout):
    """A heartbeat round that targets nobody."""
    with pytest.raises(ValueError, match="gossip_fanout"):
        ScaleConfig(gossip=True, gossip_fanout=fanout)
    assert ScaleConfig(gossip=True, gossip_fanout=1).gossip_fanout == 1


@pytest.mark.parametrize("fanout", [0, -2])
def test_scale_config_rejects_an_ack_fanout_below_one(fanout):
    """An ack-tree node with no children and no roots under the primary."""
    with pytest.raises(ValueError, match="ack_fanout"):
        ScaleConfig(ack_tree=True, ack_fanout=fanout)
    assert ScaleConfig(ack_tree=True, ack_fanout=1).ack_fanout == 1


@pytest.mark.parametrize("staleness", [-0.5, -50.0])
def test_read_config_rejects_a_negative_staleness_bound(staleness):
    """A bound no backup prefix can meet."""
    with pytest.raises(ValueError, match="default_max_staleness"):
        ReadConfig(enabled=True, default_max_staleness=staleness)
    assert ReadConfig(enabled=True, default_max_staleness=0.0).default_max_staleness == 0.0


def test_read_config_rejects_a_client_cache_without_reads():
    """With reads off no driver builds the cache, so the flag did nothing."""
    with pytest.raises(ValueError, match="client_cache"):
        ReadConfig(client_cache=True)
    assert ReadConfig(enabled=True, client_cache=True).client_cache


@pytest.mark.parametrize("lease", [5.0, 10.0], ids=["below", "at"])
def test_protocol_config_rejects_a_lease_that_heartbeats_cannot_renew(lease):
    """A lease no longer than ``im_alive_interval`` lapses between renewals."""
    with pytest.raises(ValueError, match="lease_duration"):
        ProtocolConfig(reads=ReadConfig(enabled=True, lease_duration=lease))
    assert ProtocolConfig(reads=ReadConfig(lease_duration=lease)).reads.lease_duration == lease


@pytest.mark.parametrize("lease", [80.0, 200.0], ids=["at", "above"])
def test_protocol_config_rejects_a_lease_that_outlasts_the_underling_timeout(lease):
    """Lease waits would dominate every view change."""
    with pytest.raises(ValueError, match="lease_duration"):
        ProtocolConfig(reads=ReadConfig(enabled=True, lease_duration=lease))
    assert ProtocolConfig(
        reads=ReadConfig(enabled=True, lease_duration=30.0), underling_timeout=lease + 1
    ).reads.enabled


def test_config_replace_for_ablations():
    config = dataclasses.replace(ProtocolConfig(), viewstamp_checks=False)
    assert config.viewstamp_checks is False
    assert ProtocolConfig().viewstamp_checks is True


def test_aid_ordering_and_embedding():
    a1 = Aid("g", V1, 1)
    a2 = Aid("g", V1, 2)
    a3 = Aid("g", ViewId(2, 0), 1)
    assert a1 < a2 < a3
    assert a1.groupid == "g"
    assert a1.viewid == V1


def test_call_id_subaction_distinguishes_attempts():
    first = CallId(AID, 1, subaction=1)
    retry = CallId(AID, 1, subaction=2)
    assert first != retry
    assert str(first) != str(retry)


def test_pset_merge_and_participants():
    a = PSet()
    a.add("g1", Viewstamp(V1, 1))
    b = PSet()
    b.add("g2", Viewstamp(V1, 2))
    a.merge(b)
    assert a.participants() == frozenset({"g1", "g2"})
    assert len(a) == 2


def test_pset_set_semantics():
    pset = PSet()
    pset.add("g", Viewstamp(V1, 1))
    pset.add("g", Viewstamp(V1, 1))  # duplicate
    assert len(pset) == 1


def test_pset_copy_independent():
    pset = PSet()
    pset.add("g", Viewstamp(V1, 1))
    clone = pset.copy()
    clone.add("g", Viewstamp(V1, 2))
    assert len(pset) == 1
    assert len(clone) == 2
