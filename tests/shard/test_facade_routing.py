"""The sharded façade end to end: routing, cross-shard 2PC, determinism."""

import pytest

from repro import EmptyModule, Runtime
from repro.config import TraceConfig
from repro.shard.map import ShardMap

from tests.shard.util import build_sharded, keys_owned_by, submit


def test_single_key_routes_to_owning_shard():
    _rt, sharded, _driver = build_sharded(settle=0)
    groupid, program, args = sharded.route("write", ("q1", 7))
    assert groupid == sharded.map.shard_for("q1")
    assert program == "write"
    assert args == (groupid, "q1", 7)


def test_cross_shard_routes_to_router():
    _rt, sharded, _driver = build_sharded(settle=0)
    groupid, program, args = sharded.route("transfer", ("a", "b", 1))
    assert groupid == sharded.router_groupid
    assert (program, args) == ("transfer", ("a", "b", 1))


def test_touched_shards():
    _rt, sharded, _driver = build_sharded(settle=0)
    (alone,) = keys_owned_by(sharded, 3)
    assert sharded.touched_shards("write", (alone, 1)) == (
        sharded.shard_groupid(3),
    )
    (src,) = keys_owned_by(sharded, 0)
    (dst,) = keys_owned_by(sharded, 2)
    assert sharded.touched_shards("transfer", (src, dst, 1)) == tuple(
        sorted({sharded.shard_groupid(0), sharded.shard_groupid(2)})
    )
    with pytest.raises(KeyError):
        sharded.touched_shards("no_such_program", ("k",))


def test_write_then_read_through_facade():
    rt, sharded, driver = build_sharded()
    (key,) = keys_owned_by(sharded, 2)
    outcome, _ = submit(rt, driver, sharded, "write", key, 41)
    assert outcome == "committed"
    outcome, value = submit(rt, driver, sharded, "read", key)
    assert (outcome, value) == ("committed", 41)


def test_seq_put_stamps_monotonic_sequence_per_shard():
    rt, sharded, driver = build_sharded(n_shards=2)
    keys = keys_owned_by(sharded, 0, count=3)
    stamps = []
    for index, key in enumerate(keys):
        outcome, stamp = submit(rt, driver, sharded, "seq_put", key, index)
        assert outcome == "committed"
        stamps.append(stamp)
    assert stamps == [1, 2, 3]


def test_multi_put_multi_get_cross_shard():
    rt, sharded, driver = build_sharded()
    pairs = tuple((f"m{i}", i * 10) for i in range(6))
    assert len(sharded.touched_shards("multi_put", (pairs,))) > 1
    outcome, count = submit(rt, driver, sharded, "multi_put", pairs)
    assert (outcome, count) == ("committed", 6)
    outcome, values = submit(
        rt, driver, sharded, "multi_get", tuple(key for key, _ in pairs)
    )
    assert outcome == "committed"
    assert dict(values) == {f"m{i}": i * 10 for i in range(6)}


def test_transfer_treats_missing_keys_as_zero():
    rt, sharded, driver = build_sharded()
    (src,) = keys_owned_by(sharded, 0)
    (dst,) = keys_owned_by(sharded, 1)
    outcome, balances = submit(rt, driver, sharded, "transfer", src, dst, 5)
    assert outcome == "committed"
    assert tuple(balances) == (-5, 5)


def test_routing_emits_shard_route_trace_events():
    rt, sharded, driver = build_sharded(trace=TraceConfig())
    (key,) = keys_owned_by(sharded, 0)
    outcome, _ = submit(rt, driver, sharded, "write", key, 1)
    assert outcome == "committed"
    routes = [e for e in rt.tracer.events() if e.kind == "shard_route"]
    assert routes, "no shard_route event emitted"
    assert routes[-1].data["group"] == sharded.map.shard_for(key)
    assert routes[-1].data["map_version"] == sharded.map.version


def test_duplicate_names_rejected():
    rt = Runtime(seed=3)
    rt.sharded_group("kv", n_shards=2)
    with pytest.raises(ValueError):
        rt.sharded_group("kv", n_shards=2)
    # shard groups occupy the global groupid namespace too
    with pytest.raises(ValueError):
        rt.create_group("kv-s0", EmptyModule())
    with pytest.raises(ValueError):
        rt.sharded_group("bad", n_shards=0)


def test_republish_bumps_version_and_rejects_stale():
    rt, sharded, driver = build_sharded(n_shards=2)
    original = sharded.map
    sharded.republish(original.rebalanced())
    assert rt.location.shard_map("kv").version == original.version + 1
    with pytest.raises(ValueError):
        rt.location.publish_shard_map("kv", original)
    with pytest.raises(ValueError):
        sharded.republish(ShardMap(("other-a", "other-b"), version=5))
    # hash maps keep assignments across rebalance versions, and routing
    # keeps working after the republish
    assert original.moved_keys(sharded.map, [f"q{i}" for i in range(100)]) == []
    outcome, _ = submit(rt, driver, sharded, "write", "q0", 9)
    assert outcome == "committed"


def test_routing_independent_of_runtime_seed():
    _rt_a, sharded_a, _ = build_sharded(seed=1, settle=0)
    _rt_b, sharded_b, _ = build_sharded(seed=987654321, settle=0)
    keys = [f"q{i}" for i in range(50)]
    assert [sharded_a.map.shard_for(k) for k in keys] == [
        sharded_b.map.shard_for(k) for k in keys
    ]


def test_same_seed_runs_have_identical_shard_digests():
    def one_run():
        rt, sharded, driver = build_sharded(seed=99, n_shards=3)
        for index in range(6):
            outcome, _ = submit(
                rt, driver, sharded, "seq_put", f"q{index}", index
            )
            assert outcome == "committed"
        outcome, _ = submit(rt, driver, sharded, "transfer", "q0", "q5", 2)
        assert outcome == "committed"
        rt.quiesce()
        rt.check_invariants()
        return sharded.ledger_digests()

    first = one_run()
    second = one_run()
    assert set(first) == {f"kv-s{i}" for i in range(3)}
    assert first == second
