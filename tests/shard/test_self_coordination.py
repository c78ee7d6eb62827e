"""The sharded single-key path: one group coordinates itself.

Routing a single-key call to the owning shard's primary means the same
cohort plays both the client role (coordinator) and the server role
(participant) for one transaction.  These tests pin the engine behaviours
that path depends on: the commit at its own prepare still installs and
releases write locks, the messages the group addresses to itself are handed
over in place (no prepare or accept on the wire, and an abort -- also a
coordinator-server's -- releases its locks synchronously), and a procedure
raising an unexpected exception fails the call instead of wedging the group
behind a dead lock holder.
"""

from repro import Runtime, procedure, transaction_program
from repro.app.context import TransactionAborted
from repro.workloads.kv import KVStoreSpec, write_program

from tests.shard.util import build_sharded, keys_owned_by
from tests.shard.util import submit as sharded_submit


class SelfServeSpec(KVStoreSpec):
    @procedure
    def boom(self, ctx, key):
        yield ctx.read_for_update(key)
        raise TypeError("procedure bug")

    @procedure
    def guarded_take(self, ctx, key, limit):
        value = yield ctx.read_for_update(key)
        if value < limit:
            raise TransactionAborted(f"{key} below {limit}")
        yield ctx.write(key, value - limit)
        return value - limit


@transaction_program
def boom_program(txn, group, key):
    result = yield txn.call(group, "boom", key)
    return result


@transaction_program
def take_program(txn, group, key, limit):
    result = yield txn.call(group, "guarded_take", key, limit)
    return result


def build_self_group(seed=5):
    rt = Runtime(seed=seed)
    spec = SelfServeSpec(n_keys=4, prefix="k")
    spec.register_program("write", write_program)
    spec.register_program("boom", boom_program)
    spec.register_program("take", take_program)
    group = rt.create_group("g", spec, n_cohorts=3)
    driver = rt.create_driver("driver")
    rt.run_for(100)
    return rt, group, driver


def submit(rt, driver, program, *args, time=800.0):
    future = driver.call("g", program, *args)
    rt.run_for(time)
    assert future.done, f"{program}{args!r} still pending"
    return future.result()


def test_self_coordinated_writes_install_and_release_locks():
    rt, group, driver = build_self_group()
    # Each write takes the same write lock; if the commit at the prepare
    # skipped the install, the second write would wait forever.
    for value in (1, 2, 3):
        outcome, _ = submit(rt, driver, "write", "g", "k0", value)
        assert outcome == "committed"
    assert group.read_object("k0") == 3
    rt.quiesce()
    rt.check_invariants()


def test_self_coordinated_abort_releases_locks_synchronously():
    rt, group, driver = build_self_group()
    outcome, _ = submit(rt, driver, "take", "g", "k1", 10)
    assert outcome == "aborted"  # k1 starts at 0
    # The abort must have freed k1's write lock: an immediate write (and
    # then a now-satisfiable take) go straight through.
    outcome, _ = submit(rt, driver, "write", "g", "k1", 50)
    assert outcome == "committed"
    outcome, remaining = submit(rt, driver, "take", "g", "k1", 10)
    assert (outcome, remaining) == ("committed", 40)


def test_a_single_key_write_puts_no_prepare_or_prepare_ok_on_the_network():
    """The shard's primary is the coordinator and the participant: its
    prepare and the accept that answers it are handed over in place
    (DESIGN.md D20), in the default configuration too."""
    rt, sharded, driver = build_sharded()
    (key,) = keys_owned_by(sharded, 2)
    sent = rt.metrics.messages_sent
    before = {kind: sent.get(kind, 0) for kind in ("PrepareMsg", "PrepareOkMsg")}
    outcome, _ = sharded_submit(rt, driver, sharded, "write", key, 41)
    assert outcome == "committed"
    assert {kind: sent.get(kind, 0) for kind in before} == before
    assert sharded.shard(2).read_object(key) == 41


def test_a_shard_that_coordinates_its_own_abort_leaks_no_write_lock():
    """A shard serving as an agent's coordinator-server (section 3.5) aborts
    a transaction that wrote one of its keys: the ``AbortMsg`` it addresses
    to itself is handled before its ``Aborted`` record, which would make a
    mailed one a no-op and strand the write lock for good."""
    rt, sharded, driver = build_sharded()
    (key,) = keys_owned_by(sharded, 2)
    groupid = sharded.shard_groupid(2)
    agent = rt.create_agent("agent", groupid)

    def write_then_abort(txn):
        yield txn.call(groupid, "put", key, 5)
        txn.abort("changed my mind")

    outcome = agent.run_transaction(write_then_abort)
    rt.run_for(200.0)
    assert outcome.result()[0] == "aborted"
    assert rt.lock_residue() == []
    assert sharded_submit(rt, driver, sharded, "write", key, 6)[0] == "committed"
    assert sharded.shard(2).read_object(key) == 6


def test_unexpected_procedure_error_fails_call_without_wedging():
    rt, group, driver = build_self_group()
    outcome, _ = submit(rt, driver, "boom", "g", "k0")
    assert outcome == "aborted"
    assert any(
        "TypeError" in reason for reason in rt.ledger.aborted.values()
    ), rt.ledger.aborted
    # the dead call's lock footprint is gone: the key writes immediately
    outcome, _ = submit(rt, driver, "write", "g", "k0", 7)
    assert outcome == "committed"
    assert group.read_object("k0") == 7
