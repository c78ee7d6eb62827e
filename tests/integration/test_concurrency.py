"""Concurrent transactions: locking, serializability, deadlock breaking."""


from repro import EmptyModule, Runtime, transaction_program
from repro.analysis.serializability import SerializabilityChecker
from repro.workloads.kv import KVStoreSpec
from repro.workloads.loadgen import run_closed_loop

from tests.conftest import build_bank_system


def build_kv(seed=61, n_keys=8):
    rt = Runtime(seed=seed)
    spec = KVStoreSpec(n_keys=n_keys)
    kv = rt.create_group("kv", spec, n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    driver = rt.create_driver("driver")
    return rt, kv, clients, driver, spec


def test_concurrent_increments_serialize():
    rt, kv, clients, driver, spec = build_kv()

    @transaction_program
    def incr(txn, key):
        result = yield txn.call("kv", "incr", key)
        return result

    clients.register_program("incr", incr)
    futures = [driver.call("clients", "incr", spec.key(0)) for _ in range(6)]
    rt.run_for(3000)
    outcomes = [f.result() for f in futures if f.done]
    committed = [o for o in outcomes if o[0] == "committed"]
    # All increments on one key serialize through the write lock
    # (incr takes the lock via read_for_update, so no upgrade deadlock);
    # the final value equals the number of commits (no lost updates).
    rt.quiesce()
    assert kv.read_object(spec.key(0)) == len(committed)
    assert len(committed) >= 4  # most should get through


def test_upgrade_deadlock_no_lost_updates():
    """Read-then-write increments upgrade-deadlock under contention: most
    abort, but the survivors' updates are never lost."""
    from repro import ModuleSpec, procedure

    class NaiveCounter(ModuleSpec):
        def initial_objects(self):
            return {"n": 0}

        @procedure
        def incr(self, ctx):
            value = yield ctx.read("n")  # shared lock first: deadlock bait
            yield ctx.write("n", value + 1)
            return value + 1

    rt = Runtime(seed=66)
    kv = rt.create_group("kv", NaiveCounter(), n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)

    @transaction_program
    def incr(txn):
        result = yield txn.call("kv", "incr")
        return result

    clients.register_program("incr", incr)
    driver = rt.create_driver("driver")
    futures = [driver.call("clients", "incr") for _ in range(5)]
    rt.run_for(5000)
    rt.quiesce()
    committed = [f for f in futures if f.done and f.result()[0] == "committed"]
    assert kv.read_object("n") == len(committed)  # no lost updates, ever
    rt.check_invariants(require_convergence=False)


def test_concurrent_disjoint_writes_all_commit():
    rt, kv, clients, driver, spec = build_kv()

    @transaction_program
    def put(txn, key, value):
        result = yield txn.call("kv", "put", key, value)
        return result

    clients.register_program("put", put)
    futures = [
        driver.call("clients", "put", spec.key(i), i * 10) for i in range(8)
    ]
    rt.run_for(2000)
    assert all(f.result()[0] == "committed" for f in futures)
    rt.quiesce()
    for i in range(8):
        assert kv.read_object(spec.key(i)) == i * 10


def test_writer_blocks_reader_until_commit():
    rt, kv, clients, driver, spec = build_kv()
    from repro.sim.process import sleep

    order = []

    @transaction_program
    def slow_writer(txn):
        yield txn.call("kv", "put", spec.key(0), 99)
        order.append(("writer-wrote", rt.sim.now))
        yield sleep(60.0)  # hold the lock, but shorter than client patience
        return "w"

    @transaction_program
    def reader(txn):
        value = yield txn.call("kv", "get", spec.key(0))
        order.append(("reader-read", rt.sim.now, value))
        return value

    clients.register_program("slow_writer", slow_writer)
    clients.register_program("reader", reader)
    wf = driver.call("clients", "slow_writer")
    rt.run_for(50)
    rf = driver.call("clients", "reader")
    rt.run_for(2000)
    assert wf.result()[0] == "committed"
    assert rf.result() == ("committed", 99)  # reader saw the committed value
    # The read completed only after the writer's commit released the lock.
    wrote_at = next(entry[1] for entry in order if entry[0] == "writer-wrote")
    read_at = next(entry[1] for entry in order if entry[0] == "reader-read")
    assert read_at > wrote_at + 60.0


def test_deadlock_broken_by_timeout():
    """Two transactions locking (a, b) in opposite order deadlock; the
    lock timeout aborts at least one and the other commits."""
    from repro.config import ProtocolConfig

    # A short lock timeout lets the deadlock breaker fire before the
    # clients' own call timeouts abort both transactions.
    rt, bank, clients, driver = build_bank_system(
        seed=62, config=ProtocolConfig(lock_timeout=60.0)
    )
    from repro.sim.process import sleep

    @transaction_program
    def lock_ab(txn):
        yield txn.call("bank", "deposit", "a", 1)
        yield sleep(30.0)
        yield txn.call("bank", "deposit", "b", 1)
        return "ab"

    @transaction_program
    def lock_ba(txn):
        yield txn.call("bank", "deposit", "b", 1)
        yield sleep(30.0)
        yield txn.call("bank", "deposit", "a", 1)
        return "ba"

    clients.register_program("lock_ab", lock_ab)
    clients.register_program("lock_ba", lock_ba)
    f1 = driver.call("clients", "lock_ab")
    f2 = driver.call("clients", "lock_ba")
    rt.run_for(6000)
    outcomes = {f1.result()[0], f2.result()[0]}
    assert "committed" in outcomes  # at least one wins
    assert "aborted" in outcomes  # and the deadlock victim died
    rt.quiesce()
    rt.check_invariants(require_convergence=False)


def test_read_locks_shared():
    rt, kv, clients, driver, spec = build_kv()

    @transaction_program
    def read_key(txn):
        value = yield txn.call("kv", "get", spec.key(0))
        return value

    clients.register_program("read_key", read_key)
    futures = [driver.call("clients", "read_key") for _ in range(5)]
    rt.run_for(600)
    assert all(f.result()[0] == "committed" for f in futures)


def test_random_mix_is_serializable():
    """Randomized contended workload: the committed history must be 1SR
    and the counters must reflect exactly the committed increments."""
    rt, kv, clients, driver, spec = build_kv(seed=63, n_keys=4)

    @transaction_program
    def move(txn, src, dst):
        value = yield txn.call("kv", "incr", src, 1)
        yield txn.call("kv", "incr", dst, -1)
        return value

    clients.register_program("move", move)
    rng = rt.sim.rng.fork("mix")
    jobs = [
        ("move", (spec.key(rng.randint(0, 3)), spec.key(rng.randint(0, 3))))
        for _ in range(30)
    ]
    stats = run_closed_loop(rt, driver, "clients", jobs, concurrency=3)
    deadline = rt.sim.now + 60_000
    while stats.submitted < 30 and rt.sim.now < deadline:
        rt.run_for(500)
    rt.quiesce()
    rt.check_invariants(require_convergence=False)
    total = sum(kv.read_object(spec.key(i)) for i in range(4))
    assert total == 0  # every committed move is balanced


def test_serializability_checker_sees_committed_effects():
    rt, kv, clients, driver, spec = build_kv(seed=64)

    @transaction_program
    def put(txn, key, value):
        result = yield txn.call("kv", "put", key, value)
        return result

    clients.register_program("put", put)
    f = driver.call("clients", "put", spec.key(0), 1)
    rt.run_for(400)
    assert f.result()[0] == "committed"
    rt.quiesce()
    transactions = rt.ledger.committed_transactions()
    assert len(transactions) == 1
    assert ("kv", spec.key(0)) in transactions[0].writes
    SerializabilityChecker(transactions).check()
