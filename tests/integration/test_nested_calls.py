"""Nested remote calls: a server calling another server mid-procedure.

Section 3: "in processing a call, a server may make further calls", and
Figure 3: "If it makes any nested calls, process them as described in
Figure 2" -- the nested call's pset pairs flow back through the reply so
the coordinator prepares *every* group the transaction touched.
"""


from repro import EmptyModule, ModuleSpec, Runtime, procedure, transaction_program
from repro.app.context import TransactionAborted


class FrontSpec(ModuleSpec):
    """A service that delegates to a backing store group."""

    def initial_objects(self):
        return {"requests": 0}

    @procedure
    def cached_incr(self, ctx, key, amount):
        count = yield ctx.read_for_update("requests")
        yield ctx.write("requests", count + 1)
        result = yield ctx.call("store", "incr", key, amount)  # nested call
        return result

    @procedure
    def fanout(self, ctx, keys):
        total = 0
        for key in keys:
            value = yield ctx.call("store", "incr", key, 1)
            total += value
        return total

    @procedure
    def guarded_incr(self, ctx, key, amount, limit):
        value = yield ctx.call("store", "incr", key, amount)
        if value > limit:
            raise TransactionAborted(f"limit exceeded: {value} > {limit}")
        return value


class StoreSpec(ModuleSpec):
    def initial_objects(self):
        return {"k0": 0, "k1": 0}

    @procedure
    def incr(self, ctx, key, amount):
        value = yield ctx.read_for_update(key)
        yield ctx.write(key, value + amount)
        return value + amount


@transaction_program
def via_front(txn, proc, *args):
    result = yield txn.call("front", proc, *args)
    return result


def build(seed=201):
    rt = Runtime(seed=seed)
    front = rt.create_group("front", FrontSpec(), n_cohorts=3)
    store = rt.create_group("store", StoreSpec(), n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    clients.register_program("via_front", via_front)
    driver = rt.create_driver("driver")
    return rt, front, store, driver


def test_nested_call_commits_both_groups():
    rt, front, store, driver = build()
    future = driver.call("clients", "via_front", "cached_incr", "k0", 5)
    rt.run_for(800)
    assert future.result() == ("committed", 5)
    rt.quiesce()
    assert front.read_object("requests") == 1
    assert store.read_object("k0") == 5
    rt.check_invariants()


def test_nested_pset_reaches_coordinator():
    """The prepare fan-out must include the *nested* participant."""
    rt, front, store, driver = build()
    future = driver.call("clients", "via_front", "cached_incr", "k0", 1)
    rt.run_for(800)
    assert future.result()[0] == "committed"
    # Both groups saw a prepare (accepted counters are per-group).
    assert rt.metrics.counters.get("prepares_accepted:front", 0) == 1
    assert rt.metrics.counters.get("prepares_accepted:store", 0) == 1


def test_nested_fanout_multiple_calls():
    rt, front, store, driver = build()
    future = driver.call("clients", "via_front", "fanout", ["k0", "k1"])
    rt.run_for(1500)
    assert future.result() == ("committed", 2)
    rt.quiesce()
    assert store.read_object("k0") == 1
    assert store.read_object("k1") == 1


def test_abort_after_nested_call_rolls_back_everywhere():
    rt, front, store, driver = build()
    future = driver.call("clients", "via_front", "guarded_incr", "k0", 100, 10)
    rt.run_for(1500)
    assert future.result()[0] == "aborted"
    rt.quiesce(duration=2000)
    assert store.read_object("k0") == 0  # nested effect discarded
    assert front.read_object("requests") == 0


def test_nested_call_survives_store_backup_crash():
    rt, front, store, driver = build(seed=202)
    store.cohort(2).node.crash()  # a backup of the nested participant
    future = driver.call("clients", "via_front", "cached_incr", "k1", 3)
    rt.run_for(2000)
    assert future.result()[0] == "committed"
    rt.quiesce(duration=800)
    assert store.read_object("k1") == 3
    rt.check_invariants(require_convergence=False)


def test_deeply_nested_three_hop():
    """client -> front -> middle -> store: psets chain through two hops."""

    class MiddleSpec(ModuleSpec):
        @procedure
        def relay(self, ctx, key, amount):
            result = yield ctx.call("store", "incr", key, amount)
            return result

    class Front2Spec(ModuleSpec):
        @procedure
        def entry(self, ctx, key, amount):
            result = yield ctx.call("middle", "relay", key, amount)
            return result

    rt = Runtime(seed=203)
    rt.create_group("front", Front2Spec(), n_cohorts=3)
    rt.create_group("middle", MiddleSpec(), n_cohorts=3)
    store = rt.create_group("store", StoreSpec(), n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    clients.register_program("via_front", via_front)
    driver = rt.create_driver("driver")
    future = driver.call("clients", "via_front", "entry", "k0", 7)
    rt.run_for(2000)
    assert future.result() == ("committed", 7)
    rt.quiesce()
    assert store.read_object("k0") == 7
    # All three groups are 2PC participants.
    for group in ("front", "middle", "store"):
        assert rt.metrics.counters.get(f"prepares_accepted:{group}", 0) == 1
    rt.check_invariants()
