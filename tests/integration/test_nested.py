"""Nested transactions / subactions (section 3.6)."""


from repro import EmptyModule, Runtime, transaction_program
from repro.sim.process import sleep
from repro.workloads.kv import KVStoreSpec


def build(seed=51):
    rt = Runtime(seed=seed)
    spec = KVStoreSpec(n_keys=32)
    kv = rt.create_group("kv", spec, n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    driver = rt.create_driver("driver")
    return rt, kv, clients, driver, spec


@transaction_program(subactions=True)
def chain(txn, keys, pause=10.0):
    for key in keys:
        yield txn.call("kv", "incr", key, 1)
        yield sleep(pause)
    return len(keys)


def test_subactions_commit_normally():
    rt, kv, clients, driver, spec = build()
    clients.register_program("chain", chain)
    f = driver.call("clients", "chain", [spec.key(0), spec.key(1)])
    rt.run_for(600)
    assert f.result() == ("committed", 2)
    rt.quiesce()
    assert kv.read_object(spec.key(0)) == 1
    assert kv.read_object(spec.key(1)) == 1


def test_subaction_retry_across_view_change():
    """A call that hits the crash window and cannot reach the group for
    longer than its patience (the caller's links to it are cut for 150
    units; a call follows a view change it can see) is retried as a new
    subaction, and the transaction still commits exactly once."""
    from repro.net.link import LinkModel

    rt, kv, clients, driver, spec = build(seed=52)
    clients.register_program("chain", chain)
    f = driver.call("clients", "chain",
                      [spec.key(i) for i in range(4)], 40.0)
    rt.run_for(60)
    caller = clients.active_primary()
    dead = LinkModel(base_delay=1.0, jitter=0.0, loss_probability=0.999999)
    kv.crash_primary()
    for cohort in kv.cohorts.values():
        rt.network.set_link_model(caller.address, cohort.address, dead)
    rt.run_for(150)
    for cohort in kv.cohorts.values():
        rt.network.set_link_model(caller.address, cohort.address, rt.network.link)
    rt.sim.schedule(200.0, kv.cohort(0).node.recover)
    rt.run_for(5000)
    rt.quiesce()
    if f.done and f.result()[0] == "committed":
        # Exactly-once despite the retries: every key is 1, never 2.
        for i in range(4):
            assert kv.read_object(spec.key(i)) == 1
        assert rt.metrics.counters.get("subaction_retries:clients", 0) >= 1
    rt.check_invariants(require_convergence=False)


def test_orphan_subaction_effects_discarded():
    """If the original attempt actually executed (only its reply was lost),
    the pset filter at prepare drops the orphan's writes: values are
    incremented once, not twice."""
    from repro.net.link import LinkModel

    rt, kv, clients, driver, spec = build(seed=53)
    clients.register_program("chain", chain)
    f = driver.call("clients", "chain", [spec.key(9)])
    rt.run_for(5)
    # Lose the reply path briefly: the call executes but the client never
    # hears; the subaction aborts and a fresh one retries.
    primary = kv.active_primary()
    clients_primary = rt.groups["clients"].active_primary()
    dead = LinkModel(base_delay=1.0, jitter=0.0, loss_probability=0.999999)
    rt.network.set_link_model(primary.address, clients_primary.address, dead)
    rt.run_for(150)
    rt.network.set_link_model(
        primary.address, clients_primary.address, rt.network.link
    )
    rt.run_for(3000)
    rt.quiesce()
    if f.done and f.result()[0] == "committed":
        assert kv.read_object(spec.key(9)) == 1  # exactly once
    rt.check_invariants(require_convergence=False)


def test_flat_transaction_aborts_where_nested_retries():
    """The first call runs at kv's primary and its completed-call record
    reaches the backups, but the reply is lost; then the primary crashes.
    The caller follows the new primary with the same call id, which the
    new primary finds among its surviving records and fails (DESIGN.md
    D7).  A flat transaction must abort; a subaction retry under a fresh
    call id saves the nested one, and every key is incremented once."""

    @transaction_program
    def flat_chain(txn, keys, pause=40.0):
        for key in keys:
            yield txn.call("kv", "incr", key, 1)
            yield sleep(pause)
        return len(keys)

    def lose_reply_then_crash(program):
        rt, kv, clients, driver, spec = build(seed=54)
        clients.register_program(program.__name__, program)
        keys = [spec.key(i) for i in range(4)]
        primary, caller = kv.active_primary(), clients.active_primary()
        rt.faults.fail_link_oneway(primary.node.node_id, caller.node.node_id)
        f = driver.call("clients", program.__name__, keys, 40.0)
        rt.run_for(20)  # the new view is active before the caller's retransmit
        assert all(cohort.pending for cohort in kv.cohorts.values())
        kv.crash_primary()
        rt.faults.repair_link_oneway(primary.node.node_id, caller.node.node_id)
        rt.run_for(4000)
        assert f.done
        assert rt.metrics.messages_sent["CallFailedMsg"] == 1  # the D7 refusal
        return rt, kv, keys, f.result()

    rt, kv, keys, result = lose_reply_then_crash(flat_chain)
    assert result[0] == "aborted"
    rt.check_invariants(require_convergence=False)

    rt, kv, keys, result = lose_reply_then_crash(chain)
    assert result == ("committed", 4)
    assert rt.metrics.counters["subaction_retries:clients"] == 1
    rt.quiesce()
    assert [kv.read_object(key) for key in keys] == [1, 1, 1, 1]
    rt.check_invariants(require_convergence=False)


def test_retry_budget_exhausted_aborts():
    """If the group stays dead, the coordinator's patience runs out and the
    transaction resolves rather than looping forever.  Its prepare went to
    kv alone, which may have committed at it (DESIGN.md D17), so only kv may
    abort it: the client is told ``unknown``, and nothing committed."""
    rt, kv, clients, driver, spec = build(seed=55)
    clients.register_program("chain", chain)
    f = driver.call("clients", "chain", [spec.key(0), spec.key(1)], 30.0)
    rt.run_for(50)
    for mid in range(3):
        kv.crash_cohort(mid)  # the whole group dies
    rt.run_for(10_000)
    assert f.done
    assert f.result()[0] == "unknown"
    assert rt.ledger.commit_count == 0 and rt.ledger.abort_count == 0
    assert rt.metrics.messages_sent["AbortMsg"] == 1


def test_subaction_numbers_are_distinct():
    """Every call attempt carries a distinct subaction id (retries
    included), so server-side filtering can tell them apart."""
    from repro.core.client_role import Transaction

    class FakeRole:
        def _make_call(self, *args, **kwargs):  # pragma: no cover
            raise NotImplementedError

    from repro.txn.ids import Aid
    from repro.core.viewstamp import ViewId

    txn = Transaction(FakeRole(), Aid("g", ViewId(1, 0), 1), use_subactions=True)
    ids = [txn.next_attempt_id(base_seq=i) for i in range(5)]
    subactions = [call_id.subaction for call_id in ids]
    assert len(set(subactions)) == 5
