"""End-to-end transaction processing in the failure-free case."""


from repro import EmptyModule, Runtime, transaction_program
from repro.workloads.bank import (
    BankAccountsSpec,
    audit_program,
    cross_bank_transfer_program,
)

from tests.conftest import total_balance


def submit_and_run(rt, driver, group, program, *args, time=400):
    future = driver.call(group, program, *args)
    rt.run_for(time)
    assert future.done, "transaction did not resolve in time"
    return future.result()


def test_single_call_commit(counter_system):
    rt, counter, _clients, driver = counter_system
    outcome, result = submit_and_run(rt, driver, "clients", "bump", 5)
    assert outcome == "committed"
    assert result == 5
    assert counter.read_object("count") == 5


def test_sequential_transactions_accumulate(counter_system):
    rt, counter, _clients, driver = counter_system
    for index in range(5):
        outcome, result = submit_and_run(rt, driver, "clients", "bump", 1)
        assert outcome == "committed"
        assert result == index + 1
    assert counter.read_object("count") == 5


def test_read_only_transaction(counter_system):
    rt, _counter, _clients, driver = counter_system
    submit_and_run(rt, driver, "clients", "bump", 9)
    outcome, result = submit_and_run(rt, driver, "clients", "read")
    assert outcome == "committed"
    assert result == 9


def test_read_only_skips_phase_two(counter_system):
    """Read-only participants commit at prepare: no CommitMsg is sent."""
    rt, _counter, _clients, driver = counter_system
    submit_and_run(rt, driver, "clients", "read")
    assert rt.metrics.messages_sent.get("CommitMsg", 0) == 0
    assert rt.metrics.messages_sent.get("PrepareMsg", 0) >= 1


def test_write_transaction_runs_phase_two():
    """A write whose pset names two groups takes Figure 2's phase two (one
    naming only its participant commits at the prepare: DESIGN.md D17)."""
    rt = Runtime(seed=21)
    rt.create_group("east", BankAccountsSpec(2, 100, prefix="e"), n_cohorts=3)
    rt.create_group("west", BankAccountsSpec(2, 100, prefix="w"), n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    clients.register_program("xfer", cross_bank_transfer_program)
    driver = rt.create_driver("driver")
    outcome, _ = submit_and_run(rt, driver, "clients", "xfer", "east", "e0", "west", "w1", 5)
    assert outcome == "committed"
    assert rt.metrics.messages_sent.get("CommitMsg", 0) >= 2
    assert rt.metrics.messages_sent.get("CommitAckMsg", 0) >= 2


def test_application_abort_propagates(bank_system):
    rt, bank, _clients, driver = bank_system
    # Withdraw more than the balance: the procedure raises, the txn aborts.
    outcome, _ = submit_and_run(rt, driver, "clients", "transfer", "a", "b", 10_000)
    assert outcome == "aborted"
    assert bank.read_object("a") == 100
    assert bank.read_object("b") == 100


def test_aborted_transaction_leaves_no_locks(bank_system):
    rt, bank, _clients, driver = bank_system
    submit_and_run(rt, driver, "clients", "transfer", "a", "b", 10_000)
    rt.quiesce()
    primary = bank.active_primary()
    for account in ("a", "b", "c"):
        assert primary.lockmgr.holders_of(account) == {}


def test_transfer_conserves_money(bank_system):
    rt, bank, _clients, driver = bank_system
    for _ in range(4):
        outcome, _ = submit_and_run(rt, driver, "clients", "transfer", "a", "b", 10)
        assert outcome == "committed"
    assert bank.read_object("a") == 60
    assert bank.read_object("b") == 140
    assert total_balance(bank, ("a", "b", "c")) == 300


def test_multi_group_two_phase_commit():
    """A transaction spanning two replicated groups commits atomically."""
    rt = Runtime(seed=21)
    east = rt.create_group("east", BankAccountsSpec(2, 100, prefix="e"), n_cohorts=3)
    west = rt.create_group("west", BankAccountsSpec(2, 100, prefix="w"), n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    clients.register_program("xfer", cross_bank_transfer_program)
    driver = rt.create_driver("driver")
    outcome, _ = submit_and_run(rt, driver, "clients", "xfer",
                                "east", "e0", "west", "w1", 30)
    assert outcome == "committed"
    assert east.read_object("e0") == 70
    assert west.read_object("w1") == 130
    rt.quiesce()
    rt.check_invariants()


def test_multi_group_abort_is_atomic():
    """If one participant's procedure aborts, neither group changes."""
    rt = Runtime(seed=22)
    east = rt.create_group("east", BankAccountsSpec(2, 10, prefix="e"), n_cohorts=3)
    west = rt.create_group("west", BankAccountsSpec(2, 10, prefix="w"), n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)

    @transaction_program
    def doomed(txn):
        yield txn.call("west", "deposit", "w0", 5)  # succeeds first...
        yield txn.call("east", "withdraw", "e0", 999)  # ...then aborts
        return "unreachable"

    clients.register_program("doomed", doomed)
    driver = rt.create_driver("driver")
    outcome, _ = submit_and_run(rt, driver, "clients", "doomed")
    assert outcome == "aborted"
    rt.quiesce()
    assert west.read_object("w0") == 10  # the first call's effect discarded
    assert east.read_object("e0") == 10


def test_empty_transaction_commits(counter_system):
    rt, _counter, clients, driver = counter_system

    @transaction_program
    def noop(txn):
        return "did nothing"
        yield  # pragma: no cover - marks this as a generator

    clients.register_program("noop", noop)
    outcome, result = submit_and_run(rt, driver, "clients", "noop")
    assert outcome == "committed"
    assert result == "did nothing"
    assert rt.metrics.messages_sent.get("PrepareMsg", 0) == 0


def test_program_driven_abort(counter_system):
    rt, counter, clients, driver = counter_system

    @transaction_program
    def change_mind(txn):
        yield txn.call("counter", "increment", 50)
        txn.abort("changed my mind")

    clients.register_program("change_mind", change_mind)
    outcome, _ = submit_and_run(rt, driver, "clients", "change_mind")
    assert outcome == "aborted"
    rt.quiesce()
    assert counter.read_object("count") == 0


def test_unknown_program_rejected(counter_system):
    rt, _counter, _clients, driver = counter_system
    future = driver.call("clients", "no_such_program", retries=0)
    rt.run_for(500)
    # The client primary fails the transaction; the driver sees a timeout.
    assert future.done


def test_unknown_procedure_aborts(counter_system):
    rt, _counter, clients, driver = counter_system

    @transaction_program
    def bad_call(txn):
        yield txn.call("counter", "no_such_proc")

    clients.register_program("bad_call", bad_call)
    outcome, _ = submit_and_run(rt, driver, "clients", "bad_call")
    assert outcome == "aborted"


def test_audit_reads_consistent_snapshot(bank_system):
    rt, _bank, clients, driver = bank_system
    clients.register_program("audit", audit_program)
    for _ in range(3):
        submit_and_run(rt, driver, "clients", "transfer", "a", "c", 7)
    outcome, result = submit_and_run(
        rt, driver, "clients", "audit", "bank", ["a", "b", "c"]
    )
    assert outcome == "committed"
    assert result == 300


def test_pset_travels_in_prepare(counter_system):
    """The prepare message carries a pset pair for each participant call."""
    rt, counter, _clients, driver = counter_system
    submit_and_run(rt, driver, "clients", "bump", 2)
    # The committed record at the counter primary carries the pset pairs.
    primary = counter.active_primary()
    committed_aids = [a for a, o in primary.outcomes.items() if o == "committed"]
    assert committed_aids


def test_metrics_track_txn_outcomes(counter_system):
    rt, _counter, _clients, driver = counter_system
    submit_and_run(rt, driver, "clients", "bump", 2)
    assert rt.metrics.counters["txns_started:clients"] == 1
    assert rt.metrics.counters["txns_committed:clients"] == 1
    assert rt.ledger.commit_count == 1
    assert rt.ledger.abort_count == 0


def test_replicas_converge_after_commits(counter_system):
    rt, counter, _clients, driver = counter_system
    for _ in range(3):
        submit_and_run(rt, driver, "clients", "bump", 3)
    rt.quiesce()
    assert counter.converged()
    for cohort in counter.active_cohorts():
        assert cohort.store.get("count").base == 9
