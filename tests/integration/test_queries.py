"""The query protocol (section 3.4): outcome discovery after lost messages."""


from repro.txn.ids import Aid
from repro.core.viewstamp import ViewId

from tests.conftest import build_counter_system


def test_participant_learns_commit_via_query():
    """Drop every CommitMsg: the participant's janitor queries the
    coordinator group and installs the commit anyway."""
    from repro.net.link import LinkModel

    rt, counter, clients, driver = __import__(
        "tests.conftest", fromlist=["build_counter_system"]
    ).build_counter_system(seed=91)
    # Sever commit traffic: clients primary -> counter primary.
    dead = LinkModel(base_delay=1.0, jitter=0.0, loss_probability=0.999999)
    # We don't know which address sends commits until runtime; instead drop
    # CommitMsg system-wide by monkeypatching is heavy -- use link override
    # for the specific pair after cache warmup.
    future = driver.call("clients", "bump", 5)
    rt.run_for(60)  # calls done, prepare in flight; commit not yet sent
    clients_primary = rt.groups["clients"].active_primary()
    counter_primary = counter.active_primary()
    # Now blackhole the commit path (prepare already went through).
    rt.network.set_link_model(clients_primary.address, counter_primary.address, dead)
    rt.run_for(3000)
    # The coordinator reported commit (force succeeded), but its CommitMsg
    # never arrived; the participant recovers the outcome by querying.
    assert future.result()[0] == "committed"
    rt.network.set_link_model(
        clients_primary.address, counter_primary.address, rt.network.link
    )
    rt.run_for(2000)
    rt.quiesce()
    assert counter.read_object("count") == 5
    rt.check_invariants()


def test_participant_learns_abort_via_query():
    """Drop every AbortMsg: locks are eventually freed through queries."""
    rt, counter, clients, driver = build_and_warm(seed=92)
    from repro import transaction_program

    @transaction_program
    def change_mind(txn):
        yield txn.call("counter", "increment", 50)
        txn.abort("nope")

    clients.register_program("change_mind", change_mind)
    clients_primary = rt.groups["clients"].active_primary()
    counter_primary = counter.active_primary()
    # Blackhole coordinator -> participant (abort messages will be lost)
    # only after the call completes; do it via a scheduled link override.
    from repro.net.link import LinkModel

    dead = LinkModel(base_delay=1.0, jitter=0.0, loss_probability=0.999999)
    future = driver.call("clients", "change_mind")
    rt.run_for(10)  # call sent; reply pending
    rt.network.set_link_model(clients_primary.address, counter_primary.address, dead)
    rt.run_for(100)
    assert future.done and future.result()[0] == "aborted"
    # Locks still held at the participant (the abort message was dropped).
    rt.run_for(3000)  # janitor query -> "aborted" -> cleanup
    assert counter_primary.lockmgr.holders_of("count") == {}
    assert counter.read_object("count") == 0


def build_and_warm(seed):
    from tests.conftest import build_counter_system

    rt, counter, clients, driver = build_counter_system(seed=seed)
    future = driver.call("clients", "bump", 0)
    rt.run_for(300)
    assert future.result()[0] == "committed"
    return rt, counter, clients, driver


def test_query_outcome_committed(counter_system):
    rt, counter, clients, driver = counter_system
    future = driver.call("clients", "bump", 1)
    rt.run_for(400)
    assert future.result()[0] == "committed"
    rt.quiesce()
    aid = next(iter(rt.ledger.committed))
    primary = counter.active_primary()
    outcome, _pairs = primary.query_outcome(aid)
    assert outcome == "committed"


def test_query_outcome_unknown_for_foreign_aid(counter_system):
    rt, counter, _clients, _driver = counter_system
    primary = counter.active_primary()
    foreign = Aid("someone-else", ViewId(1, 0), 99)
    outcome, _ = primary.query_outcome(foreign)
    assert outcome == "unknown"


def test_query_inference_old_view_aborted(counter_system):
    """A coordinator-group primary infers 'aborted' for an unknown aid born
    in an older view of its own group."""
    rt, counter, clients, driver = counter_system
    clients.crash_primary()
    rt.run_for(800)
    new_primary = clients.active_primary()
    assert new_primary is not None
    old_aid = Aid("clients", ViewId(1, 0), 12345)  # born in the old view
    outcome, _ = new_primary.query_outcome(old_aid)
    assert outcome == "aborted"


def test_backups_do_not_infer_aborts(counter_system):
    """Only the primary makes the old-view inference (see DESIGN.md)."""
    rt, counter, clients, driver = counter_system
    clients.crash_primary()
    rt.run_for(800)
    new_primary = clients.active_primary()
    backup_mid = new_primary.cur_view.backups[0]
    backup = clients.cohort(backup_mid)
    old_aid = Aid("clients", ViewId(1, 0), 12345)
    outcome, _ = backup.query_outcome(old_aid)
    assert outcome == "unknown"


def test_query_active_for_running_txn():
    rt, counter, clients, driver = build_and_warm(seed=93)
    from repro import transaction_program
    from repro.sim.process import sleep

    @transaction_program
    def slow(txn):
        yield txn.call("counter", "increment", 1)
        yield sleep(500.0)
        return "ok"

    clients.register_program("slow", slow)
    driver.call("clients", "slow")
    rt.run_for(100)
    primary = rt.groups["clients"].active_primary()
    running = [aid for aid in primary.client_role._txns]
    assert running
    outcome, _ = primary.query_outcome(running[0])
    assert outcome == "active"


def test_any_cohort_answers_queries(counter_system):
    """Backups answer queries from their outcomes table (section 3.4)."""
    rt, counter, clients, driver = counter_system
    future = driver.call("clients", "bump", 3)
    rt.run_for(400)
    assert future.result()[0] == "committed"
    rt.quiesce()
    aid = next(iter(rt.ledger.committed))
    primary = counter.active_primary()
    for backup_mid in primary.cur_view.backups:
        outcome, _ = counter.cohort(backup_mid).query_outcome(aid)
        assert outcome == "committed"
