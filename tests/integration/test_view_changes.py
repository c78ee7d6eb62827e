"""View changes end to end: crashes, recoveries, state survival."""


from repro.core.cohort import Status



def submit_ok(rt, driver, program, *args, time=400):
    future = driver.call("clients", program, *args)
    rt.run_for(time)
    assert future.done
    return future.result()


def await_primary(rt, group, deadline=3000):
    limit = rt.sim.now + deadline
    while rt.sim.now < limit:
        primary = group.active_primary()
        if primary is not None:
            return primary
        rt.run_for(50)
    raise AssertionError(f"no active primary for {group.groupid}")


def test_backup_takes_over_after_primary_crash(counter_system):
    rt, counter, _clients, driver = counter_system
    submit_ok(rt, driver, "bump", 5)
    old_primary = counter.active_primary()
    old_viewid = old_primary.cur_viewid
    counter.crash_primary()
    new_primary = await_primary(rt, counter)
    assert new_primary.mymid != old_primary.mymid
    assert new_primary.cur_viewid > old_viewid


def test_committed_state_survives_view_change(counter_system):
    rt, counter, _clients, driver = counter_system
    submit_ok(rt, driver, "bump", 42)
    rt.quiesce()
    counter.crash_primary()
    new_primary = await_primary(rt, counter)
    assert new_primary.store.get("count").base == 42


def test_service_continues_after_view_change(counter_system):
    rt, counter, _clients, driver = counter_system
    submit_ok(rt, driver, "bump", 1)
    counter.crash_primary()
    await_primary(rt, counter)
    # First post-crash attempt may abort (stale cache, the paper's rule);
    # a retry must commit.
    for _ in range(3):
        outcome, _ = submit_ok(rt, driver, "bump", 1)
        if outcome == "committed":
            break
    assert outcome == "committed"
    assert counter.read_object("count") == 2


def test_backup_crash_keeps_old_primary(counter_system):
    """Losing a backup reorganizes but the primary stays (minimal
    disruption: 'the old primary of that view is selected if possible')."""
    rt, counter, _clients, driver = counter_system
    submit_ok(rt, driver, "bump", 1)
    old_primary = counter.active_primary()
    backup_mid = old_primary.cur_view.backups[0]
    counter.crash_cohort(backup_mid)
    rt.run_for(600)
    new_primary = await_primary(rt, counter)
    assert new_primary.mymid == old_primary.mymid
    assert backup_mid not in new_primary.cur_view


def test_recovered_cohort_rejoins(counter_system):
    rt, counter, _clients, driver = counter_system
    submit_ok(rt, driver, "bump", 7)
    victim = counter.crash_primary()
    await_primary(rt, counter)
    counter.recover_cohort(victim)
    rt.run_for(1500)
    primary = await_primary(rt, counter)
    assert victim in primary.cur_view
    rejoined = counter.cohort(victim)
    assert rejoined.status is Status.ACTIVE
    assert rejoined.up_to_date
    rt.quiesce()
    assert rejoined.store.get("count").base == 7


def test_recovered_cohort_is_not_chosen_primary(counter_system):
    """A crashed-and-recovered cohort lost its state; the formation rule
    never picks it as the new primary."""
    rt, counter, _clients, driver = counter_system
    submit_ok(rt, driver, "bump", 3)
    victim = counter.crash_primary()
    await_primary(rt, counter)
    counter.recover_cohort(victim)
    rt.run_for(1500)
    primary = await_primary(rt, counter)
    assert primary.mymid != victim


def test_two_sequential_failovers(counter_system):
    rt, counter, _clients, driver = counter_system
    submit_ok(rt, driver, "bump", 1)
    first = counter.crash_primary()
    await_primary(rt, counter)
    counter.recover_cohort(first)
    rt.run_for(1200)
    second = counter.crash_primary()
    assert second != first
    primary = await_primary(rt, counter)
    assert primary.node.up
    for _ in range(3):
        outcome, _ = submit_ok(rt, driver, "bump", 1)
        if outcome == "committed":
            break
    assert outcome == "committed"
    rt.quiesce()
    rt.check_invariants(require_convergence=False)


def test_no_majority_no_view(counter_system):
    """With two of three cohorts down, no new view can form."""
    rt, counter, _clients, _driver = counter_system
    counter.crash_cohort(0)
    counter.crash_cohort(1)
    rt.run_for(2000)
    assert counter.active_primary() is None


def test_majority_restored_view_forms(counter_system):
    """Formation condition 2: a crashed acceptance from an *older* view can
    be ignored, so a survivor of the newer view plus the recovered cohort
    form a view seeded from the survivor's state."""
    rt, counter, _clients, driver = counter_system
    submit_ok(rt, driver, "bump", 6)
    rt.quiesce()
    # Crash the v1 primary; a new view v2 forms (primary 1, backup 2).
    counter.crash_cohort(0)
    await_primary(rt, counter)
    submit_ok(rt, driver, "bump", 1)  # seed v2 with an event
    rt.quiesce()
    # Now crash v2's primary too: cohort 2 alone has no majority.
    second_victim = counter.crash_primary()
    rt.run_for(800)
    assert counter.active_primary() is None
    # Recover cohort 0: its stable viewid is v1 < cohort 2's v2 normal
    # acceptance, so condition 2 admits the view.
    counter.recover_cohort(0)
    primary = await_primary(rt, counter, deadline=4000)
    assert primary.mymid == 2  # the only cohort with intact state
    assert primary.store.get("count").base >= 6


def test_double_crash_of_knowers_is_catastrophe(counter_system):
    """If the primary and the only up-to-date backup both lose volatile
    state, no view ever forms again (section 4.2), even after recovery."""
    rt, counter, _clients, driver = counter_system
    submit_ok(rt, driver, "bump", 6)
    rt.quiesce()
    counter.crash_cohort(0)
    counter.crash_cohort(1)
    rt.run_for(400)
    counter.recover_cohort(0)
    counter.recover_cohort(1)
    rt.run_for(4000)
    # Cohort 2 survives with state, but it was a backup of the very view
    # the crashed cohorts name, so condition 3 can never be satisfied.
    assert counter.active_primary() is None


def test_viewids_strictly_increase(counter_system):
    rt, counter, _clients, driver = counter_system
    seen = [counter.highest_viewid()]
    for _ in range(2):
        victim = counter.crash_primary()
        await_primary(rt, counter)
        counter.recover_cohort(victim)
        rt.run_for(1200)
        seen.append(counter.highest_viewid())
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen)


def test_prepared_transaction_commits_across_coordinator_failover():
    """Committing records survive: a new client-group primary resumes
    phase two ('transactions that committed will still be committed')."""
    from repro import EmptyModule, Runtime
    from tests.conftest import CounterSpec, bump_program

    rt = Runtime(seed=88)
    counter = rt.create_group("counter", CounterSpec(), n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    clients.register_program("bump", bump_program)
    driver = rt.create_driver("driver")
    future = driver.call("clients", "bump", 11)
    rt.run_for(400)
    assert future.result()[0] == "committed"

    # Force a client-group view change; any committing records that had
    # been forced must be resumed by the new primary, and the counter's
    # committed value must stand.
    clients.crash_primary()
    rt.run_for(1500)
    rt.quiesce()
    assert counter.read_object("count") == 11
    rt.check_invariants(require_convergence=False)


def test_call_in_flight_at_primary_crash_follows_the_new_primary():
    """A call sent to a primary that crashes gets neither a reply nor a
    view-changed rejection.  Its retransmit asks the rest of the group
    which view it is in, and the call follows the new primary under the
    same call id: the transaction commits, once, within one retransmit
    wait of the new primary's activation, instead of aborting when the
    caller's patience runs out."""
    from tests.conftest import build_counter_system

    rt, counter, _clients, driver = build_counter_system(seed=6)
    rt.run_for(100)
    future = driver.call("clients", "bump", 1, retries=0)
    resolved_at = []
    future.add_done_callback(lambda _future: resolved_at.append(rt.sim.now))
    counter.crash_primary()  # before the call reaches it
    rt.run_for(400)
    assert future.result() == ("committed", 1)
    activated_at = rt.ledger.view_changes_for("counter")[-1].completed_at
    assert 0 < resolved_at[0] - activated_at < rt.config.call_timeout
    assert counter.read_object("count") == 1
    assert rt.ledger.commit_count == 1


def test_in_flight_transactions_abort_on_client_view_change():
    """'A view change at the coordinator that leads to a new primary will
    cause any of the group's transactions to abort automatically.'"""
    from repro import EmptyModule, Runtime, transaction_program
    from repro.sim.process import sleep
    from tests.conftest import CounterSpec

    rt = Runtime(seed=89)
    rt.create_group("counter", CounterSpec(), n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)

    @transaction_program
    def slow(txn):
        yield txn.call("counter", "increment", 1)
        yield sleep(500.0)  # still running when the primary dies
        yield txn.call("counter", "increment", 1)

    clients.register_program("slow", slow)
    driver = rt.create_driver("driver")
    future = driver.call("clients", "slow", retries=0)
    rt.run_for(100)  # first call done; program sleeping
    clients.crash_primary()
    rt.run_for(3000)
    rt.quiesce()
    assert rt.groups["counter"].read_object("count") == 0
    # The driver never hears back (the new primary doesn't know the
    # request); ground truth records the abort.
    assert rt.ledger.commit_count == 0


def test_view_change_message_types(counter_system):
    """A forced view change uses exactly the Figure-5 message kinds."""
    rt, counter, _clients, driver = counter_system
    submit_ok(rt, driver, "bump", 1)
    before = dict(rt.metrics.messages_sent)
    counter.crash_primary()
    await_primary(rt, counter)
    sent = {
        key: rt.metrics.messages_sent[key] - before.get(key, 0)
        for key in rt.metrics.messages_sent
    }
    assert sent.get("InviteMsg", 0) >= 1
    assert sent.get("AcceptMsg", 0) >= 1
    # Newview state reaches backups through ordinary buffer traffic.
    assert sent.get("BufferMsg", 0) >= 1


def test_ledger_records_view_changes(counter_system):
    rt, counter, _clients, _driver = counter_system
    counter.crash_primary()
    await_primary(rt, counter)
    events = rt.ledger.view_changes_for("counter")
    assert len(events) == 1
    assert events[0].groupid == "counter"
