"""Integration tests for the config-level ablations used by the harness."""


from repro.config import ProtocolConfig

from tests.conftest import build_counter_system


def test_force_on_call_slows_calls_but_commits():
    plain = build_counter_system(seed=191)
    forced = build_counter_system(seed=191, config=ProtocolConfig(force_on_call=True))
    for rt, _c, _cl, driver in (plain, forced):
        future = driver.call("clients", "bump", 1)
        rt.run_for(500)
        assert future.result()[0] == "committed"
    plain_lat = plain[0].metrics.latencies["call_latency:counter"].mean
    forced_lat = forced[0].metrics.latencies["call_latency:counter"].mean
    assert forced_lat > plain_lat  # the extra force shows up per call


def test_force_on_call_prepares_never_wait():
    rt, _counter, _clients, driver = build_counter_system(
        seed=192, config=ProtocolConfig(force_on_call=True)
    )
    for _ in range(5):
        future = driver.call("clients", "bump", 1)
        rt.run_for(400)
        assert future.result()[0] == "committed"
    # Every completed-call record was already forced when prepare arrived.
    assert rt.metrics.counters.get("prepare_force_waits:counter", 0) == 0


def test_viewstamp_checks_off_aborts_cross_view_txn():
    """With the virtual-partitions rule, a transaction whose call ran in an
    earlier view must abort even though its records survived."""
    from repro import transaction_program
    from repro.sim.process import sleep

    for viewstamps, expected in ((True, "committed"), (False, "aborted")):
        rt, counter, clients, driver = build_counter_system(
            seed=193, config=ProtocolConfig(viewstamp_checks=viewstamps)
        )

        @transaction_program
        def straddler(txn):
            result = yield txn.call("counter", "increment", 1)
            yield sleep(300.0)  # a view change happens in this window
            return result

        clients.register_program("straddler", straddler)
        future = driver.call("clients", "straddler")
        rt.run_for(50)
        # Change the counter group's view *without* losing the records:
        # crash a backup so the primary keeps its state and stays primary.
        primary = counter.active_primary()
        backup_mid = primary.cur_view.backups[0]
        counter.crash_cohort(backup_mid)
        rt.run_for(4000)
        assert future.done
        assert future.result()[0] == expected, (viewstamps, future.result())
        rt.quiesce(duration=800)
        expected_count = 1 if expected == "committed" else 0
        assert counter.read_object("count") == expected_count


def test_unilateral_edit_avoids_view_change():
    """A silenced backup uplink is absorbed by a view-edit record: the
    viewid never changes, transactions keep flowing."""
    from repro.net.link import LinkModel

    rt, counter, _clients, driver = build_counter_system(
        seed=194, config=ProtocolConfig(unilateral_edits=True)
    )
    future = driver.call("clients", "bump", 1)
    rt.run_for(300)
    assert future.result()[0] == "committed"
    primary = counter.active_primary()
    viewid_before = primary.cur_viewid
    victim_mid = primary.cur_view.backups[0]
    victim = counter.cohort(victim_mid)
    dead = LinkModel(base_delay=1.0, jitter=0.2, loss_probability=0.9999)
    for peer, address in victim.configuration:
        if peer != victim.mymid:
            rt.network.set_link_model(victim.address, address, dead)
    rt.run_for(300)  # suspicion + exclusion
    assert primary.cur_viewid == viewid_before  # no view change
    assert victim_mid not in primary.cur_view
    assert rt.metrics.counters.get("unilateral_view_edits", 0) >= 1
    # Service continues with the remaining backup.
    future = driver.call("clients", "bump", 1)
    rt.run_for(300)
    assert future.result()[0] == "committed"
    # Heal: the backup is re-added, again without a view change.
    for peer, address in victim.configuration:
        if peer != victim.mymid:
            rt.network.set_link_model(victim.address, address, rt.network.link)
    rt.run_for(500)
    assert primary.cur_viewid == viewid_before
    assert victim_mid in primary.cur_view
    rt.quiesce(duration=800)
    assert victim.store.get("count").base == 2  # caught up via retained buffer


def test_exclusion_below_majority_triggers_real_view_change():
    """If excluding the silent backups would drop the view below a
    majority, the primary must run a full view change instead."""
    from repro.net.link import LinkModel

    rt, counter, _clients, driver = build_counter_system(
        seed=195, config=ProtocolConfig(unilateral_edits=True)
    )
    primary = counter.active_primary()
    dead = LinkModel(base_delay=1.0, jitter=0.2, loss_probability=0.9999)
    # Silence BOTH backups' uplinks: exclusion would leave a minority.
    for backup_mid in primary.cur_view.backups:
        victim = counter.cohort(backup_mid)
        for peer, address in victim.configuration:
            if peer != victim.mymid:
                rt.network.set_link_model(victim.address, address, dead)
    rt.run_for(1500)
    # No unilateral edit could help; the primary is in the view-change loop.
    assert rt.metrics.counters.get("unilateral_view_edits", 0) == 0
    assert rt.metrics.counters.get("view_changes_started:counter", 0) >= 1
