"""Stable-storage policy behaviour (section 4.2 spectrum)."""


import pytest

from repro.config import ProtocolConfig
from repro.core.viewstamp import History, Viewstamp
from repro.storage.stable import StableStoragePolicy

from tests.conftest import build_counter_system


def run_bump(rt, driver, amount, time=400):
    future = driver.call("clients", "bump", amount)
    rt.run_for(time)
    assert future.done
    return future.result()


def test_minimal_policy_catastrophe_stalls():
    rt, counter, _clients, driver = build_counter_system(seed=171)
    assert run_bump(rt, driver, 5)[0] == "committed"
    rt.quiesce()
    for mid in (0, 1):
        counter.crash_cohort(mid)
    rt.run_for(100)
    for mid in (0, 1):
        counter.recover_cohort(mid)
    rt.run_for(4000)
    assert counter.active_primary() is None


def test_all_policy_survives_catastrophe_with_state():
    config = ProtocolConfig(storage_policy=StableStoragePolicy.ALL)
    rt, counter, _clients, driver = build_counter_system(seed=171, config=config)
    assert run_bump(rt, driver, 5)[0] == "committed"
    rt.quiesce()
    for mid in (0, 1):
        counter.crash_cohort(mid)
    rt.run_for(100)
    for mid in (0, 1):
        counter.recover_cohort(mid)
    rt.run_for(4000)
    primary = counter.active_primary()
    assert primary is not None
    assert primary.store.get("count").base == 5
    rt.quiesce()
    rt.check_invariants(require_convergence=False)


def test_primary_gstate_policy_recovers_primary_state():
    """PRIMARY_GSTATE persists gstate at the primary only: if the primary
    is among the recovered cohorts, its durable state seeds the new view."""
    config = ProtocolConfig(storage_policy=StableStoragePolicy.PRIMARY_GSTATE)
    rt, counter, _clients, driver = build_counter_system(seed=172, config=config)
    assert run_bump(rt, driver, 8)[0] == "committed"
    rt.quiesce()
    for mid in (0, 1):  # includes the primary (mid 0)
        counter.crash_cohort(mid)
    rt.run_for(100)
    for mid in (0, 1):
        counter.recover_cohort(mid)
    rt.run_for(4000)
    primary = counter.active_primary()
    assert primary is not None
    assert primary.store.get("count").base == 8


def test_all_policy_recovered_cohort_accepts_normally():
    config = ProtocolConfig(storage_policy=StableStoragePolicy.ALL)
    rt, counter, _clients, driver = build_counter_system(seed=173, config=config)
    assert run_bump(rt, driver, 2)[0] == "committed"
    rt.quiesce()
    victim = counter.cohort(1)
    victim.node.crash()
    rt.run_for(50)
    victim.node.recover()
    # The recovered cohort restored gstate from NVRAM: up-to-date at once.
    assert victim.up_to_date
    assert victim.store.get("count").base == 2


def test_force_to_stable_slows_commit():
    fast = build_counter_system(seed=174)
    slow = build_counter_system(
        seed=174,
        config=ProtocolConfig(
            storage_policy=StableStoragePolicy.LOG, stable_write_latency=25.0
        ),
    )
    for label, (rt, _c, _cl, driver) in (("fast", fast), ("slow", slow)):
        run_bump(rt, driver, 1, time=800)
    fast_lat = fast[0].metrics.latencies["driver_txn_latency"].mean
    slow_lat = slow[0].metrics.latencies["driver_txn_latency"].mean
    assert slow_lat > fast_lat + 25.0  # at least one blocking disk force


def test_log_policy_recovers_the_conventional_system():
    """Section 3.7's conventional system replays its stable log: a lone
    cohort under LOG that crashes after a commit recovers as primary with
    the committed count, and serves the next transaction."""
    config = ProtocolConfig(storage_policy=StableStoragePolicy.LOG)
    rt, counter, _clients, driver = build_counter_system(
        seed=177, n_cohorts=1, config=config
    )
    assert run_bump(rt, driver, 5)[0] == "committed"
    counter.crash_cohort(0)
    rt.run_for(50)
    counter.recover_cohort(0)
    rt.run_for(500)
    primary = counter.active_primary()
    assert primary is not None
    assert primary.store.get("count").base == 5
    assert run_bump(rt, driver, 2)[0] == "committed"
    assert counter.read_object("count") == 7
    rt.check_invariants(require_convergence=False)


def test_transaction_survives_full_group_crash_under_nvram():
    """With the ALL policy the completed-call records, history, and gstate
    all persist: a whole-group crash in the middle of an open transaction
    loses nothing, the restored history still covers the pset, and the
    transaction commits after the group re-forms -- durable state makes
    the crash invisible to the transaction."""
    from repro import transaction_program
    from repro.sim.process import sleep

    config = ProtocolConfig(storage_policy=StableStoragePolicy.ALL)
    rt, counter, clients, driver = build_counter_system(seed=175, config=config)

    @transaction_program
    def slow(txn):
        yield txn.call("counter", "increment", 3)
        yield sleep(500.0)  # the whole server group crashes in this window
        return "done"

    clients.register_program("slow", slow)
    future = driver.call("clients", "slow", retries=0)
    rt.run_for(100)  # call completed; txn still open
    for mid in range(3):
        counter.crash_cohort(mid)
    rt.run_for(50)
    for mid in range(3):
        counter.recover_cohort(mid)
    rt.run_for(8000)
    rt.quiesce()
    # The driver (retries=0) gave up long before the slow transaction
    # finished; the ledger and the object state are the ground truth.
    assert future.done
    primary = counter.active_primary()
    assert primary is not None
    assert primary.lockmgr.holders_of("count") == {}
    assert counter.read_object("count") == 3
    assert rt.ledger.commit_count >= 1
    rt.check_invariants(require_convergence=False)


def _state(cohort):
    """What a stable image holds, by name (a dict, so a failure reads)."""
    record = cohort.gstate_record(None)
    return {
        "image": record.objects,
        "outcomes": record.outcomes,
        "committing": record.committing,
        "pending": record.pending,
        "history": record.history_entries,
    }


@pytest.mark.parametrize("policy", list(StableStoragePolicy), ids=lambda p: p.value)
def test_each_policy_persists_exactly_what_it_says(policy):
    """A committed write, then a call whose transaction is still open: the
    primary and one backup crash and recover at once.  MINIMAL reads
    nothing back, LOG restores the primary as it was at its last force
    (the commit), PRIMARY_GSTATE restores only the primary, ALL restores
    both exactly as they were; only LOG's forces wait on disk."""
    from repro import transaction_program
    from repro.sim.process import sleep

    latency = 25.0
    config = ProtocolConfig(storage_policy=policy, stable_write_latency=latency)
    rt, counter, clients, driver = build_counter_system(seed=176, config=config)

    @transaction_program
    def held_open(txn):
        yield txn.call("counter", "increment", 3)
        yield sleep(500.0)
        return "done"

    clients.register_program("held_open", held_open)
    assert run_bump(rt, driver, 5)[0] == "committed"
    primary, backup = counter.cohort(0), counter.cohort(1)
    at_commit = _state(primary)
    driver.call("clients", "held_open", retries=0)
    rt.run_for(100)
    assert primary.is_active_primary and backup.pending  # the open call's record
    before = {cohort: _state(cohort) for cohort in (primary, backup)}
    if policy is StableStoragePolicy.LOG:
        before[primary] = at_commit  # the call's record was never forced
    for cohort in (primary, backup):
        cohort.node.crash()
        cohort.node.recover()
    restores = {
        StableStoragePolicy.MINIMAL: (False, False),
        StableStoragePolicy.LOG: (True, False),
        StableStoragePolicy.PRIMARY_GSTATE: (True, False),
        StableStoragePolicy.ALL: (True, True),
    }[policy]
    assert (primary.up_to_date, backup.up_to_date) == restores
    for cohort, restored in zip((primary, backup), restores):
        fresh = {
            "image": {}, "outcomes": (), "committing": {}, "pending": (),
            "history": History([Viewstamp(cohort.cur_viewid, 0)]).entries(),
        }
        assert _state(cohort) == (before[cohort] if restored else fresh)
    forces = rt.metrics.latencies["commit_force_latency"]
    assert (forces.minimum >= latency) == (policy is StableStoragePolicy.LOG)
