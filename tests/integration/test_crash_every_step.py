"""Systematic crash-point sweep: kill a primary at every instant of a
transaction's life and assert outcome consistency each time.

This is the classic "crash at every protocol step" torture test: the
simulation is deterministic, so sweeping the crash time over the
transaction's whole duration hits every message boundary -- call receipt,
call execution, reply, prepare, force, committing, commit, ack, done.
"""

import pytest

from tests.conftest import build_counter_system


def run_with_crash_at(offset, victim_group, seed=777):
    rt, counter, clients, driver = build_counter_system(seed=seed)
    future = driver.call("clients", "bump", 10, retries=1)
    group = counter if victim_group == "server" else clients
    if offset is not None:
        rt.sim.schedule(offset, group.crash_primary)
        rt.sim.schedule(offset + 400.0, lambda: group.cohort(0).node.recover()
                        if not group.cohort(0).node.up else None)
        # recover whichever cohort actually died
        def recover_all():
            for cohort in group.cohorts.values():
                if not cohort.node.up:
                    cohort.node.recover()
        rt.sim.schedule(offset + 400.0, recover_all)
    rt.run_for(6000)
    rt.quiesce(duration=600)
    outcome = future.result()[0] if future.done else "unresolved"
    value = None
    if counter.active_primary() is not None:
        value = counter.read_object("count")
    return rt, counter, outcome, value


def assert_consistent(rt, counter, outcome, value):
    # Ground truth from the ledger.  The driver retries once after silence,
    # and a retry is a *new* transaction (at-most-once per attempt, see
    # DESIGN.md D9), so up to two commits are legitimate.
    committed = rt.ledger.commit_count
    assert committed in (0, 1, 2)
    if value is not None:
        # The counter reflects exactly the committed work -- never a torn
        # or duplicated install.
        assert value == 10 * committed, (outcome, value, committed)
    if outcome == "committed":
        assert committed >= 1
    if outcome == "aborted":
        # The attempt the driver heard about aborted; a retried attempt may
        # still have committed independently.
        assert committed <= 1
    # Safety always.
    rt.check_invariants(require_convergence=False)
    if counter.active_primary() is not None:
        problems = counter.divergence_report()
        assert not problems, problems


# The transaction completes by ~t=30 in the failure-free run; sweep past it.
CRASH_OFFSETS = [float(t) for t in range(1, 40, 2)]


@pytest.mark.parametrize("offset", CRASH_OFFSETS)
def test_server_primary_crash_at(offset):
    rt, counter, outcome, value = run_with_crash_at(offset, "server")
    assert_consistent(rt, counter, outcome, value)


@pytest.mark.parametrize("offset", CRASH_OFFSETS)
def test_client_primary_crash_at(offset):
    rt, counter, outcome, value = run_with_crash_at(offset, "client")
    assert_consistent(rt, counter, outcome, value)


def test_no_crash_baseline():
    rt, counter, outcome, value = run_with_crash_at(None, "server")
    assert outcome == "committed"
    assert value == 10
    assert_consistent(rt, counter, outcome, value)


@pytest.mark.parametrize("offset", [3.0, 9.0, 15.0, 21.0])
def test_double_crash_both_primaries_at(offset):
    """Crash both the server and the client primary at the same instant."""
    rt, counter, clients, driver = build_counter_system(seed=778)
    future = driver.call("clients", "bump", 10, retries=1)

    def crash_both():
        counter.crash_primary()
        clients.crash_primary()

    def recover_all():
        for group in (counter, clients):
            for cohort in group.cohorts.values():
                if not cohort.node.up:
                    cohort.node.recover()

    rt.sim.schedule(offset, crash_both)
    rt.sim.schedule(offset + 400.0, recover_all)
    rt.run_for(8000)
    rt.quiesce(duration=600)
    value = counter.read_object("count") if counter.active_primary() else None
    committed = rt.ledger.commit_count
    if value is not None:
        assert value == 10 * committed
    rt.check_invariants(require_convergence=False)
