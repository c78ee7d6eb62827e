"""View-change liveness when the view-change messages themselves are lost.

The formation protocol (invites, accepts, init-view) gets no help from
the communication buffer's retransmission machinery, so a lossy window
that coincides with a crash is the hardest liveness case: the group must
keep retrying -- with backoff and (in adaptive mode) mid-round invite
retransmission -- until a view forms.  Safety must hold throughout: at
no point may two cohorts act as active primary of the same view, and the
final history must be serializable.
"""

import pytest

from repro import FaultPlan
from repro.config import INVITE_TIMEOUT, ProtocolConfig
from repro.core.cohort import Status

from tests.conftest import build_counter_system


def _active_primaries(group):
    return [
        cohort
        for cohort in group.cohorts.values()
        if cohort.node.up and cohort.status is Status.ACTIVE and cohort.is_primary
    ]


def _run_lossy_crash(seed, config=None, loss=0.5, lossy_window=600.0):
    rt, counter, _clients, driver = build_counter_system(seed=seed, config=config)
    future = driver.call("clients", "bump", 1)
    rt.run_for(300)
    assert future.result()[0] == "committed"

    # Heavy loss starts just before the primary dies: the invites,
    # accepts and init-view messages of the ensuing view change are
    # dropped at ~50% until the window closes.
    plan = FaultPlan()
    plan.at(50.0).lossy(rate=loss, duration=lossy_window)
    plan.at(60.0).crash_primary("counter")
    rt.inject(plan)

    deadline = rt.sim.now + 8000.0
    converged_at = None
    while rt.sim.now < deadline:
        rt.run_for(50)
        primaries = _active_primaries(counter)
        # Split-brain check at every step: two up-and-active primaries
        # sharing a viewid would be a safety violation.
        viewids = [cohort.cur_viewid for cohort in primaries]
        assert len(set(viewids)) == len(viewids), "two primaries in one view"
        if converged_at is None and primaries:
            converged_at = rt.sim.now
    assert converged_at is not None, "no view formed despite retries"

    # After the window closes the survivors must settle on one primary.
    primaries = _active_primaries(counter)
    assert len(primaries) == 1
    rt.quiesce(duration=600)
    rt.check_invariants(require_convergence=False)
    return rt, counter, driver, converged_at


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_view_forms_despite_lost_formation_messages(seed):
    rt, counter, driver, _at = _run_lossy_crash(seed)
    # The reorganized group still serves writes.
    for _ in range(3):
        future = driver.call("clients", "bump", 1)
        rt.run_for(600)
        if future.done and future.result()[0] == "committed":
            return
    raise AssertionError("no write committed after the lossy view change")


@pytest.mark.parametrize("seed", [31, 32])
def test_fixed_mode_also_stays_live(seed):
    """The paper-faithful configuration converges too (just more slowly):
    adaptive machinery is an optimization, not a liveness requirement."""
    config = ProtocolConfig(adaptive_timeouts=False)
    _rt, counter, _driver, _at = _run_lossy_crash(seed, config=config)
    assert len(_active_primaries(counter)) == 1


def test_invite_retransmission_fires_under_loss():
    """Adaptive mode actually resends invites when the first copies drop.

    Made to happen, not hoped for from a seed: the manager's first invitation
    to the one live peer is lost on a one-way link failure, while that peer's
    heartbeats keep arriving -- so it is not suspect, formation waits for it,
    and only the mid-round retransmission can reach it before the 40-unit
    ``INVITE_TIMEOUT``."""
    rt, counter, _clients, driver = build_counter_system(seed=41)
    future = driver.call("clients", "bump", 1)
    rt.run_for(300)
    assert future.result()[0] == "committed"
    counter.active_primary().node.crash()
    survivors = [cohort for cohort in counter.cohorts.values() if cohort.node.up]
    manager, deadline = None, rt.sim.now + 500.0
    while manager is None and rt.sim.now < deadline:
        rt.run_for(0.25)  # under one hop: the first invite is still in flight
        manager = next((c for c in survivors if c.status is Status.VIEW_MANAGER), None)
    (peer,) = (cohort for cohort in survivors if cohort is not manager)
    became_manager_at = rt.sim.now
    rt.network.fail_link_oneway(manager.node.node_id, peer.node.node_id)
    rt.run_for(2.0)  # ... and is dropped on arrival
    assert peer.status is Status.ACTIVE and not manager.liveness.suspects(peer.mymid)
    rt.network.repair_link_oneway(manager.node.node_id, peer.node.node_id)
    while not _active_primaries(counter) and rt.sim.now < deadline:
        rt.run_for(1.0)
    assert rt.metrics.counters.get("invite_retransmits:counter", 0) > 0
    # The resent invite formed the view; nobody sat out the invite timeout.
    assert rt.sim.now - became_manager_at < INVITE_TIMEOUT
    assert rt.metrics.counters.get("view_formations_failed:counter", 0) == 0
