"""Monitor tests: each invariant trips on a synthetic violation, stays
quiet on legitimate sequences, and the flagship acceptance test -- a
deliberately broken cohort activating a second primary in one viewid --
is caught online with a causal slice of at most 50 events."""

import types

import pytest

from repro import View
from repro.net.messages import Envelope
from repro.config import TraceConfig
from repro.harness.common import build_kv_system, run_kv_batch
from repro.sim.kernel import Simulator
from repro.trace import InvariantViolation, Tracer, build_monitors


def make_tracer(*names):
    tracer = Tracer(Simulator(seed=1), TraceConfig())
    tracer.install_monitors(build_monitors(names))
    return tracer


# -- viewstamp_monotonic ---------------------------------------------------


def test_viewstamp_monotonic_trips_on_regression():
    tracer = make_tracer("viewstamp_monotonic")
    tracer.emit("record_added", node="n0", group="kv", mid=0,
                viewid="v1.0", ts=5, rtype="Committed", role="primary")
    with pytest.raises(InvariantViolation) as caught:
        tracer.emit("record_added", node="n0", group="kv", mid=0,
                    viewid="v1.0", ts=5, rtype="Committed", role="primary")
    assert caught.value.monitor == "viewstamp_monotonic"


def test_viewstamp_monotonic_resets_on_newview_reinstall():
    # a recovered backup re-installs the newview and re-applies from ts=2
    tracer = make_tracer("viewstamp_monotonic")
    tracer.emit("record_added", node="n0", group="kv", mid=0,
                viewid="v2.1", ts=9, rtype="Committed", role="backup")
    tracer.emit("newview_installed", node="n0", group="kv", mid=0,
                viewid="v2.1")
    tracer.emit("record_added", node="n0", group="kv", mid=0,
                viewid="v2.1", ts=2, rtype="Committed", role="backup")


def test_viewstamp_monotonic_keys_are_independent():
    tracer = make_tracer("viewstamp_monotonic")
    tracer.emit("record_added", node="n0", group="kv", mid=0,
                viewid="v1.0", ts=5, rtype="Committed", role="primary")
    # other cohort, other view: their own watermarks
    tracer.emit("record_added", node="n1", group="kv", mid=1,
                viewid="v1.0", ts=2, rtype="Committed", role="backup")
    tracer.emit("record_added", node="n0", group="kv", mid=0,
                viewid="v2.0", ts=1, rtype="NewView", role="primary")


# -- single_primary --------------------------------------------------------


def test_single_primary_trips_on_second_activation():
    tracer = make_tracer("single_primary")
    tracer.emit("primary_activated", node="n0", group="kv", mid=0,
                viewid="v3.1", members=[0, 1, 2])
    tracer.emit("primary_activated", node="n0", group="kv", mid=0,
                viewid="v3.1", members=[0, 1, 2])  # same cohort: allowed
    with pytest.raises(InvariantViolation) as caught:
        tracer.emit("primary_activated", node="n2", group="kv", mid=2,
                    viewid="v3.1", members=[0, 1, 2])
    violation = caught.value
    assert violation.monitor == "single_primary"
    assert "two primaries" in violation.message
    assert len(violation.causal_slice) <= 50


# -- quorum_intersection ---------------------------------------------------


def test_quorum_intersection_trips_on_minority_view():
    tracer = make_tracer("quorum_intersection")
    with pytest.raises(InvariantViolation) as caught:
        tracer.emit("view_formed", node="n0", group="kv", mid=0,
                    viewid="v2.0", primary=0, members=[0], config_size=3)
    assert caught.value.monitor == "quorum_intersection"


def test_quorum_intersection_trips_on_disjoint_views():
    tracer = make_tracer("quorum_intersection")
    tracer.emit("view_formed", node="n0", group="kv", mid=0,
                viewid="v1.0", primary=0, members=[0, 1], config_size=3)
    with pytest.raises(InvariantViolation) as caught:
        tracer.emit("view_formed", node="n2", group="kv", mid=2,
                    viewid="v2.2", primary=2, members=[2, 3], config_size=3)
    assert "does not intersect" in caught.value.message


def test_quorum_intersection_allows_overlapping_majorities():
    tracer = make_tracer("quorum_intersection")
    tracer.emit("view_formed", node="n0", group="kv", mid=0,
                viewid="v1.0", primary=0, members=[0, 1], config_size=3)
    tracer.emit("view_formed", node="n1", group="kv", mid=1,
                viewid="v2.1", primary=1, members=[1, 2], config_size=3)


# -- commit_quorum ---------------------------------------------------------


def test_commit_quorum_trips_without_backup_acks():
    tracer = make_tracer("commit_quorum")
    with pytest.raises(InvariantViolation) as caught:
        tracer.emit("commit_point", node="n0", group="kv", aid="a1",
                    viewid="v1.0", force_ts=7, plist=["kv"],
                    acked={"1": 3, "2": 0}, config_size=3)
    assert caught.value.monitor == "commit_quorum"


def test_commit_quorum_satisfied_by_sub_majority():
    tracer = make_tracer("commit_quorum")
    tracer.emit("commit_point", node="n0", group="kv", aid="a1",
                viewid="v1.0", force_ts=7, plist=["kv"],
                acked={"1": 7, "2": 0}, config_size=3)


def test_commit_quorum_accepts_an_unforced_commit_with_nobody_to_tell():
    # every participant was read-only: no committing record, no force
    # (DESIGN.md D15), whatever the backups have acknowledged
    tracer = make_tracer("commit_quorum")
    tracer.emit("commit_point", node="n0", group="clients", aid="a1",
                viewid="v1.0", force_ts=None, plist=[],
                acked={"1": 0, "2": 0}, config_size=3)


def test_commit_quorum_trips_on_an_unforced_commit_with_a_writer():
    # the mutant: skipping the force while a participant still waits for
    # phase two is the decision a view change could lose
    tracer = make_tracer("commit_quorum")
    with pytest.raises(InvariantViolation) as caught:
        tracer.emit("commit_point", node="n0", group="clients", aid="a1",
                    viewid="v1.0", force_ts=None, plist=["kv"],
                    acked={"1": 9, "2": 9}, config_size=3)
    assert caught.value.monitor == "commit_quorum"
    assert "without a forced committing record" in caught.value.message


def test_commit_quorum_trips_on_a_sole_participant_answering_before_its_force(monkeypatch):
    # the mutant: a participant the pset names alone decides (DESIGN.md D17),
    # and tells its coordinator before its committed record is majority-known
    from repro.core.server_role import ServerRole

    monkeypatch.setattr(
        ServerRole, "_when_durable", lambda self, aid, then, *args: then(*args)
    )
    rt, _kv, _clients, driver, spec = build_kv_system(
        seed=9, n_cohorts=3, trace=TraceConfig(monitors=("commit_quorum",))
    )
    with pytest.raises(InvariantViolation) as caught:
        run_kv_batch(rt, driver, spec, 4, read_fraction=0.0, concurrency=1)
    assert caught.value.monitor == "commit_quorum"
    assert caught.value.event.data["group"] == "kv"


# -- phantom_delivery ------------------------------------------------------


def test_phantom_delivery_trips_on_unsent_message():
    tracer = make_tracer("phantom_delivery")
    payload = types.SimpleNamespace(msg_type="CallMsg")
    sent = Envelope(1, "a", "b", payload, 0.0)
    tracer.on_send(sent)
    tracer.on_deliver(sent)  # marked (no cause, but sent): quiet
    tracer.pop()
    with pytest.raises(InvariantViolation) as caught:
        tracer.on_deliver(Envelope(99, "a", "b", payload, 0.0))
    assert caught.value.monitor == "phantom_delivery"
    assert "message 99 (CallMsg) delivered to b but was never sent" in str(
        caught.value
    )


# -- the acceptance-criterion integration test -----------------------------


def test_broken_cohort_two_primaries_caught_with_small_slice():
    """Deliberately violate the protocol: force a backup to activate as
    primary of the view the real primary already owns.  The online
    single_primary monitor must catch it at the activation instant, and
    the violation's causal slice must be a readable <=50-event story."""
    rt, kv, _clients, driver, spec = build_kv_system(
        seed=9, n_cohorts=3, trace=TraceConfig(monitors=("single_primary",))
    )
    run_kv_batch(rt, driver, spec, 10, read_fraction=0.5, concurrency=2)
    rt.run_for(300)
    primary = kv.active_primary()
    assert primary is not None
    backup_mid = next(iter(primary.cur_view.backups))
    backup = kv.cohorts[backup_mid]
    rogue_view = View(
        primary=backup_mid,
        backups=tuple(sorted(primary.cur_view.members - {backup_mid})),
    )
    with pytest.raises(InvariantViolation) as caught:
        backup.activate_as_primary(primary.cur_viewid, rogue_view)
    violation = caught.value
    assert violation.monitor == "single_primary"
    assert violation.event.kind == "primary_activated"
    assert violation.event.data["mid"] == backup_mid
    assert 1 <= len(violation.causal_slice) <= 50
    # the slice is the minimal explanation: it contains the offending event
    assert violation.event.eid in {e.eid for e in violation.causal_slice}


def test_healthy_chaos_run_raises_no_violations():
    from repro.gate import _chaos

    metrics = _chaos()[1](11, 300).metrics  # all monitors armed; one tripping raises
    assert metrics["trace_events"] > 0 and metrics["faults"] > 0
