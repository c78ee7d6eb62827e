"""End-to-end repro.scale behavior: witnesses, ack trees, and the nemesis.

Witness replicas vote in view formation but hold no event buffer, so a
crash-and-reform cycle must (a) never count a witness toward state
coverage, (b) still install formed views on witnesses, and (c) leave
the replicated state exactly what an unscaled group computes.  The
nemesis's crash planner must treat witness-only survivor sets as
stranded even when a bare majority survives.
"""

import pytest

from repro import EmptyModule, Nemesis, Runtime
from repro.config import ProtocolConfig, ScaleConfig
from repro.core.cohort import Status
from repro.harness.common import build_kv_system
from repro.scale import ack_tree
from repro.workloads.kv import KVStoreSpec


def _scaled_kv(seed, n_cohorts, scale, n_keys=8):
    config = ProtocolConfig(scale=scale)
    rt, kv, clients, driver, spec = build_kv_system(
        seed=seed, n_cohorts=n_cohorts, config=config, n_keys=n_keys
    )
    return rt, kv, driver, spec


def _commit_writes(rt, driver, spec, count, base=0):
    from repro.workloads.loadgen import run_closed_loop

    jobs = [
        ("write", ("kv", spec.key((base + i) % spec.n_keys), base + i))
        for i in range(count)
    ]
    stats = run_closed_loop(rt, driver, "clients", jobs, concurrency=2, max_attempts=None)
    deadline = rt.sim.now + 50_000.0
    while stats.committed < count and rt.sim.now < deadline:
        rt.run_for(100.0)
    assert stats.committed == count
    return stats


# -- witnesses through a view change ---------------------------------------


def test_witnesses_never_hold_a_buffer_and_join_views():
    rt, kv, driver, spec = _scaled_kv(31, 7, ScaleConfig(witnesses=2))
    rt.run_for(200.0)
    _commit_writes(rt, driver, spec, 6)
    assert kv.quorums.witnesses == frozenset({5, 6})
    for mid in kv.quorums.witnesses:
        witness = kv.cohort(mid)
        (extension,) = witness.extensions
        assert extension.is_witness
        assert witness.buffer is None
        assert witness.status is Status.ACTIVE, (
            "witness never installed the formed view"
        )
        assert witness.cur_viewid == kv.active_primary().cur_viewid


def test_witness_group_reforms_after_primary_crash_and_state_matches():
    """Crash the primary of a witness-bearing group, reform, recover, and
    the surviving state must equal what the unscaled group computes for
    the same committed writes."""
    scale = ScaleConfig(witnesses=2)
    rt, kv, driver, spec = _scaled_kv(32, 7, scale)
    rt.run_for(200.0)
    _commit_writes(rt, driver, spec, 8)
    crashed = kv.crash_primary()
    deadline = rt.sim.now + 20_000.0
    while kv.active_primary() is None and rt.sim.now < deadline:
        rt.run_for(50.0)
    primary = kv.active_primary()
    assert primary is not None, "witness group never re-formed"
    assert primary.mymid not in kv.quorums.witnesses, "a witness became primary"
    _commit_writes(rt, driver, spec, 8, base=8)
    kv.recover_cohort(crashed)
    rt.quiesce(500.0)
    rt.check_invariants(require_convergence=False)
    # Witnesses joined the new view too.
    viewid = kv.active_primary().cur_viewid
    for mid in kv.quorums.witnesses:
        assert kv.cohort(mid).cur_viewid == viewid


def test_witness_crash_does_not_block_views_or_forces():
    """Witnesses are availability padding: with both witnesses down, the
    storage members still form views and commit (majority(7)=4 <= 5
    storage members)."""
    rt, kv, driver, spec = _scaled_kv(33, 7, ScaleConfig(witnesses=2))
    rt.run_for(200.0)
    for mid in sorted(kv.quorums.witnesses):
        kv.crash_cohort(mid)
    _commit_writes(rt, driver, spec, 6)
    crashed = kv.crash_primary()
    deadline = rt.sim.now + 20_000.0
    while kv.active_primary() is None and rt.sim.now < deadline:
        rt.run_for(50.0)
    assert kv.active_primary() is not None
    kv.recover_cohort(crashed)
    for mid in sorted(kv.quorums.witnesses):
        kv.recover_cohort(mid)
    rt.quiesce(500.0)
    rt.check_invariants(require_convergence=False)


def test_witness_rejects_reads_and_holds_no_state():
    rt, kv, driver, spec = _scaled_kv(34, 5, ScaleConfig(witnesses=1))
    rt.run_for(200.0)
    _commit_writes(rt, driver, spec, 4)
    # Group-level convergence checks skip witnesses entirely.
    report = kv.divergence_report()
    assert not any(
        mid in kv.quorums.witnesses for mid in getattr(report, "mids", [])
    )
    rt.check_invariants(require_convergence=True)


def test_witness_overflow_rejected_at_group_construction():
    rt = Runtime(seed=9, config=ProtocolConfig(
        scale=ScaleConfig(witnesses=3)
    ))
    with pytest.raises(ValueError):
        rt.create_group("g", EmptyModule(), n_cohorts=5)  # max is 2


@pytest.mark.parametrize("witnesses", [-1, -5])
def test_negative_witness_count_rejected_at_group_construction(witnesses):
    """A negative count used to build a paper-faithful group silently: only
    a positive one armed the extension that validated it.  The config now
    refuses it where it is made, so no group is ever built from it."""
    with pytest.raises(ValueError, match="witnesses"):
        rt = Runtime(seed=9, config=ProtocolConfig(
            scale=ScaleConfig(witnesses=witnesses)
        ))
        rt.create_group("g", EmptyModule(), n_cohorts=5)


# -- ack tree under load ----------------------------------------------------

def test_ack_tree_commits_and_converges_like_direct_acks(monkeypatch):
    """Tree-aggregated acks may delay and re-route, never change state:
    the same seed with and without the tree agrees on the final
    replicated state digest."""
    from repro.perf.report import state_digest

    monkeypatch.setattr(ack_tree, "ACK_FANOUT", 2)
    digests = {}
    for label, scale in (
        ("direct", None),
        ("tree", ScaleConfig(ack_tree=True)),
    ):
        rt, kv, driver, spec = _scaled_kv(35, 9, scale)
        rt.run_for(200.0)
        _commit_writes(rt, driver, spec, 12)
        rt.quiesce(500.0)
        rt.check_invariants(require_convergence=True)
        digests[label] = state_digest(rt)
    assert digests["direct"] == digests["tree"]


def test_ack_tree_survives_interior_node_crash(monkeypatch):
    """Acks from a crashed interior node's subtree still reach the
    primary: the go-direct fallback (tree recomputed per view, crashed
    members excluded after reform) must not wedge forces."""
    monkeypatch.setattr(ack_tree, "ACK_FANOUT", 2)
    rt, kv, driver, spec = _scaled_kv(36, 9, ScaleConfig(ack_tree=True))
    rt.run_for(200.0)
    _commit_writes(rt, driver, spec, 4)
    # The first storage backup in sorted order is an ack-tree root with
    # children; crash it mid-run.
    primary = kv.active_primary()
    backups = sorted(m for m in kv.cohorts if m != primary.mymid)
    kv.crash_cohort(backups[0])
    _commit_writes(rt, driver, spec, 6, base=4)
    kv.recover_cohort(backups[0])
    rt.quiesce(500.0)
    rt.check_invariants(require_convergence=False)


# -- nemesis: witness-aware crash planning ----------------------------------


def test_crash_churn_protects_storage_quorum_not_just_majority():
    """Protected crash churn on a witness-bearing group must keep enough
    *storage* cohorts up to cover past force quorums, not merely a bare
    (possibly witness-heavy) majority -- the healed group must always be
    able to re-form and converge."""
    rt, kv, driver, spec = _scaled_kv(37, 7, ScaleConfig(witnesses=2))
    rt.run_for(200.0)
    node_ids = [node.node_id for node in kv.nodes()]
    nemesis = Nemesis("witness-churn").crash_churn(
        node_ids, mttf=400.0, mttr=200.0, protect_group="kv"
    )
    rt.inject(nemesis)
    rt.run_for(6_000.0)
    rt.faults.stop()
    rt.faults.heal()
    rt.faults.restore_links()
    limit = rt.sim.now + 6_000.0
    while kv.active_primary() is None and rt.sim.now < limit:
        rt.run_for(200.0)
    assert kv.active_primary() is not None
    _commit_writes(rt, driver, spec, 6)
    rt.quiesce(1_000.0)
    rt.check_invariants(require_convergence=True)


def test_crash_would_strand_counts_storage_survivors():
    """The planner's guard on a witness-bearing 7-group (5 storage + 2
    witnesses): crashes are allowed down to exactly the storage members a
    view that can force needs -- a primary and ``force`` = 3 storage backups,
    4 of the 5 -- and witnesses count toward no survivor set that matters.
    The guard agrees with form_view, which refuses a view that cannot force,
    at every boundary."""
    from repro.faults.nemesis import CrashChurnRule

    rt, kv, driver, spec = _scaled_kv(38, 7, ScaleConfig(witnesses=2))
    rt.run_for(400.0)
    rule = CrashChurnRule((), 1.0, 1.0, None, "probe", "kv")
    storage = sorted(m for m in kv.cohorts if m not in kv.quorums.witnesses)
    witnesses = sorted(kv.quorums.witnesses)
    nodes = {mid: kv.cohort(mid).node.node_id for mid in kv.cohorts}
    controller = rt.faults
    # Healthy group: crashing one storage member strands nothing.
    assert not rule._crash_would_strand(controller, nodes[storage[0]])
    kv.crash_cohort(storage[0])
    # One down: the 4 storage members left are the floor -- a second storage
    # crash strands the group, a witness crash does not.
    assert rule._crash_would_strand(controller, nodes[storage[1]])
    assert not rule._crash_would_strand(controller, nodes[witnesses[0]])
    kv.crash_cohort(witnesses[0])
    # Two down, 5 of 7 up: the last witness may go too (4 storage members
    # are a majority on their own)...
    assert not rule._crash_would_strand(controller, nodes[witnesses[1]])
    kv.crash_cohort(witnesses[1])
    # ...and with three down any storage crash strands the group.
    for mid in storage[1:]:
        assert rule._crash_would_strand(controller, nodes[mid])
