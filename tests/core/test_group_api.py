"""Tests for the ModuleGroup wiring and inspection API."""

import pytest

from repro import EmptyModule, Runtime

from tests.conftest import CounterSpec


def build(n=3):
    rt = Runtime(seed=0)
    group = rt.create_group("g", CounterSpec(), n_cohorts=n)
    return rt, group


def test_configuration_addresses():
    _rt, group = build()
    assert group.configuration == ((0, "g/0"), (1, "g/1"), (2, "g/2"))
    assert group.size == 3
    assert group.quorums.formation == 2


def test_active_primary_initial():
    _rt, group = build()
    primary = group.active_primary()
    assert primary is not None and primary.mymid == 0


def test_active_primary_none_when_down():
    _rt, group = build()
    group.crash_cohort(0)
    assert group.active_primary() is None or group.active_primary().mymid != 0


def test_active_cohorts_excludes_down():
    _rt, group = build()
    group.crash_cohort(1)
    mids = {c.mymid for c in group.active_cohorts()}
    assert 1 not in mids


def test_crash_primary_returns_mid():
    _rt, group = build()
    assert group.crash_primary() == 0
    assert group.crash_primary() is None or True  # second call mid-change OK


def test_read_object_requires_primary():
    _rt, group = build()
    for mid in range(3):
        group.crash_cohort(mid)
    with pytest.raises(RuntimeError):
        group.read_object("count")


def test_converged_initially():
    rt, group = build()
    rt.run_for(50)
    assert group.converged()
    assert group.divergence_report() == []


def test_highest_viewid_tracks_changes():
    rt, group = build()
    before = group.highest_viewid()
    group.crash_primary()
    rt.run_for(1000)
    assert group.highest_viewid() > before


def test_single_cohort_group_works():
    rt = Runtime(seed=1)
    group = rt.create_group("solo", CounterSpec(), n_cohorts=1)
    assert group.active_primary().mymid == 0
    assert group.quorums.formation == 1


def test_duplicate_groupid_rejected():
    rt = Runtime(seed=2)
    rt.create_group("g", EmptyModule(), n_cohorts=1)
    with pytest.raises(ValueError):
        rt.create_group("g", EmptyModule(), n_cohorts=1)


def test_colocated_groups_share_nodes():
    """Two groups can share nodes (the paper's bottleneck discussion)."""
    rt = Runtime(seed=3)
    g1 = rt.create_group("g1", CounterSpec(), n_cohorts=3)
    nodes = g1.nodes()
    g2 = rt.create_group("g2", CounterSpec(), n_cohorts=3, nodes=nodes)
    assert g2.nodes() == nodes
    # Crashing a shared node takes down a cohort of each group.
    nodes[0].crash()
    assert not g1.cohort(0).node.up
    assert not g2.cohort(0).node.up
