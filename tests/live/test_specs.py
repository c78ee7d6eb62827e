"""Liveness specs and the checker: windows, relaxation, stall reports."""

import pytest

from repro.live import (
    EventuallyCommits,
    EventuallySinglePrimary,
    LivenessViolation,
    NoLivelock,
    ViewChangeConverges,
    spec_catalog,
)
from repro.harness.common import build_kv_system
from repro.live.report import build_stall_report


def _group_node_ids(kv):
    return [node.node_id for node in kv.nodes()]


# -- constructor validation ---------------------------------------------------


def test_spec_constructors_validate_arguments():
    with pytest.raises(ValueError):
        EventuallySinglePrimary("kv", within=0.0)
    with pytest.raises(ValueError):
        EventuallyCommits(0, within=100.0)
    with pytest.raises(ValueError):
        NoLivelock("kv", max_retries=0, within=100.0)


def test_spec_catalog_shapes():
    rt, _kv, _clients, _driver, _spec = build_kv_system(seed=90)
    bare = spec_catalog("kv", rt.config)
    names = [spec.name for spec in bare]
    assert names == [
        "eventually_single_primary", "view_change_converges", "no_livelock",
    ]
    with_commits = spec_catalog("kv", rt.config, commits=2)
    assert [spec.name for spec in with_commits][-1] == "eventually_commits"
    # The throughput window must cover a fully backed-off client retry.
    assert with_commits[-1].within >= bare[0].within
    strict = spec_catalog("kv", rt.config, strict=True)
    assert all(not spec.relax_under_disruption for spec in strict)


# -- checker on a healthy system ----------------------------------------------


def test_healthy_system_satisfies_the_catalog():
    rt, _kv, _clients, driver, spec = build_kv_system(seed=91)
    checker = rt.arm_liveness(spec_catalog("kv", rt.config, commits=1))
    # Keep trickling writes: eventually_commits is only meaningful while
    # a workload runs (an idle-but-healthy system would trip it).
    futures = []
    for round_start in range(0, 3000, 500):
        futures.append(
            driver.call(
                "clients", "write", "kv", spec.key(len(futures)), round_start
            )
        )
        rt.run_for(500)
    assert all(future.done for future in futures)
    assert checker.polls > 0
    assert checker.violations == []


def test_arm_liveness_twice_is_an_error():
    rt, _kv, _clients, _driver, _spec = build_kv_system(seed=92)
    rt.arm_liveness(spec_catalog("kv", rt.config))
    with pytest.raises(RuntimeError):
        rt.arm_liveness(spec_catalog("kv", rt.config))


def test_disarm_stops_polling():
    rt, _kv, _clients, _driver, _spec = build_kv_system(seed=93)
    checker = rt.arm_liveness(spec_catalog("kv", rt.config))
    rt.run_for(200)
    polls = checker.polls
    assert polls > 0
    checker.disarm()
    rt.run_for(500)
    assert checker.polls == polls


# -- violations under unhealable disruption -----------------------------------


def test_strict_specs_raise_with_a_quorum_naming_report():
    rt, kv, _clients, _driver, _spec = build_kv_system(seed=94)
    rt.run_for(200)
    node_ids = _group_node_ids(kv)
    rt.faults.partition(*[{node_id} for node_id in node_ids])
    rt.arm_liveness(
        spec_catalog("kv", rt.config, within_scale=0.5, strict=True)
    )
    with pytest.raises(LivenessViolation) as excinfo:
        rt.run_for(5000)
    report = excinfo.value.report
    assert "no partition block holds a majority" in report.reason
    for node_id in node_ids:
        assert node_id in report.reason
    # Diagnosis payload: per-node status and the network snapshot.
    assert {entry["node_id"] for entry in report.nodes} >= set(node_ids)
    assert report.network["partition_blocks"] == [[n] for n in node_ids]
    rendered = report.render()
    assert "eventually_single_primary" in rendered


def test_stall_report_counts_the_nodes_outside_every_named_block():
    """A one-block minority cut leaves the majority in the implicit block
    (``Network.partition``): the report must not blame the partition."""
    rt, kv, _clients, _driver, _spec = build_kv_system(seed=1)
    rt.run_for(200)
    lone = _group_node_ids(kv)[0]
    rt.faults.partition({lone})
    spec = spec_catalog("kv", rt.config, strict=True)[0]
    report = build_stall_report(rt, spec, "stalled")
    assert report.network["partition_blocks"] == [[lone]]
    assert report.reason == "stalled"


def test_collect_mode_accumulates_instead_of_raising():
    rt, kv, _clients, _driver, _spec = build_kv_system(seed=95)
    rt.run_for(200)
    node_ids = _group_node_ids(kv)
    rt.faults.partition(*[{node_id} for node_id in node_ids])
    checker = rt.arm_liveness(
        spec_catalog("kv", rt.config, within_scale=0.5, strict=True),
        raise_on_violation=False,
    )
    rt.run_for(5000)
    assert len(checker.violations) >= 1


def test_relaxed_specs_pause_while_disruption_is_active():
    """The same permanent partition that fires strict specs must never
    fire relaxed ones: disrupted time does not charge the window."""
    rt, kv, _clients, _driver, _spec = build_kv_system(seed=96)
    rt.run_for(200)
    node_ids = _group_node_ids(kv)
    rt.faults.partition(*[{node_id} for node_id in node_ids])
    checker = rt.arm_liveness(spec_catalog("kv", rt.config))
    rt.run_for(8000)  # many windows worth of wall-clock, all disrupted
    assert checker.violations == []
    # Heal, and the group must now deliver within the window -- i.e. the
    # relaxed specs are paused, not dead.
    rt.faults.heal_all()
    rt.run_for(3000)
    assert checker.violations == []
    assert kv.active_primary() is not None


def test_down_node_counts_as_disruption():
    rt, kv, _clients, _driver, _spec = build_kv_system(seed=97)
    rt.run_for(200)
    checker = rt.arm_liveness(spec_catalog("kv", rt.config))
    assert not checker.disrupted()
    rt.faults.crash(_group_node_ids(kv)[0])
    assert checker.disrupted()
    rt.faults.heal_all()
    assert not checker.disrupted()


def test_disk_fault_counts_as_disruption():
    rt, kv, _clients, _driver, _spec = build_kv_system(seed=98)
    checker = rt.arm_liveness(spec_catalog("kv", rt.config))
    assert not checker.disrupted()
    rt.faults.disk_slow(_group_node_ids(kv)[0], factor=4.0)
    assert checker.disrupted()
    rt.faults.heal_all()
    assert not checker.disrupted()


# -- individual spec behaviour ------------------------------------------------


def test_eventually_commits_rebases_after_each_window():
    rt, _kv, _clients, driver, spec = build_kv_system(seed=99)
    commits = EventuallyCommits(1, within=500.0)
    commits.bind(rt)
    assert not commits.satisfied()
    future = driver.call("clients", "write", "kv", spec.key(0), 1)
    rt.run_for(400)
    assert future.done
    assert commits.satisfied()  # consumed the fresh commit, re-based
    assert not commits.satisfied()  # next window needs a new commit


def test_view_change_converges_tracks_latest_start():
    rt, kv, _clients, _driver, _spec = build_kv_system(seed=100)
    rt.run_for(300)
    converges = ViewChangeConverges("kv", within=500.0)
    converges.bind(rt)
    assert converges.satisfied()  # bootstrap view change has completed
    rt.faults.crash_primary("kv", recover_after=150.0)
    rt.run_for(2000)
    assert converges.satisfied()  # the replacement view completed too
