"""The cohort's extension seam (``repro.core.extension``).

A disabled mechanism is *absent* -- no object, no wrapped row, no shadowed
method, its subsystem not even imported -- and an armed one contributes
exactly its own extension and rows.  The last test is the repo's first
cross-extension check: every pair of mechanisms against the paper-faithful
state digest.
"""

import itertools
import subprocess
import sys

import pytest

from repro import (
    BatchConfig,
    EmptyModule,
    ProtocolConfig,
    ReadConfig,
    Runtime,
    ScaleConfig,
    TraceConfig,
)
from repro.core import messages as m
from repro.gate import state_run
from repro.harness.common import build_kv_system
from repro.live import one_crash
from repro.storage.stable import StableStoragePolicy

#: mechanism -> (the sub-config and knobs that arm it -- None: a flag of
#: ProtocolConfig itself --, its extension, the rows it adds or wraps)
MECHANISMS = {
    "unilateral_edits": (None, {"unilateral_edits": True}, "UnilateralEdits", set()),
    "batching": ("batch", {"enabled": True}, "Batching", set()),
    "leases": (
        "reads",
        {"enabled": True},
        "Leases",
        {m.BufferAckMsg, m.ImAliveMsg, m.BufferMsg, m.ReadMsg},
    ),
    "gossip": ("scale", {"gossip": True}, "Gossip", {m.ImAliveMsg}),
    "ack_tree": ("scale", {"ack_tree": True}, "AckTreeAcks", {m.BufferAckMsg}),
    "witnesses": (
        "scale",
        {"witnesses": 1},
        "Witnesses",
        {m.BufferAckMsg, m.WitnessInstallMsg},
    ),
}
_SUB_CONFIGS = {"batch": BatchConfig, "reads": ReadConfig, "scale": ScaleConfig}


def _config(*names):
    """The ProtocolConfig that arms exactly the mechanisms *names*."""
    knobs = {}
    for name in names:
        section, armed = MECHANISMS[name][:2]
        knobs.setdefault(section, {}).update(armed)
    flags = knobs.pop(None, {})
    return ProtocolConfig(
        **flags,
        **{section: _SUB_CONFIGS[section](**armed) for section, armed in knobs.items()},
    )


def _group(config, n_cohorts=5):
    rt = Runtime(seed=16, config=config)
    return rt.create_group("g", EmptyModule(), n_cohorts=n_cohorts)


def _paper_parts(cohort):
    return (
        cohort,
        cohort.sender,
        cohort.caller,
        cohort.view_change,
        cohort.server_role,
        cohort.client_role,
        cohort.coordinator_role,
        cohort.liveness,
    )


def _extension_rows(cohort):
    """Message types whose handler is not a method of the cohort, its roles,
    its controller or its liveness owner: the rows an extension added or
    wrapped."""
    paper = _paper_parts(cohort)
    return {
        cls
        for table in (cohort._any_status, cohort._primary_only)
        for cls, handler in table.items()
        if not any(getattr(handler, "__self__", None) is part for part in paper)
    }


def _shadowed_methods(cohort):
    """Methods an extension took over with ``wrap`` (instance attributes
    that hide a method of the class)."""
    return {
        f"{type(part).__name__}.{name}"
        for part in _paper_parts(cohort)
        for name, value in vars(part).items()
        if callable(value) and callable(getattr(type(part), name, None))
    }


def test_default_config_builds_the_paper_cohort_and_nothing_else():
    for cohort in _group(ProtocolConfig(), n_cohorts=3).cohorts.values():
        assert cohort.extensions == ()
        assert _extension_rows(cohort) == set()
        assert _shadowed_methods(cohort) == set()
        assert m.WitnessInstallMsg not in cohort._any_status
        assert cohort.buffer_options == {"send": cohort.liveness.send_traffic, "max_batch": 64}


def test_a_default_config_run_never_imports_the_extension_subsystems():
    script = (
        "import sys\n"
        "from repro.harness.common import build_kv_system, run_kv_batch\n"
        "rt, kv, clients, driver, spec = build_kv_system(seed=16)\n"
        "stats = run_kv_batch(rt, driver, spec, 6, read_fraction=0.5)\n"
        "assert stats.committed == 6, stats\n"
        "kv.crash_cohort(kv.active_primary().mymid)\n"
        "rt.run_for(400.0)\n"
        "assert kv.active_primary() is not None\n"
        "loaded = [name for name in ('repro.scale', 'repro.reads.lease',\n"
        "          'repro.reads.serving', 'repro.core.batching',\n"
        "          'repro.storage.policy', 'repro.core.view_edits')\n"
        "          if name in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", sorted(MECHANISMS))
def test_each_mechanism_alone_is_exactly_its_extension_and_its_rows(name):
    _section, _armed, extension, rows = MECHANISMS[name]
    group = _group(_config(name))
    for cohort in group.cohorts.values():
        assert [type(e).__name__ for e in cohort.extensions] == [extension]
        assert _extension_rows(cohort) == rows


def test_unilateral_edits_take_over_one_policy_and_keep_the_whole_buffer():
    """Section 4.1's edits are the controller's ``edit_view`` and the
    buffer's ``retain_all``; the cohort itself gains nothing."""
    group = _group(_config("unilateral_edits"), n_cohorts=3)
    for cohort in group.cohorts.values():
        assert _shadowed_methods(cohort) == {"ViewChangeController.edit_view"}
        assert cohort.buffer_options["retain_all"] is True
    assert group.active_primary().buffer._retain_all


def test_every_method_the_seam_offers_is_taken_over_by_some_extension():
    """No seam without a user: each builder, policy and role method an
    extension may ``wrap`` is wrapped by at least one of the six."""
    witness = _group(_config(*MECHANISMS)).cohort(4)
    assert _shadowed_methods(witness) == {
        "Cohort.acknowledge",
        "Liveness.beacon",
        "Cohort.build_buffer_ack",
        "Liveness.build_im_alive",
        "ViewChangeController.build_acceptance",
        "ViewChangeController.build_init_view",
        "ViewChangeController.activate",
        "ViewChangeController.edit_view",
        "ServerRole._send_query",
    }


#: each stable-storage policy but MINIMAL -> the one method it takes over
STORAGE_POINTS = {
    StableStoragePolicy.PRIMARY_GSTATE: "Cohort.add_record",
    StableStoragePolicy.ALL: "Cohort._record_bookkeeping",
    StableStoragePolicy.LOG: "Cohort.force_to",
}


@pytest.mark.parametrize("policy", list(STORAGE_POINTS), ids=lambda p: p.value)
def test_each_storage_policy_is_one_extension_taking_over_one_method(policy):
    group = _group(ProtocolConfig(storage_policy=policy), n_cohorts=3)
    for cohort in group.cohorts.values():
        assert [type(e).__name__ for e in cohort.extensions] == ["StablePolicy"]
        assert _extension_rows(cohort) == set()
        assert _shadowed_methods(cohort) == {STORAGE_POINTS[policy]}


# -- cross-extension pairs -----------------------------------------------------


def _state_after_writes_reads_and_a_failover(config, txns=12):
    """The identity gate's cell with all monitors armed, a read-only open
    loop and the primary crashing mid-run: the final replicated state is
    schedule-independent, so any config must agree on it with the
    paper-faithful one."""
    system = build_kv_system(
        seed=16, n_cohorts=5, n_keys=txns, config=config,
        trace=TraceConfig(monitors="all"),
    )
    run = state_run(
        system, concurrency=2, settle=60.0, schedule=one_crash(40.0),
        reads={"duration": 400.0, "rate": 0.3},
    )
    assert run.complete
    assert run.metrics["view_changes"] >= 1
    assert run.metrics["reads_ok"] > 0
    return run.state


@pytest.fixture(scope="module")
def paper_faithful_state():
    return _state_after_writes_reads_and_a_failover(ProtocolConfig())


@pytest.mark.parametrize(
    "pair", list(itertools.combinations(sorted(MECHANISMS), 2)), ids="+".join
)
def test_every_pair_of_mechanisms_computes_the_paper_faithful_state(
    pair, paper_faithful_state
):
    assert (
        _state_after_writes_reads_and_a_failover(_config(*pair))
        == paper_faithful_state
    )


@pytest.mark.parametrize("policy", list(STORAGE_POINTS), ids=lambda p: p.value)
def test_every_storage_policy_computes_the_paper_faithful_state(
    policy, paper_faithful_state
):
    config = ProtocolConfig(storage_policy=policy)
    assert _state_after_writes_reads_and_a_failover(config) == paper_faithful_state


# -- found while moving the code (PR 16), fixed by ``Batching.reset`` ---------------


def test_a_batched_backup_acks_again_after_crashing_with_its_ack_timer_armed():
    rt, kv, _clients, driver, spec = build_kv_system(
        seed=16, config=ProtocolConfig(batch=BatchConfig(enabled=True))
    )
    rt.run_for(60.0)
    backup = kv.cohort(1)
    driver.call("clients", "write", "kv", spec.key(0), 1)
    applied = backup.applied_ts
    while backup.applied_ts == applied:
        rt.run_for(0.05)
    kv.crash_cohort(1)  # inside the 0.5-unit coalescing window
    rt.run_for(100.0)
    kv.recover_cohort(1)
    rt.run_for(2000.0)
    for index in range(3):
        driver.call("clients", "write", "kv", spec.key(index), index)
    rt.run_for(2000.0)
    primary = kv.active_primary()
    assert backup.applied_ts == primary.buffer.timestamp
    assert primary.buffer.acked[1] == primary.buffer.timestamp, primary.buffer.acked
