"""``repro.gate``: every gate of the table holds at small size, and each way
a gate can fail exits 1 (2 for a name that selects nothing) saying which row
and which digests or which check of the cell."""

import itertools

import pytest

from repro import gate
from repro.config import BatchConfig, ProtocolConfig
from repro.gate import GATES, Gate, main, run_gate, state_run
from repro.harness.common import build_kv_system
from repro.live import Schedule
from repro.perf.report import state_digest

#: Transactions per row here (CI runs the table's own sizes).  The deep
#: window needs enough clients in flight for a flush to coalesce anything.
SMALL = dict.fromkeys(GATES, 8) | {"batching-deep": 64}
#: Of the composition gate, the fault-free row and all four together: eight
#: writes end before any fault fires, so a row only shows it can be built and
#: healed (tests/live, test_soak.py: sizes where faults fire; CI: the pairs).
ROWS = {"chaos": GATES["chaos"].rows[:1] + GATES["chaos"].rows[-1:]}


@pytest.mark.parametrize("name", sorted(GATES))
def test_every_gate_in_the_table_holds_at_small_size(name, capsys):
    rows = ROWS.get(name, GATES[name].rows)
    assert run_gate(name, GATES[name]._replace(txns=SMALL[name], rows=rows)) == []
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(rows)


def test_the_table_carries_every_identity_claim():
    """The rows that replaced the ``*_overhead`` perf scenarios and the five
    gate CLIs, by the relation each is held to."""
    held = {
        (name, label): relations
        for name, table in GATES.items()
        for label, _run, relations in table.rows
    }
    for row in (
        ("reads", "leases armed-idle"),
        ("geo", "one-DC all-LAN"),
        ("scale", "all-off"),
        ("trace", "ring + monitors"),
        ("trace", "ring + monitors + export"),
    ):
        assert held[row] == "schedule"
    assert held[("liveness", "armed")] == "outcome"
    assert held[("liveness-seed7", "majority_partition")] == "violates"
    assert held[("batching-deep", "b=2048 d=4")] == "state, fewer messages"
    assert held[("batching-deep", "b=2048 d=4 force_on_call")] == "state"


def test_state_run_reports_what_the_rows_compare():
    run = state_run(build_kv_system(seed=5, n_keys=6), concurrency=3)
    assert run.complete and run.metrics["committed"] == 6
    assert run.metrics["retries"] == 0 and run.metrics["messages"] > 0
    again = state_run(build_kv_system(seed=5, n_keys=6), concurrency=3)
    assert run == again
    other_seed = state_run(build_kv_system(seed=6, n_keys=6), concurrency=3)
    assert other_seed.state == run.state  # the state is the schedule's invariant
    assert other_seed.schedule != run.schedule


# -- failure paths ---------------------------------------------------------------


_plain = gate._kv()
_batched = gate._kv(config=ProtocolConfig(batch=BatchConfig(enabled=True)))


def _one_value_changed(seed, txns):
    system = build_kv_system(seed=seed, n_keys=txns)
    run = state_run(system)
    rt, _kv, _clients, driver, spec = system
    driver.call("clients", "write", "kv", spec.key(0), 999)
    rt.run_for(500.0)
    return run._replace(state=state_digest(rt))


def _fails(monkeypatch, capsys, rows):
    monkeypatch.setitem(GATES, "broken", Gate(5, 6, rows))
    assert main(["broken"]) == 1
    return capsys.readouterr().err


def test_a_row_that_changes_a_written_value_fails_naming_row_and_digests(
    monkeypatch, capsys
):
    rows = (("paper", _plain, None), ("off by one", _one_value_changed, "state"))
    err = _fails(monkeypatch, capsys, rows)
    assert "broken / off by one: state digest differs from 'paper'" in err
    assert _plain(5, 6).state in err and _one_value_changed(5, 6).state in err


def test_a_same_seed_pair_that_differs_fails(monkeypatch, capsys):
    calls = itertools.count()
    rows = (("drifting", lambda seed, txns: _plain(seed + next(calls), txns), None),)
    err = _fails(monkeypatch, capsys, rows)
    assert "broken / drifting: two runs on seed 5 differ" in err


def test_batched_rows_must_send_fewer_messages(monkeypatch, capsys):
    rows = (("batched", _batched, None), ("plain", _plain, "state, fewer messages"))
    err = _fails(monkeypatch, capsys, rows)
    assert "broken / plain: sent" in err and "not fewer than" in err
    assert "state digest differs" not in err


def test_a_row_that_does_not_commit_everything_fails(monkeypatch, capsys):
    rows = (("short", lambda s, t: _plain(s, t)._replace(complete=False), None),)
    assert "did not finish its 6 transactions" in _fails(monkeypatch, capsys, rows)


# -- failure paths of the cell's own checks -------------------------------------------


def _cut_for_good(rt, node_ids):
    rt.faults.partition(*[{node_id} for node_id in node_ids])


def _scheduled(install, **kw):
    schedule = Schedule("test", install, **kw)
    return lambda seed, txns: state_run(build_kv_system(seed=seed, n_keys=txns), schedule=schedule)


def test_a_row_that_leaves_a_lock_held_fails_naming_the_object(monkeypatch, capsys):
    def run(seed, txns):
        system = build_kv_system(seed=seed, n_keys=txns)
        system[1].active_primary().lockmgr.acquire("stray", "ghost", "write")
        return state_run(system)

    err = _fails(monkeypatch, capsys, (("leaky", run, None),))
    assert "broken / leaky: objects still locked after quiesce: [('kv', 'stray', ['ghost'])]" in err


def test_a_row_whose_schedule_is_never_healed_fails_and_leaves_artifacts(
    monkeypatch, capsys, tmp_path
):
    monkeypatch.chdir(tmp_path)
    # outside the fault controller, so neither stop() nor heal_all() undoes it
    late = _scheduled(lambda rt, ids: rt.sim.schedule(400.0, _cut_for_good, rt, ids))
    err = _fails(monkeypatch, capsys, (("paper", _plain, None), ("cut", late, "state")))
    assert "broken / cut: healed, but no view re-formed in ['kv']" in err
    written = err.split("artifacts: ")[1].split()[0].rstrip(",")
    assert written.startswith("artifacts/test-seed5-") and (tmp_path / written).exists()


def test_a_row_that_cannot_finish_before_its_deadline_names_the_keys(
    monkeypatch, capsys, tmp_path
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(gate, "DEADLINE", 1000.0)
    err = _fails(monkeypatch, capsys, (("stuck", _scheduled(_cut_for_good), None),))
    assert "broken / stuck: deadline: 6 of 6 writes uncommitted (key0, key1" in err


def test_a_violates_row_that_stays_quiet_fails(monkeypatch, capsys):
    quiet = _scheduled(lambda rt, ids: None, expect_violation=True)
    err = _fails(monkeypatch, capsys, (("quiet", quiet, "violates"),))
    assert "broken / quiet: the strict liveness catalogue raised no violation" in err


def test_every_failure_is_reported_not_only_the_first(monkeypatch, capsys):
    rows = (
        ("paper", _plain, None),
        ("wrong", _one_value_changed, "state"),
        ("chatty", _plain, "state, fewer messages"),
    )
    err = _fails(monkeypatch, capsys, rows)
    assert err.count("gate: FAIL") == 2


def test_unknown_gate_name_exits_2(capsys):
    assert main(["batching", "no-such-gate"]) == 2
    assert "no-such-gate" in capsys.readouterr().err


def test_a_name_selects_its_variants(monkeypatch):
    ran = []
    monkeypatch.setattr(gate, "run_gate", lambda name, table: ran.append(name) or [])
    assert main(["batching", "shard"]) == 0
    assert ran == ["batching", "batching-lossy", "batching-deep", "shard", "batching-storm"]
    del ran[:]
    assert main([]) == 0
    assert ran == list(GATES)
