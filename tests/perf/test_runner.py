"""End-to-end checks of the perf runner: scenario capture + CLI gate."""

import json

from repro.perf.report import write_bench_json
from repro.perf.runner import main
from repro.perf.scenarios import SCENARIOS, run_scenario


#: PerfReport fields that measure the host, not the simulation.
_HOST_FIELDS = {
    "wall_seconds", "events_per_sec", "sim_seconds_per_wall_second",
    "peak_heap_bytes", "kernel",
}


def _micro_scenario():
    return next(s for s in SCENARIOS if s.name == "micro_call_overhead")


def test_run_scenario_produces_populated_report():
    report = run_scenario(_micro_scenario(), quick=True)
    assert report.scenario == "micro_call_overhead"
    assert report.events > 0
    assert report.events_per_sec > 0
    assert report.sim_seconds > 0
    assert report.timers_created >= report.events
    assert report.messages_delivered > 0
    assert report.peak_heap_bytes > 0
    assert len(report.ledger_digest) == 64
    assert report.call_p50 is not None and report.call_p99 is not None
    assert report.extra == {"quick": True}


def test_cli_writes_valid_bench_json_and_gates(tmp_path):
    out = tmp_path / "BENCH.json"
    argv = ["--quick", "--scenario", "micro_call_overhead", "--out", str(out)]
    assert main(argv) == 0
    document = json.loads(out.read_text())
    assert document["schema_version"] == 1
    assert "micro_call_overhead" in document["scenarios"]

    # A second run must reproduce every field that is not host time.  Its
    # events/s is not compared with the first run's: host speed moves 2x
    # within seconds here, at any pass length tier-1 can afford, so each
    # outcome of the gate is forced with a baseline far from reality.
    first = document["scenarios"]["micro_call_overhead"]
    baseline = tmp_path / "baseline.json"
    deflated = json.loads(out.read_text())
    for data in deflated["scenarios"].values():
        data["events_per_sec"] /= 1000.0
    baseline.write_text(json.dumps(deflated))
    assert main(argv + ["--baseline", str(baseline)]) == 0
    second = json.loads(out.read_text())["scenarios"]["micro_call_overhead"]
    assert {k: v for k, v in second.items() if k not in _HOST_FIELDS} == {
        k: v for k, v in first.items() if k not in _HOST_FIELDS
    }

    # Inflate the baseline far past reality: the gate must fail.
    inflated = json.loads(out.read_text())
    for data in inflated["scenarios"].values():
        data["events_per_sec"] *= 1000.0
    baseline.write_text(json.dumps(inflated))
    assert main(argv + ["--baseline", str(baseline)]) == 1


def test_cli_update_baseline_writes_both_files(tmp_path):
    out = tmp_path / "BENCH.json"
    baseline = tmp_path / "baseline.json"
    argv = [
        "--quick", "--scenario", "micro_call_overhead",
        "--out", str(out), "--baseline", str(baseline), "--update-baseline",
    ]
    assert main(argv) == 0
    assert json.loads(out.read_text()) == json.loads(baseline.read_text())


def test_cli_rejects_unreadable_baseline(tmp_path):
    out = tmp_path / "BENCH.json"
    bogus = tmp_path / "nope.json"
    write_bench_json(out, [], mode="quick")  # exercise empty-doc path too
    argv = [
        "--quick", "--scenario", "micro_call_overhead",
        "--out", str(out), "--baseline", str(bogus),
    ]
    assert main(argv) == 2
