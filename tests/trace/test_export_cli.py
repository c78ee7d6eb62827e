"""Exports and the ``python -m repro.trace`` CLI."""

import json

from repro.config import TraceConfig
from repro.harness.common import build_kv_system, run_kv_batch
from repro.trace.cli import main as cli_main


def _traced_run(seed=21, txns=25):
    rt, _kv, _clients, driver, spec = build_kv_system(
        seed=seed, n_cohorts=3, trace=TraceConfig(monitors="all")
    )
    run_kv_batch(rt, driver, spec, txns, read_fraction=0.5, concurrency=2)
    rt.quiesce()
    return rt


def test_chrome_export_structure(tmp_path):
    rt = _traced_run()
    path = tmp_path / "run.json"
    rt.tracer.export_chrome(str(path))
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    entries = doc["traceEvents"]
    phases = {entry["ph"] for entry in entries}
    # thread-name metadata, instants, and a flow arrow per hop
    assert {"M", "i", "s", "f"} <= phases
    names = {entry["args"]["name"] for entry in entries if entry["ph"] == "M"}
    assert any(name.startswith("kv") for name in names)
    flows_out = [entry for entry in entries if entry["ph"] == "s"]
    flows_in = [entry for entry in entries if entry["ph"] == "f"]
    assert flows_out and flows_in
    assert {entry["id"] for entry in flows_in} <= {
        entry["id"] for entry in flows_out
    }


def test_maybe_export_picks_format_by_extension(tmp_path):
    chrome_path = str(tmp_path / "run.json")
    rt, _kv, _clients, driver, spec = build_kv_system(
        seed=21, n_cohorts=3,
        trace=TraceConfig(monitors="all", export_path=chrome_path),
    )
    run_kv_batch(rt, driver, spec, 10, read_fraction=0.5, concurrency=2)
    assert rt.tracer.maybe_export() == chrome_path
    with open(chrome_path, "r", encoding="utf-8") as handle:
        assert "traceEvents" in json.load(handle)


def test_cli_timeline_and_chain(tmp_path, capsys):
    rt = _traced_run()
    jsonl = str(tmp_path / "run.jsonl")
    rt.tracer.export_jsonl(jsonl)

    assert cli_main(["timeline", jsonl, "--limit", "3"]) == 0
    out = capsys.readouterr().out
    assert "==" in out and "events" in out

    events = {event.eid: event for event in rt.tracer.events()}
    hop, sender = next(
        (event, events[parent])
        for event in events.values()
        for parent in event.parents
        if parent in events and events[parent].node != event.node
    )
    assert cli_main(["chain", jsonl, str(hop.eid)]) == 0
    out = capsys.readouterr().out
    assert f"-> #{hop.eid}" in out
    assert f"#{sender.eid} t=" in out  # the chain crosses the hop

    assert cli_main(["chain", jsonl, "999999999"]) == 1
    assert "not in" in capsys.readouterr().err


def test_cli_timeline_kind_filter_and_missing_node(tmp_path, capsys):
    rt = _traced_run()
    jsonl = str(tmp_path / "run.jsonl")
    rt.tracer.export_jsonl(jsonl)
    assert cli_main(["timeline", jsonl, "--kind", "txn_submit"]) == 0
    out = capsys.readouterr().out
    assert "txn_submit" in out
    assert "record_added" not in out
    assert cli_main(["timeline", jsonl, "--node", "nope"]) == 1


def test_cli_chrome_conversion(tmp_path, capsys):
    rt = _traced_run()
    jsonl = str(tmp_path / "run.jsonl")
    rt.tracer.export_jsonl(jsonl)
    out_path = str(tmp_path / "out.json")
    assert cli_main(["chrome", jsonl, "--out", out_path]) == 0
    with open(out_path, "r", encoding="utf-8") as handle:
        assert json.load(handle)["traceEvents"]


def test_cli_monitors_catalog(capsys):
    assert cli_main(["monitors"]) == 0
    out = capsys.readouterr().out
    for name in ("viewstamp_monotonic", "single_primary",
                 "quorum_intersection", "commit_quorum", "phantom_delivery"):
        assert name in out


def test_cli_check_docs(tmp_path, capsys):
    assert cli_main(["check-docs", "docs/TRACING.md"]) == 0
    capsys.readouterr()
    incomplete = tmp_path / "thin.md"
    incomplete.write_text("only msg_drop is here\n")
    assert cli_main(["check-docs", str(incomplete)]) == 1
    assert "missing documentation" in capsys.readouterr().err
    assert cli_main(["check-docs", str(tmp_path / "absent.md")]) == 2
