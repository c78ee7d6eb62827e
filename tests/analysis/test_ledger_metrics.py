"""Tests for the transaction ledger, metrics, and table rendering."""

import math

import pytest

from repro.analysis.ledger import LedgerViolation, TransactionLedger
from repro.analysis.metrics import LatencyStat, Metrics
from repro.analysis.tables import render_table


# -- ledger ------------------------------------------------------------------


def test_ledger_commit_then_abort_is_violation():
    ledger = TransactionLedger()
    ledger.record_commit("t1")
    with pytest.raises(LedgerViolation):
        ledger.record_abort("t1", "oops")


def test_ledger_abort_then_commit_is_violation():
    ledger = TransactionLedger()
    ledger.record_abort("t1", "early")
    with pytest.raises(LedgerViolation):
        ledger.record_commit("t1")


def test_ledger_duplicate_commit_idempotent():
    ledger = TransactionLedger()
    ledger.record_commit("t1")
    ledger.record_commit("t1")
    assert ledger.commit_count == 1


def test_ledger_effects_first_report_wins():
    ledger = TransactionLedger()
    ledger.record_effects("t1", "g", reads={"x": 0}, writes={"x": 1})
    ledger.record_effects("t1", "g", reads={"x": 99}, writes={"x": 99})
    ledger.record_commit("t1")
    merged = ledger.committed_transactions()
    assert merged[0].writes[("g", "x")] == 1


def test_ledger_merges_multi_group_effects():
    ledger = TransactionLedger()
    ledger.record_effects("t1", "g1", reads={}, writes={"x": 1})
    ledger.record_effects("t1", "g2", reads={"y": 0}, writes={})
    ledger.record_commit("t1")
    merged = ledger.committed_transactions()[0]
    assert ("g1", "x") in merged.writes
    assert ("g2", "y") in merged.reads


def test_ledger_streams_committed_pieces_each_naming_its_group():
    ledger = TransactionLedger()
    ledger.record_effects("t1", "g1", reads={"y": 0, "x": 0}, writes={"x": 1})
    ledger.record_effects("t2", "g1", reads={}, writes={"z": 1})
    ledger.record_effects("t1", "g2", reads={}, writes={"y": 1})
    ledger.record_commit("t1")
    pieces = list(ledger.committed_pieces())  # read after all are made
    assert [(aid, list(reads), list(writes)) for aid, reads, writes in pieces] == [
        ("t1", [(("g1", "x"), 0), (("g1", "y"), 0)], [(("g1", "x"), 1)]),
        ("t1", [], [(("g2", "y"), 1)]),
    ]


def test_ledger_excludes_uncommitted_effects():
    ledger = TransactionLedger()
    ledger.record_effects("t1", "g", reads={}, writes={"x": 1})
    assert ledger.committed_transactions() == []


def test_ledger_abort_reasons_counted():
    ledger = TransactionLedger()
    ledger.record_abort("t1", "no reply")
    ledger.record_abort("t2", "no reply")
    ledger.record_abort("t3", "refused")
    assert ledger.abort_reasons() == {"no reply": 2, "refused": 1}


def test_ledger_clock_stamps_commits():
    now = {"t": 17.5}
    ledger = TransactionLedger(clock=lambda: now["t"])
    ledger.record_commit("t1")
    assert ledger.committed["t1"] == 17.5


def test_ledger_rejects_negative_timestamps():
    ledger = TransactionLedger()
    with pytest.raises(ValueError, match="negative"):
        ledger.record_fault("crash", "n1", at=-1.0)
    with pytest.raises(ValueError, match="negative"):
        ledger.record_detector_event("suspect", "kv", 0, 1, at=-0.5)


def test_ledger_rejects_time_regression_per_stream():
    ledger = TransactionLedger()
    ledger.record_fault("crash", "n1", at=10.0)
    ledger.record_fault("recover", "n1", at=10.0)  # equal times are fine
    with pytest.raises(ValueError, match="before the stream"):
        ledger.record_fault("crash", "n2", at=9.0)
    ledger.record_detector_event("suspect", "kv", 0, 1, at=20.0)
    with pytest.raises(ValueError):
        ledger.record_detector_event("trust", "kv", 0, 1, at=19.0)


def test_ledger_timestamp_streams_are_independent():
    # a "late" entry on one stream must not poison the others
    ledger = TransactionLedger()
    ledger.record_fault("crash", "n1", at=100.0)
    ledger.record_detector_event("suspect", "kv", 0, 1, at=5.0)
    ledger.record_view_change_started("kv", at=1.0)
    assert ledger.faults[0].at == 100.0
    assert ledger.detector_events[0].at == 5.0


# -- metrics --------------------------------------------------------------------


def test_latency_stat_percentiles():
    stat = LatencyStat()
    for value in range(1, 101):
        stat.record(float(value))
    assert stat.count == 100
    assert stat.mean == 50.5
    assert stat.p50 == 50.0
    assert stat.p99 == 99.0
    assert stat.minimum == 1.0
    assert stat.maximum == 100.0


def test_latency_stat_empty_is_nan():
    stat = LatencyStat()
    assert math.isnan(stat.mean)
    assert math.isnan(stat.p50)


def test_metrics_message_accounting():
    metrics = Metrics()
    metrics.on_send("CallMsg", 100)
    metrics.on_send("CallMsg", 50)
    metrics.on_deliver("CallMsg")
    metrics.on_drop("CallMsg")
    assert metrics.messages_sent["CallMsg"] == 2
    assert metrics.bytes_sent["CallMsg"] == 150
    assert metrics.total_sent() == 2
    assert metrics.total_bytes(["CallMsg"]) == 150


def test_metrics_counters_and_latencies():
    metrics = Metrics()
    metrics.incr("things")
    metrics.incr("things", 4)
    metrics.observe("lat", 2.0)
    metrics.observe("lat", 4.0)
    assert metrics.counters["things"] == 5
    assert metrics.latencies["lat"].mean == 3.0


def test_metrics_snapshot_is_plain_data():
    metrics = Metrics()
    metrics.on_send("X", 10)
    snap = metrics.snapshot()
    metrics.on_send("X", 10)
    assert snap["sent"]["X"] == 1  # snapshot unaffected by later sends


# -- tables -----------------------------------------------------------------------


def test_render_table_alignment():
    text = render_table(["name", "value"], [["a", 1], ["long-name", 23.5]])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert len(lines) == 4
    assert "23.50" in lines[3]


def test_render_table_formats_nan_and_magnitudes():
    text = render_table(["v"], [[float("nan")], [123456.0], [0.0001]])
    assert "-" in text
    assert "1.23e+05" in text
    assert "0.0001" in text
