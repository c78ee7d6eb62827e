"""Perf reports and the schema-versioned BENCH.json document.

A :class:`PerfReport` is one scenario's measured numbers: kernel counters
(events executed, timers created/cancelled, compactions), message-plane
counters, wall-clock throughput (events/s, simulated seconds per wall
second), call-latency percentiles, peak traced heap, and a deterministic
digest of the transaction ledger.  The digest is what lets perf runs double
as determinism checks: two same-seed runs must produce byte-identical
digests regardless of kernel optimizations.

``BENCH.json`` is a dict of scenario name -> report, wrapped in a
``schema_version`` envelope so future PRs can evolve the format without
silently breaking the CI regression gate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pathlib
from typing import Dict, List, Optional

#: Bump when the BENCH.json layout changes incompatibly.
SCHEMA_VERSION = 1


def ledger_digest(runtime) -> str:
    """Deterministic sha256 over a run's observable outcome.

    Covers the full ledger (commits, aborts, effects, view changes), the
    event count, and the final clock -- any reordering introduced by a
    kernel change shows up here as a different digest on the same seed.
    """
    ledger = runtime.ledger
    parts = [
        repr(sorted((str(aid), at) for aid, at in ledger.committed.items())),
        repr(sorted((str(aid), why) for aid, why in ledger.aborted.items())),
        repr(
            sorted(
                (str(aid), groupid, sorted(reads.items()), sorted(writes.items()))
                for (aid, groupid), (reads, writes) in ledger.effects.items()
            )
        ),
        repr(
            [
                (ev.groupid, str(ev.viewid), ev.primary, ev.completed_at)
                for ev in ledger.view_changes
            ]
        ),
        repr(runtime.sim.events_processed),
        repr(runtime.sim.now),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def state_digest(runtime) -> str:
    """Deterministic sha256 over the final replicated *application state*.

    Unlike :func:`ledger_digest`, this covers only what the paper's safety
    argument promises survives any schedule: each group's committed base
    values (uid -> value at the active primary).  It deliberately excludes
    event counts, clocks, versions, and aids, all of which legitimately
    differ between two runs that commit the same transactions along
    different schedules -- e.g. a batched and an unbatched run of the same
    workload.  Two configs that disagree here lost, duplicated, or
    reordered conflicting writes.
    """
    parts = []
    for groupid in sorted(runtime.groups):
        primary = runtime.groups[groupid].active_primary()
        if primary is None:
            parts.append(f"{groupid}: no active primary")
            continue
        store = primary.store
        items = sorted(
            (uid, repr(store.get(uid).base)) for uid in store.uids()
        )
        parts.append(f"{groupid}: {items!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@dataclasses.dataclass
class PerfReport:
    """Measured numbers for one scenario run."""

    scenario: str
    seed: int
    wall_seconds: float
    sim_seconds: float
    events: int
    events_per_sec: float
    sim_seconds_per_wall_second: float
    timers_created: int
    timers_cancelled: int
    heap_compactions: int
    peak_heap_size: int
    messages_sent: int
    messages_delivered: int
    messages_dropped: int
    call_p50: Optional[float]
    call_p99: Optional[float]
    peak_heap_bytes: int
    ledger_digest: str
    extra: dict = dataclasses.field(default_factory=dict)
    #: Host-side kernel facts, reported and never gated: the cyclic
    #: collector's ``gc_collections`` (per generation) and ``gc_unreachable``
    #: over the reported runtime's life.  Non-zero ``gc_unreachable`` on a
    #: fault-free scenario means a reference cycle crept onto the hot path.
    kernel: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PerfReport":
        known = {field.name for field in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})

    def summary_row(self) -> tuple:
        return (
            self.scenario,
            f"{self.events:,}",
            f"{self.events_per_sec:,.0f}",
            f"{self.sim_seconds_per_wall_second:,.0f}",
            _fmt(self.call_p50),
            _fmt(self.call_p99),
            f"{self.peak_heap_bytes / 1024:,.0f} KiB",
        )


def _fmt(value: Optional[float]) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    return f"{value:.2f}"


def build_report(
    runtime,
    scenario: str,
    seed: int,
    wall_seconds: float,
    peak_heap_bytes: int,
    latency_key: Optional[str] = None,
    extra: Optional[dict] = None,
    kernel: Optional[dict] = None,
) -> PerfReport:
    """Assemble a :class:`PerfReport` from a finished runtime's counters."""
    sim = runtime.sim
    net = runtime.network
    p50 = p99 = None
    if latency_key is not None:
        stat = runtime.metrics.latencies.get(latency_key)
        if stat is not None and stat.count:
            p50, p99 = stat.p50, stat.p99
    wall = max(wall_seconds, 1e-9)
    return PerfReport(
        scenario=scenario,
        seed=seed,
        wall_seconds=wall_seconds,
        sim_seconds=sim.now,
        events=sim.events_processed,
        events_per_sec=sim.events_processed / wall,
        sim_seconds_per_wall_second=sim.now / wall,
        timers_created=sim.timers_created,
        timers_cancelled=sim.timers_cancelled,
        heap_compactions=sim.heap_compactions,
        peak_heap_size=sim.peak_heap_size,
        messages_sent=net.messages_sent_total,
        messages_delivered=net.messages_delivered_total,
        messages_dropped=net.messages_dropped_total,
        call_p50=p50,
        call_p99=p99,
        peak_heap_bytes=peak_heap_bytes,
        ledger_digest=ledger_digest(runtime),
        extra=dict(extra or {}),
        kernel=dict(kernel or {}),
    )


# -- BENCH.json ------------------------------------------------------------


def bench_document(reports: List[PerfReport], mode: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "scenarios": {report.scenario: report.to_dict() for report in reports},
    }


def write_bench_json(path, reports: List[PerfReport], mode: str) -> None:
    document = bench_document(reports, mode)
    pathlib.Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def load_bench_json(path) -> Dict[str, PerfReport]:
    """Load a BENCH.json into scenario -> report, validating the schema."""
    document = json.loads(pathlib.Path(path).read_text())
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r} != supported {SCHEMA_VERSION}"
        )
    scenarios = document.get("scenarios")
    if not isinstance(scenarios, dict):
        raise ValueError(f"{path}: missing 'scenarios' mapping")
    return {
        name: PerfReport.from_dict(data) for name, data in scenarios.items()
    }


def compare_to_baseline(
    current: Dict[str, PerfReport],
    baseline: Dict[str, PerfReport],
    max_regression: float = 0.20,
) -> List[str]:
    """Return human-readable failures where throughput regressed too far.

    A scenario fails when its events/s drops more than *max_regression*
    below the baseline.  Scenarios present on only one side are reported
    too (a silently dropped scenario must not pass the gate).
    """
    failures: List[str] = []
    for name, base in sorted(baseline.items()):
        report = current.get(name)
        if report is None:
            failures.append(f"{name}: present in baseline but not measured")
            continue
        floor = base.events_per_sec * (1.0 - max_regression)
        if report.events_per_sec < floor:
            failures.append(
                f"{name}: {report.events_per_sec:,.0f} events/s is below "
                f"{floor:,.0f} (baseline {base.events_per_sec:,.0f}, "
                f"allowed regression {max_regression:.0%})"
            )
    for name in sorted(set(current) - set(baseline)):
        failures.append(
            f"{name}: measured but missing from baseline "
            "(refresh it with --update-baseline)"
        )
    return failures
