"""``python -m repro.gate [NAME ...]``: the identity gate.

Every extension's licence to exist is that it *refines* the paper's
protocol: same computed state, different transmission.  This module checks
that one relation for every configuration that claims it, with one cell,
one table and one loop.

- The cell, :func:`state_run`: every key of a kv store is written once, with
  a fixed value, by a closed loop that retries until the write commits
  (optionally under a read-only open loop and one primary crash).  The
  final replicated state is therefore independent of the schedule, and two
  configurations can be compared by digest.
- The table, :data:`GATES`: each gate is a seed, a size and rows of
  ``(label, run, relations)``.  ``relations`` says what must hold between
  the row and the gate's first row -- ``"schedule"`` (equal
  ``ledger_digest``: not one event moved, the "byte-identical when off"
  claim), ``"outcome"`` (the same transactions committed and aborted at the
  same times, the same state: what a pure observer may not disturb),
  ``"state"`` (equal ``state_digest``: what the protocol computed) and
  ``"fewer messages"``; several are joined with ``", "``.
- The loop, :func:`run_gate`: every row runs **twice** on the gate's seed.
  The two runs must be equal (same seed, same run), must commit every write,
  and the first must stand in the row's relations to the first row.  Every
  failure is reported, not only the first.

With no NAME every gate runs; a NAME selects that gate and its ``NAME-*``
variants.  Exit status: 0 all hold, 1 some relation failed, 2 unknown NAME.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import os
import sys
import tempfile
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro import LOSSY, Nemesis
from repro.config import (
    BatchConfig,
    ProtocolConfig,
    ReadConfig,
    ScaleConfig,
    TraceConfig,
)
from repro.geo.topology import Datacenter, Topology, Zone
from repro.harness.common import build_kv_system
from repro.harness.experiments_cohort import _build_scaled_kv
from repro.harness.experiments_geo import E20_PLACEMENTS, geo_protocol_config
from repro.harness.experiments_scale import E18_CONFIGS, batch_config
from repro.live import spec_catalog
from repro.net.link import LAN, LinkModel
from repro.perf.report import ledger_digest, state_digest
from repro.shard.workload import run_sharded_workload
from repro.workloads.loadgen import run_open_loop, run_retry_loop


class Run(NamedTuple):
    """What one run of a row produced.  Two same-seed runs must be equal."""

    metrics: dict
    #: every write committed (the sharded row: every transaction finished)
    complete: bool
    schedule: str  # ledger_digest
    outcome: str
    state: str  # state_digest


def measure(rt, metrics: dict, complete: bool) -> Run:
    """The three digests of a finished runtime, coarsest last."""
    ledger = rt.ledger
    state = state_digest(rt)
    outcome = repr(
        (
            sorted((str(aid), at) for aid, at in ledger.committed.items()),
            sorted((str(aid), why) for aid, why in ledger.aborted.items()),
            state,
        )
    )
    return Run(
        metrics,
        complete,
        ledger_digest(rt),
        hashlib.sha256(outcome.encode()).hexdigest(),
        state,
    )


def state_run(
    system,
    *,
    concurrency: int = 4,
    settle: float = 0.0,
    crash_at: Optional[float] = None,
    reads: Optional[dict] = None,
    quiesce: Optional[float] = None,
) -> Run:
    """The cell: write ``index`` to key ``index`` of *system*'s kv store, for
    every key, retrying each write until it commits.

    *system* is what :func:`repro.harness.common.build_kv_system` returns.
    *settle* runs the idle system first (views form, leases arm);
    *crash_at* crashes the kv primary once, that long after the load starts,
    and recovers it 400 later; *reads* runs a read-only open loop beside the
    writes (keywords of :func:`repro.workloads.loadgen.run_open_loop`:
    ``duration``, ``rate``, ``prefer``, ``use_read_path``); *quiesce* is the
    drain time after the last commit (default: the runtime's own).
    """
    rt, _kv, _clients, driver, spec = system
    txns = spec.n_keys
    if settle:
        rt.run_for(settle)
    if crash_at is not None:
        rt.inject(
            Nemesis().crash_primary("kv", every=crash_at, count=1, recover_after=400.0)
        )
    jobs = [("write", ("kv", spec.key(index), index)) for index in range(txns)]
    writes = run_retry_loop(rt, driver, "clients", jobs, concurrency=concurrency)
    reading = None
    if reads is not None:
        reading = run_open_loop(
            rt, driver, key=spec.key, n_keys=txns, read_fraction=1.0,
            name="gate-reads", **reads,
        )
        # Past the whole window before polling ``drained`` (run_open_loop's
        # contract: it is also true at any idle instant inside the window),
        # so that every configuration answers the same arrivals.
        rt.run_for(reads["duration"])
    deadline = rt.sim.now + 200_000.0
    while (
        writes.committed < txns or (reading is not None and not reading.drained)
    ) and rt.sim.now < deadline:
        rt.run_for(200.0)
    if crash_at is not None:
        rt.faults.stop()
    rt.quiesce(quiesce)
    rt.check_invariants(require_convergence=False)
    metrics = {
        "committed": writes.committed,
        "retries": writes.aborted + writes.unknown,
        "messages": rt.network.messages_sent_total,
        "view_changes": len(rt.ledger.view_changes_for("kv")),
    }
    if reading is not None:
        metrics["reads_ok"] = reading.reads_ok
        metrics["reads_failed"] = reading.reads_failed
        metrics["read_modes"] = dict(sorted(reading.read_modes.items()))
    if rt.tracer is not None:
        metrics["trace_events"] = rt.tracer.events_emitted
    return measure(rt, metrics, complete=writes.committed == txns)


# -- rows ------------------------------------------------------------------------

#: A row's run: ``(seed, txns) -> Run``.
RowRun = Callable[[int, int], Run]


def _kv(workload: Optional[dict] = None, **system) -> RowRun:
    """The cell on ``build_kv_system(seed, n_keys=txns, **system)``."""

    def run(seed: int, txns: int) -> Run:
        return state_run(
            build_kv_system(seed=seed, n_keys=txns, **system), **(workload or {})
        )

    return run


def _batching_rows(link=None):
    """Unbatched, then the E18 batch points: same state, fewer messages."""

    def row(batch) -> RowRun:
        config = ProtocolConfig(batch=batch_config(batch))
        return _kv({"concurrency": 16}, config=config, link=link)

    return tuple(
        (label, row(batch), "state, fewer messages" if batch else None)
        for label, batch in E18_CONFIGS
    )


def _deep_window(enabled: bool, force_on_call: bool = False) -> RowRun:
    """640 closed-loop clients on 8-unit links: every force finds a deep
    unacknowledged suffix, batched flushes fill 2048-record windows."""
    config = ProtocolConfig(
        force_on_call=force_on_call,
        batch=BatchConfig(
            enabled=enabled, max_batch=2048, flush_interval=0.5, pipeline_depth=4
        ),
    )
    return _kv(
        {"concurrency": 640},
        config=config,
        link=LinkModel(base_delay=8.0, jitter=0.2),
    )


LEASES = ProtocolConfig(reads=ReadConfig(enabled=True))


def _reads(config, **reads) -> RowRun:
    return _kv(
        {"settle": 60.0, "reads": {"duration": 500.0, "rate": 0.4, **reads}},
        config=config,
    )


def _geo(config, site=None, prefer="primary") -> RowRun:
    return _kv(
        {
            "settle": 300.0,
            "quiesce": 100.0,
            "reads": {"duration": 300.0, "rate": 0.3, "prefer": prefer},
        },
        n_cohorts=5,
        config=config,
        driver_site=site,
    )


def _placed(placement: str) -> RowRun:
    """Five cohorts placed on the standard 3-DC topology, the driver sited
    in dc-b and reading from the nearest replica."""
    return _geo(geo_protocol_config(placement, reads=True), "dc-b/z1", "nearest")


#: One datacenter whose every tier is the flat default: geography armed,
#: nothing moved.
ONE_DC = Topology(
    (Datacenter("dc", (Zone("z", slots=8),)),),
    intra_zone=LAN, intra_dc=LAN, cross_dc=LAN,
)


def _scaled(scale: Optional[ScaleConfig]) -> RowRun:
    """Seven kv cohorts under *scale*; the 3-cohort client group is plumbing
    and stays unscaled."""

    def run(seed: int, txns: int) -> Run:
        return state_run(
            _build_scaled_kv(seed, 7, scale, n_keys=txns), settle=200.0, quiesce=100.0
        )

    return run


def _sharded(seed: int, txns: int) -> Run:
    """The canonical sharded workload (seq_puts + cross-shard transfers over
    4 shards and a router): same seed, same overall and per-shard digests."""
    # 20 000 time units for the table's 60 transactions, pro rata
    rt, sharded, stats = run_sharded_workload(
        seed=seed, n_shards=4, txns=txns, duration=txns * 1000.0 / 3.0
    )
    metrics = {
        "committed": stats.committed,
        "aborted": stats.aborted,
        "unknown": stats.unknown,
        "shards": sharded.ledger_digests(),
    }
    return measure(rt, metrics, stats.submitted == txns and stats.committed > 0)


def _exported(seed: int, txns: int) -> Run:
    """All monitors armed and the whole trace written out as JSONL."""
    with tempfile.TemporaryDirectory(prefix="repro-gate-") as scratch:
        trace = TraceConfig(
            monitors="all", export_path=os.path.join(scratch, "trace.jsonl")
        )
        system = build_kv_system(seed=seed, n_keys=txns, trace=trace)
        run = state_run(system)
        system[0].tracer.maybe_export()
    return run


def _liveness_armed(seed: int, txns: int) -> Run:
    """The full relaxed spec catalogue polling; a violation raises.  Its poll
    ticks are simulator events, so the schedule digest legitimately moves."""
    system = build_kv_system(seed=seed, n_keys=txns)
    rt = system[0]
    checker = rt.arm_liveness(spec_catalog("kv", rt.config, commits=1))
    run = state_run(system)
    return run._replace(metrics={**run.metrics, "liveness_polls": checker.polls})


# -- the table -------------------------------------------------------------------


class Gate(NamedTuple):
    seed: int
    txns: int
    #: ``(label, run, relations to the first row)``; None on the first row
    rows: Tuple[Tuple[str, RowRun, Optional[str]], ...]


GATES: Dict[str, Gate] = {
    "batching": Gate(18, 200, _batching_rows()),
    "batching-lossy": Gate(18, 200, _batching_rows(link=LOSSY)),
    "batching-deep": Gate(
        1818,
        640,
        (
            ("unbatched", _deep_window(False), None),
            ("b=2048 d=4", _deep_window(True), "state, fewer messages"),
            ("unbatched force_on_call", _deep_window(False, True), "state"),
            ("b=2048 d=4 force_on_call", _deep_window(True, True), "state"),
        ),
    ),
    "reads": Gate(
        19,
        32,
        (
            ("baseline", _reads(None, use_read_path=False), None),
            ("leases armed-idle", _reads(LEASES, use_read_path=False), "schedule"),
            ("leases", _reads(LEASES), "state"),
            ("backup", _reads(LEASES, prefer="backup"), "state"),
            (
                "cache",
                _reads(ProtocolConfig(reads=ReadConfig(enabled=True, client_cache=True))),
                "state",
            ),
        ),
    ),
    "geo": Gate(
        20,
        24,
        (
            ("flat", _geo(LEASES), None),
            (
                "one-DC all-LAN",
                _geo(geo_protocol_config("spread", reads=True, topology=ONE_DC)),
                "schedule",
            ),
        )
        + tuple(
            (placement, _placed(placement), "state")
            for placement in E20_PLACEMENTS + ("single_dc:dc-a",)
        ),
    ),
    "scale": Gate(
        21,
        32,
        (
            ("baseline", _scaled(None), None),
            ("all-off", _scaled(ScaleConfig()), "schedule"),
            ("gossip", _scaled(ScaleConfig(gossip=True)), "state"),
            ("acktree", _scaled(ScaleConfig(ack_tree=True)), "state"),
            ("witness", _scaled(ScaleConfig(witnesses=2)), "state"),
            (
                "all-on",
                _scaled(ScaleConfig(gossip=True, ack_tree=True, witnesses=2)),
                "state",
            ),
        ),
    ),
    "shard": Gate(7, 60, (("4 shards", _sharded, None),)),
    "trace": Gate(
        4242,
        64,
        (
            ("off", _kv(), None),
            ("ring + monitors", _kv(trace=TraceConfig(monitors="all")), "schedule"),
            ("ring + monitors + export", _exported, "schedule"),
        ),
    ),
    "liveness": Gate(
        4242,
        64,
        (("disarmed", _kv(), None), ("armed", _liveness_armed, "outcome")),
    ),
}


# -- the loop --------------------------------------------------------------------


def _short(value) -> str:
    """Digests print as a 16-character prefix, whatever holds them."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_short(v)}" for k, v in value.items()) + "}"
    if isinstance(value, str) and len(value) == 64:
        return value[:16] + "..."
    return str(value)


def run_gate(name: str, gate: Gate) -> List[str]:
    """Run every row of *gate* twice on its seed, print one line per row,
    and return every failure found (empty: the gate holds)."""
    failures = []
    first = None
    for label, run, relations in gate.rows:
        row = f"{name} / {label}"
        one, two = run(gate.seed, gate.txns), run(gate.seed, gate.txns)
        gc.collect()  # each dead Runtime is one big cycle; free it where it dies
        print(
            f"{name:>14} {label:<26}"
            + " ".join(f"{key}={_short(value)}" for key, value in one.metrics.items())
            + f" schedule={_short(one.schedule)} state={_short(one.state)}"
        )
        if one != two:
            failures.append(
                f"{row}: two runs on seed {gate.seed} differ:\n  {one}\n  {two}"
            )
        if not one.complete:
            failures.append(
                f"{row}: did not finish its {gate.txns} transactions: {one.metrics}"
            )
        if first is None:
            first = one
            continue
        for relation in relations.split(", "):
            if relation == "fewer messages":
                if one.metrics["messages"] >= first.metrics["messages"]:
                    failures.append(
                        f"{row}: sent {one.metrics['messages']} messages, not fewer "
                        f"than the {first.metrics['messages']} of {gate.rows[0][0]!r}"
                    )
            elif getattr(one, relation) != getattr(first, relation):
                failures.append(
                    f"{row}: {relation} digest differs from {gate.rows[0][0]!r}:\n"
                    f"  {getattr(first, relation)}\n  {getattr(one, relation)}"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gate", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "names", nargs="*", metavar="NAME", help=f"from: {', '.join(GATES)}"
    )
    names = parser.parse_args(argv).names

    def selects(name: str, gate: str) -> bool:
        return gate == name or gate.startswith(name + "-")

    unknown = [name for name in names if not any(selects(name, gate) for gate in GATES)]
    if unknown:
        print(f"unknown gate(s) {unknown}; choose from {list(GATES)}", file=sys.stderr)
        return 2
    selected = [
        gate for gate in GATES if not names or any(selects(name, gate) for name in names)
    ]
    failures = [
        failure for gate in selected for failure in run_gate(gate, GATES[gate])
    ]
    for failure in failures:
        print(f"gate: FAIL -- {failure}", file=sys.stderr)
    if failures:
        return 1
    rows = sum(len(GATES[gate].rows) for gate in selected)
    print(f"gate: OK ({len(selected)} gates, {rows} rows, each run twice on its seed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
