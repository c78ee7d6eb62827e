"""``python -m repro.gate [NAME ...]``: the identity gate.

Every extension's licence to exist is that it *refines* the paper's
protocol: same computed state, different transmission -- also while nodes
crash, messages are lost and the network partitions (section 1's failure
model: such faults may abort transactions, but "those that committed will
still be committed", section 4.1).  This module checks that one relation for
every configuration that claims it, with one cell, one table and one loop.

- The cell, :func:`state_run`: every key of a kv store is written once, with
  a fixed value, by a closed loop that retries until the write commits
  (optionally under a read-only open loop and a nemesis schedule).  The
  final replicated state is therefore independent of the schedule, and two
  configurations can be compared by digest.  Under a schedule the cell also
  holds the run to the liveness catalogue, heals, and requires fresh
  commits, a primary, converged replicas and no object left locked.
- The table, :data:`GATES`: each gate is a seed, a size and rows of
  ``(label, run, relations)``.  ``relations`` says what must hold between
  the row and the gate's first row -- ``"schedule"`` (equal
  ``ledger_digest``: not one event moved, the "byte-identical when off"
  claim), ``"outcome"`` (the same transactions committed and aborted at the
  same times, the same state: what a pure observer may not disturb),
  ``"state"`` (equal ``state_digest``: what the protocol computed) and
  ``"fewer messages"``; several are joined with ``", "``.  ``"violates"``
  stands alone: the row's unhealable schedule must make the strict liveness
  catalogue raise a violation that names the cut.
- The loop, :func:`run_gate`: every row runs **twice** on the gate's seed.
  The two runs must be equal (same seed, same run), must commit every write,
  and the first must stand in the row's relations to the first row.  Every
  failure is reported, not only the first; a failed row under a schedule
  leaves its report, trace and causal slice under ``artifacts/``.

With no NAME every gate runs; a NAME selects that gate and its ``NAME-*``
variants.  Exit status: 0 all hold, 1 some relation failed, 2 unknown NAME.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import os
import sys
import tempfile
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro import LOSSY
from repro.config import (
    BatchConfig,
    GeoConfig,
    ProtocolConfig,
    ReadConfig,
    ScaleConfig,
    TraceConfig,
)
from repro.geo.topology import Datacenter, Topology, Zone
from repro.harness.common import (
    E18_CONFIGS,
    E19_CONDITIONS,
    E20_PLACEMENTS,
    LEASES,
    batch_config,
    build_kv_system,
    e20_topology,
    geo_protocol_config,
)
from repro.live import SCHEDULES, LivenessViolation, Schedule, spec_catalog
from repro.net.link import LAN, LinkModel
from repro.perf.report import ledger_digest, state_digest
from repro.shard.workload import run_sharded_workload
from repro.sim.rng import sha256
from repro.trace.export import write_jsonl
from repro.workloads.loadgen import ClosedLoopStats, run_closed_loop, run_open_loop


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
        sha256(outcome.encode()).hexdigest(),
        state,
    )


#: How long a row's writes -- and, once healed, its rewrites -- may take, in
#: simulated time.  No attempt is capped: this is the bound.
DEADLINE = 200_000.0
#: Keys a row under a schedule writes again after ``heal_all``: commits must
#: land on the healed system, not only before it.
REWRITES = 8
#: Idle time after the rewrites, long enough for the healed group to take
#: every recovered cohort back into its view and bring it up to date.
HEALED_QUIESCE = 1200.0
#: What a StallReport says when no block of a partition holds a majority.
CUT = "no partition block holds a majority"


def _run_until(rt, done: Callable[[], bool], pending: Callable[[], str]) -> None:
    deadline = rt.sim.now + DEADLINE
    while not done():
        if rt.sim.now >= deadline:
            raise AssertionError(f"deadline: {pending()} after {DEADLINE:g} time units")
        rt.run_for(200.0)


def _unfinished(stats: ClosedLoopStats, jobs: list) -> str:
    finished = {args[1] for _program, args, _outcome in stats.results}
    missing = [args[1] for _program, args in jobs if args[1] not in finished]
    return f"{len(missing)} of {len(jobs)} writes uncommitted ({', '.join(missing[:8])})"


def _with_artifacts(rt, schedule: Schedule, failure: AssertionError) -> AssertionError:
    """*failure* with the paths of what diagnosing it offline needs, written
    under ``artifacts/``: the rendered failure, the trace ring as JSONL and
    -- for an ``InvariantViolation`` or a ``LivenessViolation`` -- the causal
    slice that explains it."""
    text = str(failure)
    os.makedirs("artifacts", exist_ok=True)
    base = os.path.join(
        "artifacts",
        f"{schedule.name}-seed{rt.sim.rng.seed}-"
        f"{sha256(text.encode()).hexdigest()[:8]}",
    )
    written = [f"{base}.txt"]
    with open(written[0], "w", encoding="utf-8") as handle:
        handle.write(f"{text}\n")
    if rt.tracer is not None:
        written.append(f"{base}-trace.jsonl")
        rt.tracer.export_jsonl(written[-1])
    if getattr(failure, "causal_slice", None):
        written.append(f"{base}-slice.jsonl")
        write_jsonl(failure.causal_slice, written[-1])
    return AssertionError(f"{text}\nartifacts: {', '.join(written)}")


def state_run(
    system,
    *,
    concurrency: int = 4,
    settle: float = 0.0,
    schedule: Optional[Schedule] = None,
    reads: Optional[dict] = None,
    quiesce: Optional[float] = None,
) -> Run:
    """The cell: write ``index`` to key ``index`` of *system*'s kv store, for
    every key, retrying each write until it commits.

    *system* is what :func:`repro.harness.common.build_kv_system` returns.
    *settle* runs the idle system first (views form, leases arm); *reads*
    runs a read-only open loop beside the writes (keywords of
    :func:`repro.workloads.loadgen.run_open_loop`: ``duration``, ``rate``,
    ``prefer``, ``use_read_path``); *quiesce* is the drain time after the
    last commit (default: the runtime's own).

    *schedule* (an entry of :data:`repro.live.SCHEDULES`, or
    :func:`repro.live.one_crash`) is installed when the load starts, with the
    spec catalogue armed: relaxed, so every clean interval owes progress --
    or strict for an unhealable schedule, whose violation naming the cut is
    then the run's result (``metrics["violation"]``).  When the writes are
    done the cell stops the nemesis, measures what the load cost, and then
    ``heal_all()``s, writes its first :data:`REWRITES` keys again, idles
    :data:`HEALED_QUIESCE` and requires a primary in every group and
    converged replicas.  Every row must leave a serializable history and no
    object locked; any failed check, monitor or spec raises its
    ``AssertionError``, under a schedule after writing ``artifacts/``.
    """
    rt, kv, _clients, driver, spec = system
    txns = spec.n_keys
    jobs = [("write", ("kv", spec.key(index), index)) for index in range(txns)]
    writes = ClosedLoopStats()
    reading = None
    metrics: dict = {}

    def measure_load() -> None:
        metrics.update(
            committed=writes.committed,
            retries=writes.aborted + writes.unknown,
            messages=rt.network.messages_sent_total,
            view_changes=len(rt.ledger.view_changes_for("kv")),
        )
        if schedule is not None:
            metrics["faults"] = len(rt.faults.timeline)
        if reading is not None:
            metrics["reads_ok"] = reading.reads_ok
            metrics["reads_failed"] = reading.reads_failed
            metrics["read_modes"] = dict(sorted(reading.read_modes.items()))
        if rt.tracer is not None:
            metrics["trace_events"] = rt.tracer.events_emitted

    try:
        if settle:
            rt.run_for(settle)
        if schedule is not None:
            strict = schedule.expect_violation
            specs = spec_catalog(
                "kv", rt.config, within_scale=schedule.within_scale,
                commits=None if strict else 1, strict=strict,
            )
            rt.arm_liveness(specs)
            schedule.install(rt, [node.node_id for node in kv.nodes()])
        run_closed_loop(
            rt, driver, "clients", jobs,
            concurrency=concurrency, max_attempts=None, stats=writes,
        )
        if reads is not None:
            reading = run_open_loop(
                rt, driver, key=spec.key, n_keys=txns, read_fraction=1.0,
                name="gate-reads", **reads,
            )
            # Past the whole window before polling ``drained`` (run_open_loop's
            # contract: it is also true at any idle instant inside the window),
            # so that every configuration answers the same arrivals.
            rt.run_for(reads["duration"])
        _run_until(
            rt,
            lambda: writes.committed == txns and (reading is None or reading.drained),
            lambda: _unfinished(writes, jobs),
        )
        if schedule is not None:
            rt.faults.stop()
        rt.quiesce(quiesce)
        measure_load()
        if schedule is not None:
            rt.faults.heal_all()
            rewrites = jobs[:REWRITES]
            again = run_closed_loop(
                rt, driver, "clients", rewrites,
                concurrency=concurrency, max_attempts=None,
            )
            _run_until(
                rt,
                lambda: again.committed == len(rewrites),
                lambda: f"healed, but {_unfinished(again, rewrites)}",
            )
            rt.quiesce(HEALED_QUIESCE)
            headless = [
                group.groupid
                for group in rt.groups.values()
                if group.active_primary() is None
            ]
            if headless:
                raise AssertionError(f"healed, but no view re-formed in {headless}")
        rt.check_invariants(require_convergence=schedule is not None)
        residue = rt.lock_residue()
        if residue:
            raise AssertionError(f"objects still locked after quiesce: {residue}")
    except AssertionError as failure:
        if schedule is None:
            raise
        if not (schedule.expect_violation and isinstance(failure, LivenessViolation)):
            raise _with_artifacts(rt, schedule, failure) from failure
        measure_load()
        metrics["violation"] = failure.report.reason
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
    """Unbatched, then the E18 batch points: same state, and on clean links
    fewer messages.  Under loss the count is held to nothing: which side
    sends fewer is seed noise there (E18), at any size."""
    relation = "state" if link is not None else "state, fewer messages"

    def row(batch) -> RowRun:
        config = ProtocolConfig(batch=batch_config(batch))
        return _kv({"concurrency": 16}, config=config, link=link)

    return tuple(
        (label, row(batch), relation if batch else None)
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
    return _kv(
        {"settle": 200.0, "quiesce": 100.0},
        n_cohorts=7,
        kv_config=ProtocolConfig(scale=scale),
    )


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


#: How a row under a schedule arms each extension (the chaos soak's choices).
ARMED = {
    "batching": ("batch", BatchConfig(enabled=True)),
    "reads": ("reads", ReadConfig(enabled=True)),
    "scale": ("scale", ScaleConfig(gossip=True, ack_tree=True, witnesses=2)),
    "geo": ("geo", GeoConfig(topology=e20_topology(), placement="spread")),
}


def _chaos(*extensions: str, schedule: Optional[str] = None, **flags: bool):
    """The row of the cell under a nemesis with every monitor armed: on the
    plain three-cohort system, or with *extensions* armed together -- 9
    cohorts under ``scale``, 5 across three datacenters with a sited driver
    under ``geo``, a read loop beside the writes under ``reads``.  The soak's
    nemesis unless *schedule* names another: ``region`` on a topology,
    ``storm`` without.  *flags* are ``ProtocolConfig`` switches, labelled
    ``+name`` when set and ``-name`` when cleared."""
    geo, scale = "geo" in extensions, "scale" in extensions
    chosen = SCHEDULES[schedule or ("region" if geo else "storm")]
    config = ProtocolConfig(**dict(ARMED[name] for name in extensions), **flags)
    # Two clients, not four: the same writes take twice as long, and it is
    # the schedule's time, not the writes' count, that lets faults fire.
    workload: dict = {"concurrency": 2, "settle": 60.0}
    if "reads" in extensions:
        workload["reads"] = {
            "duration": 2000.0, "rate": 0.3, "prefer": "nearest" if geo else "primary",
        }

    def run(seed: int, txns: int) -> Run:
        system = build_kv_system(
            seed=seed,
            n_keys=txns,
            n_cohorts=5 if geo else 9 if scale else 3,
            config=config,
            trace=TraceConfig(monitors="all"),
            driver_site="dc-a/z1" if geo else None,
        )
        return state_run(system, schedule=chosen, **workload)

    relation = "violates" if chosen.expect_violation else "state"
    label = " ".join(
        ["+".join(extensions) or chosen.name]
        + [("+" if value else "-") + name for name, value in flags.items()]
    )
    return label, run, relation


#: The first row of every chaos gate: fault-free and paper-faithful.
PAPER = ("paper", _kv(), None)
#: Every schedule that needs no topology but the soak's own, on the plain
#: system.
_MATRIX = tuple(
    _chaos(schedule=name) for name in SCHEDULES if name not in ("storm", "region")
)


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
        )
        + tuple(
            (condition, _reads(config, prefer=prefer), "state")
            for condition, (config, prefer) in E19_CONDITIONS.items()
            if config is not None
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
    # -- under the nemesis: every row "state" to the fault-free paper-faithful
    # run, all monitors and the spec catalogue armed, healed, converged, no
    # lock left (the unhealable majority_partition instead "violates") --
    # the liveness matrix: every flat schedule on the plain system, two seeds
    "liveness-seed0": Gate(0, 1500, (PAPER,) + _MATRIX),
    "liveness-seed7": Gate(7, 1500, (PAPER,) + _MATRIX),
    # the cell where one-way cuts to the driver and clients once stayed
    # after the nemesis repaired the group's (docs/FAULTS.md): a regression row
    "liveness-asymmetric-seed1988": Gate(
        1988, 1000, (PAPER, _chaos(schedule="asymmetric"))
    ),
    # the chaos soak on the plain system, two seeds
    "trace-seed2026": Gate(2026, 1500, (PAPER, _chaos())),
    "trace-seed1988": Gate(1988, 1500, (PAPER, _chaos())),
    # each extension under the soak, then every pair and all four
    "batching-storm": Gate(2026, 1000, (PAPER, _chaos("batching"))),
    "reads-storm": Gate(2026, 1000, (PAPER, _chaos("reads"))),
    "scale-storm": Gate(2026, 1000, (PAPER, _chaos("scale"))),
    # a write over the WAN takes ~100 time units: fewer of them last longer
    "geo-region": Gate(2026, 300, (PAPER, _chaos("geo"))),
    "chaos": Gate(
        2026,
        300,
        (PAPER,)
        + tuple(_chaos(*pair) for pair in itertools.combinations(ARMED, 2))
        + (_chaos(*ARMED),),
    ),
    # section 4.1's two options under the soak: unilateral view edits, and
    # unordered managers (every cohort may manage at once)
    "section41": Gate(
        2026,
        1000,
        (
            PAPER,
            _chaos(unilateral_edits=True),
            _chaos(ordered_managers=False),
        ),
    ),
    # the cell where a committed multi-group write was once lost
    # (docs/FAULTS.md, *What a nemesis can still find*): a regression row
    "lost-write-seed2030": Gate(2030, 1000, (PAPER, _chaos("scale", "geo"))),
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
        try:
            one, two = run(gate.seed, gate.txns), run(gate.seed, gate.txns)
        except AssertionError as failure:  # a monitor, a spec or a check of the cell
            failures.append(f"{row}: {failure}")
            continue
        finally:
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
        if relations == "violates":
            if CUT not in one.metrics.get("violation", ""):
                failures.append(
                    f"{row}: the strict liveness catalogue raised no violation "
                    f"naming the cut: {one.metrics}"
                )
            continue
        if not one.complete:
            failures.append(
                f"{row}: did not finish its {gate.txns} transactions: {one.metrics}"
            )
        if relations is None:  # the first row: what the others are held to
            first = one
        if relations is None or first is None:
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
