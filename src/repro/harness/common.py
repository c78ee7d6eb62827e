"""Shared plumbing for the experiment harness, and the named systems that
both the experiments and ``repro.gate`` build."""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence, Tuple

from repro import EmptyModule, Runtime
from repro.analysis.tables import render_table
from repro.app.module import transaction_program
from repro.config import BatchConfig, GeoConfig, ProtocolConfig, ReadConfig
from repro.geo.topology import Topology, symmetric_topology
from repro.net.link import LAN
from repro.sim.process import sleep, spawn
from repro.workloads.kv import KVStoreSpec, read_program, update_program, write_program
from repro.workloads.loadgen import ClosedLoopStats, run_closed_loop


@dataclasses.dataclass
class ExperimentResult:
    """One experiment's reproduced table."""

    exp_id: str
    title: str
    claim: str          # the paper sentence(s) being reproduced
    headers: Sequence[str]
    rows: List[Sequence]
    notes: str = ""
    #: what the experiment's shape check (``eNN_shape``, beside the rows it
    #: indexes) found wrong with *rows*; the CLI exits 1 on any
    failures: Sequence[str] = ()

    def render(self) -> str:
        lines = [
            f"== {self.exp_id}: {self.title} ==",
            f"claim: {self.claim}",
            "",
            render_table(self.headers, self.rows),
        ]
        if self.notes:
            lines += ["", f"note: {self.notes}"]
        return "\n".join(lines)


def build_kv_system(
    seed: int = 0,
    n_cohorts: int = 3,
    n_keys: int = 16,
    config: Optional[ProtocolConfig] = None,
    link=None,
    trace=None,
    driver_site: Optional[str] = None,
    kv_config: Optional[ProtocolConfig] = None,
) -> Tuple[Runtime, object, object, object, KVStoreSpec]:
    """Runtime with a KV group, a client group, and a driver.

    With a geo-armed *config*, cohorts are placed by its placement
    policy; *driver_site* additionally homes the driver at a topology
    site so its reads route geographically.  *kv_config* puts the kv
    group alone under a config of its own (a ``ScaleConfig`` sized for
    its *n_cohorts*); the client group is then plumbing, not the system
    under measurement, and stays at three cohorts under *config*.
    """
    rt = Runtime(
        seed=seed,
        link=link or LAN,
        config=config,
        trace=trace,
        # heartbeats cost O(n) events per interval: the runaway guard
        # grows with the group
        max_events=5_000_000 * n_cohorts,
    )
    spec = KVStoreSpec(n_keys=n_keys)
    kv = rt.create_group("kv", spec, n_cohorts=n_cohorts, config=kv_config)
    clients = rt.create_group(
        "clients", EmptyModule(), n_cohorts=n_cohorts if kv_config is None else 3
    )
    clients.register_program("read", read_program)
    clients.register_program("write", write_program)
    clients.register_program("update", update_program)
    driver = rt.create_driver("driver", site=driver_site)
    return rt, kv, clients, driver, spec


def kv_jobs(
    rt: Runtime,
    spec: KVStoreSpec,
    count: int,
    read_fraction: float,
    rng_name: str = "jobs",
) -> List[Tuple[str, tuple]]:
    """A randomized read/write job mix against the "kv" group."""
    rng = rt.sim.rng.fork(rng_name)
    jobs = []
    for index in range(count):
        key = spec.key(rng.randint(0, spec.n_keys - 1))
        if rng.random() < read_fraction:
            jobs.append(("read", ("kv", key)))
        else:
            jobs.append(("write", ("kv", key, index)))
    return jobs


def run_until(
    rt: Runtime,
    done: Callable[[], bool],
    step: float = 500.0,
    max_time: float = 200_000.0,
) -> None:
    """Run the simulation in *step*s until *done()* (or *max_time* is up)."""
    deadline = rt.sim.now + max_time
    while not done() and rt.sim.now < deadline:
        rt.run_for(step)


def drain(rt: Runtime, stats: ClosedLoopStats, expected: int, **limits) -> None:
    """Run the simulation until the closed loop finishes (or time is up)."""
    run_until(rt, lambda: stats.submitted >= expected, **limits)


def run_kv_batch(
    rt: Runtime,
    driver,
    spec: KVStoreSpec,
    count: int,
    read_fraction: float,
    concurrency: int = 1,
    think_time: float = 0.0,
) -> ClosedLoopStats:
    jobs = kv_jobs(rt, spec, count, read_fraction)
    stats = run_closed_loop(
        rt, driver, "clients", jobs, concurrency=concurrency, think_time=think_time
    )
    drain(rt, stats, count)
    return stats


def run_under_nemesis(
    rt: Runtime,
    driver,
    jobs: List[Tuple[str, tuple]],
    nemesis,
    concurrency: int,
    think_time: float = 0.0,
) -> ClosedLoopStats:
    """Closed-loop *jobs* with *nemesis* injected as the load starts; then
    drained, quiesced and checked for safety (not convergence: the nemesis
    may leave a cohort down)."""
    stats = run_closed_loop(
        rt, driver, "clients", jobs, concurrency=concurrency, think_time=think_time
    )
    rt.inject(nemesis)
    drain(rt, stats, len(jobs))
    rt.quiesce()
    rt.check_invariants(require_convergence=False)
    return stats


def spawn_prober(
    rt: Runtime,
    driver,
    call: Callable[[int], tuple],
    retries: int,
    pause: float,
    until: float = float("inf"),
) -> List[Tuple[float, str]]:
    """One sequential client: ``driver.call("clients", *call(index))`` for
    index 1, 2, ... with *pause* between calls, started while the clock is
    below *until*.  Returns the list it appends ``(replied at, outcome)`` to."""
    replies: List[Tuple[float, str]] = []

    def prober():
        index = 0
        while rt.sim.now < until:
            index += 1
            outcome, _ = yield driver.call("clients", *call(index), retries=retries)
            replies.append((rt.sim.now, outcome))
            yield sleep(pause)

    spawn(rt.sim, prober(), name="prober")
    return replies


def committed_share(replies: List[Tuple[float, str]]) -> float:
    """Availability as a prober saw it."""
    return sum(outcome == "committed" for _at, outcome in replies) / max(len(replies), 1)


def safety_violations(rt: Runtime) -> int:
    """1 if the history breaks an invariant (convergence aside), else 0."""
    try:
        rt.check_invariants(require_convergence=False)
    except AssertionError:
        return 1
    return 0


def mean_of(runs: Sequence[dict], key: str) -> float:
    """The mean of one metric over the per-seed runs of a cell."""
    return sum(run[key] for run in runs) / len(runs)


@transaction_program
def paused_chain(txn, group, keys, pause):
    """``incr`` each key with think time after every call: transactions that
    routinely straddle a view change."""
    for key in keys:
        yield txn.call(group, "incr", key, 1)
        yield sleep(pause)
    return len(keys)


#: Message types on the synchronous path of one remote call.
CALL_MSGS = ("CallMsg", "ReplyMsg")
#: Background replication traffic.
BUFFER_MSGS = ("BufferMsg", "BufferAckMsg")
#: Two-phase-commit traffic.
TWOPC_MSGS = (
    "PrepareMsg",
    "PrepareOkMsg",
    "PrepareRefusedMsg",
    "CommitMsg",
    "CommitAckMsg",
    "AbortMsg",
)
#: View change traffic (viewstamped replication).
VIEWCHANGE_MSGS = ("InviteMsg", "AcceptMsg", "InitViewMsg")


# -- named systems: what the experiments measure and repro.gate holds to the
# paper's state are the same configurations -------------------------------

#: E18's points, (label, (max_batch, pipeline_depth)); None = unbatched.
E18_CONFIGS = (
    ("unbatched", None),
    ("b=8 d=1", (8, 1)),
    ("b=64 d=2", (64, 2)),
    ("b=256 d=4", (256, 4)),
)


def batch_config(batch) -> BatchConfig:
    """The BatchConfig of one E18 point: ``None`` = unbatched, else
    ``(max_batch, pipeline_depth)``."""
    if batch is None:
        return BatchConfig(enabled=False)
    max_batch, pipeline_depth = batch
    return BatchConfig(
        enabled=True,
        max_batch=max_batch,
        flush_interval=0.5,
        pipeline_depth=pipeline_depth,
    )


LEASES = ProtocolConfig(reads=ReadConfig(enabled=True))
#: E19's serving paths, condition -> (config, where reads prefer to be
#: served).  ``baseline`` is the paper-faithful path (every read a
#: transaction); the others steer reads at the leased primary, at backups,
#: or through the client commit-set cache.
E19_CONDITIONS = {
    "baseline": (None, "primary"),
    "leases": (LEASES, "primary"),
    "backup": (LEASES, "backup"),
    "cache": (
        ProtocolConfig(reads=ReadConfig(enabled=True, client_cache=True)),
        "primary",
    ),
}

#: The placement conditions E20 parts (a) and (b) sweep.
E20_PLACEMENTS = ("spread", "single_dc", "primary_affinity:dc-a")


def e20_topology() -> Topology:
    """The standard E20 shape: 3 DCs x 2 zones x 2 slots."""
    return symmetric_topology(n_dcs=3, zones_per_dc=2, slots_per_zone=2)


def geo_protocol_config(
    placement: str,
    reads: bool = False,
    topology: Optional[Topology] = None,
) -> ProtocolConfig:
    return ProtocolConfig(
        geo=GeoConfig(topology=topology or e20_topology(), placement=placement),
        reads=ReadConfig(enabled=True) if reads else None,
    )
