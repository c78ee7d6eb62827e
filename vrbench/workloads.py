"""The seven workloads: how each system is built and what load it gets.

Names are permanent.  Every parameter that shapes a workload lives in the
``WORKLOADS`` table below (``BENCHMARK.json`` carries only the name and the
one-line reason, by the benchmark contract).  ``ops`` is the operation
count of one full-size pass; ``--quick`` and ``--check`` scale it down,
never the shape.
"""

from __future__ import annotations

import bisect
import dataclasses
import random
from typing import Callable, List, Optional, Sequence

from repro import (
    LAN,
    LOSSY,
    BatchConfig,
    EmptyModule,
    LinkModel,
    Nemesis,
    ProtocolConfig,
    ReadConfig,
    Runtime,
    TraceConfig,
)
from repro.workloads.kv import KVStoreSpec, read_program, write_program

from vrbench.load import Op, call_op, read_op

WARMUP_OPS = 300


def key_space(n_ops: int) -> int:
    """Keys of a distinct-key system: one per load and warm-up operation,
    and half as many again for retries that take a fresh key."""
    return n_ops + WARMUP_OPS + n_ops // 2


@dataclasses.dataclass
class System:
    """One built deployment, ready for load."""

    rt: Runtime
    driver: object


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed: int
    #: operations in one full-size pass
    ops: int
    #: closed loop: number of simulated clients; 0 = open loop
    clients: int
    #: open loop: operations per simulated time unit
    rate: float
    build: Callable[["Workload", int, int, Optional[TraceConfig]], System]
    make_ops: Callable[[random.Random, int, int], List[Op]]
    #: armed for every pass of this workload (the ring workload)
    trace: Optional[TraceConfig] = None
    #: primary crashes injected during the load window
    crash_every: float = 0.0
    recover_after: float = 0.0
    #: distinct key per attempt (a retry takes a fresh key): every
    #: acknowledged write is checked against the final primary's store
    distinct_keys: bool = False

    def offsets(self, rng: random.Random, n: int) -> Optional[List[float]]:
        """Poisson due times (offsets from load start) for an open loop."""
        if self.clients:
            return None
        at = 0.0
        out = []
        for _ in range(n):
            at += rng.expovariate(self.rate)
            out.append(at)
        return out

    def nemesis(self, n_ops: int) -> Optional[Nemesis]:
        if not self.crash_every:
            return None
        window = n_ops / self.rate
        return Nemesis(f"vrbench-{self.name}").crash_primary(
            "kv",
            every=self.crash_every,
            count=int(window // self.crash_every),
            recover_after=self.recover_after,
        )


# -- systems -----------------------------------------------------------------


def _kv_system(
    seed: int,
    n_keys: int,
    *,
    link: LinkModel = LAN,
    config: Optional[ProtocolConfig] = None,
    trace: Optional[TraceConfig] = None,
) -> System:
    """A 3-cohort ``kv`` group, a 3-cohort ``clients`` group, one driver."""
    rt = Runtime(seed=seed, link=link, config=config, trace=trace)
    rt.create_group("kv", KVStoreSpec(n_keys=n_keys), n_cohorts=3)
    clients = rt.create_group("clients", EmptyModule(), n_cohorts=3)
    clients.register_program("read", read_program)
    clients.register_program("write", write_program)
    return System(rt, rt.create_driver("driver"))


def _build_mixed(w, seed, n_ops, trace):
    return _kv_system(seed, 16, trace=trace)


_FLOOD_LINK = LinkModel(base_delay=8.0, jitter=0.2)


def _build_flood(batched: bool):
    def build(w, seed, n_ops, trace):
        config = ProtocolConfig(
            batch=BatchConfig(
                enabled=batched, max_batch=2048, flush_interval=0.5,
                pipeline_depth=4,
            )
        )
        return _kv_system(
            seed, key_space(n_ops), link=_FLOOD_LINK, config=config, trace=trace
        )

    return build


def _build_reads(w, seed, n_ops, trace):
    config = ProtocolConfig(reads=ReadConfig(enabled=True))
    return _kv_system(seed, 64, config=config, trace=trace)


def _build_failover(w, seed, n_ops, trace):
    return _kv_system(seed, key_space(n_ops), link=LOSSY, trace=trace)


_SHARDS = 4
_SHARD_KEYSPACE = 64


def _build_sharded(w, seed, n_ops, trace):
    # Closed-loop saturation queues calls on each shard's sequence lock;
    # default timeouts would turn that queueing into aborts (the same
    # patience repro.shard.workload.saturation_config gives its runs).
    depth = max(2, w.clients // _SHARDS)
    config = ProtocolConfig(call_timeout=60.0 * depth, lock_timeout=90.0 * depth)
    rt = Runtime(seed=seed, trace=trace)
    rt.sharded_group("kv", n_shards=_SHARDS, n_cohorts=3, config=config)
    return System(rt, rt.create_driver("driver"))


# -- inputs ------------------------------------------------------------------


def _key(index: int) -> str:
    return f"key{index}"


def _ops_mixed(rng, n, first):
    ops = []
    for index in range(first, first + n):
        key = _key(rng.randrange(16))
        if rng.random() < 0.5:
            ops.append(call_op("clients", "read", "kv", key))
        else:
            ops.append(call_op("clients", "write", "kv", key, index))
    return ops


def _ops_distinct_writes(rng, n, first):
    return [
        call_op("clients", "write", "kv", _key(index), index + 1)
        for index in range(first, first + n)
    ]


def zipf_cdf(n: int, theta: float) -> List[float]:
    weights = [1.0 / rank**theta for rank in range(1, n + 1)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight
        cdf.append(acc / total)
    cdf[-1] = 1.0
    return cdf


_ZIPF_64 = zipf_cdf(64, 0.99)


def _ops_reads(rng, n, first):
    ops = []
    for index in range(first, first + n):
        key = _key(bisect.bisect_left(_ZIPF_64, rng.random()))
        if rng.random() < 0.9:
            ops.append(read_op("kv", key, ("clients", "read", ("kv", key))))
        else:
            ops.append(call_op("clients", "write", "kv", key, index))
    return ops


def _ops_sharded(rng, n, first):
    ops = []
    for index in range(first, first + n):
        if rng.random() < 0.25:
            src = f"k{rng.randrange(_SHARD_KEYSPACE)}"
            dst = f"k{rng.randrange(_SHARD_KEYSPACE)}"
            ops.append(call_op("kv", "transfer", src, dst, 1))
        else:
            key = f"k{rng.randrange(_SHARD_KEYSPACE)}"
            ops.append(call_op("kv", "seq_put", key, index))
    return ops


# -- the table ---------------------------------------------------------------

WORKLOADS: Sequence[Workload] = (
    Workload(
        name="mixed_n3",
        why="normal-case hot path: 4 closed-loop clients, 50/50 single-key "
        "read/write txns on 3 cohorts over LAN; every layer does a little",
        seed=4242, ops=4500, clients=4, rate=0.0,
        build=_build_mixed, make_ops=_ops_mixed,
    ),
    Workload(
        name="mixed_n3_ring",
        why="the mixed_n3 inputs with the trace ring and all monitors armed; "
        "tracing nearly halves the host rate here and costs nothing elsewhere",
        seed=4242, ops=2400, clients=4, rate=0.0,
        build=_build_mixed, make_ops=_ops_mixed,
        trace=TraceConfig(monitors="all"),
    ),
    Workload(
        name="flood_unbatched",
        why="640 closed-loop clients, distinct-key writes, 8-unit links, no "
        "batching: every force re-sends the unacked suffix and sizes it",
        seed=1818, ops=1000, clients=640, rate=0.0,
        build=_build_flood(False), make_ops=_ops_distinct_writes,
        distinct_keys=True,
    ),
    Workload(
        name="flood_batched",
        why="the flood with per-tick batched flushes and go-back-N windows: "
        "the same buffer layer used the other way, deep timer heap, many locks",
        seed=1818, ops=6000, clients=640, rate=0.0,
        build=_build_flood(True), make_ops=_ops_distinct_writes,
        distinct_keys=True,
    ),
    Workload(
        name="reads_leased",
        why="open loop, 0.6 ops per time unit, zipfian keys, 90% leased reads "
        "that bypass buffer, locks and 2PC: fixed per-message costs remain",
        seed=1901, ops=18000, clients=0, rate=0.6,
        build=_build_reads, make_ops=_ops_reads,
    ),
    Workload(
        name="failover_lossy",
        why="open-loop writes on lossy links while the primary crashes every "
        "700 units: view change, detection and timer churn do the work",
        seed=1601, ops=2000, clients=0, rate=0.1,
        build=_build_failover, make_ops=_ops_distinct_writes,
        crash_every=700.0, recover_after=300.0, distinct_keys=True,
    ),
    Workload(
        name="sharded_2pc",
        why="8 closed-loop clients on 4 shards x 3 cohorts plus a router: 75% "
        "single-shard puts, 25% cross-shard 2PC transfers, 15 idle cohorts",
        seed=1717, ops=3000, clients=8, rate=0.0,
        build=_build_sharded, make_ops=_ops_sharded,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
