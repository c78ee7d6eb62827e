"""The canonical sharded workload: seq_puts plus cross-shard transfers.

Shared by ``python -m repro.gate shard`` (CI's digest gate) and the E17
scale-out experiment, so they measure the same thing: a closed-loop mix of
single-key writes (serialized per shard by the ``__seq`` lock) and
cross-shard transfers (the paper's multi-group 2PC).
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.config import ProtocolConfig
from repro.runtime import Runtime
from repro.workloads.loadgen import ClosedLoopStats, run_closed_loop


def make_jobs(
    seed: int, txns: int, cross_ratio: float = 0.25, keyspace: int = 64
) -> List[Tuple[str, tuple]]:
    """A deterministic mixed workload: seq_puts plus cross-shard transfers."""
    rng = random.Random(seed ^ 0x5EED)
    jobs: List[Tuple[str, tuple]] = []
    for index in range(txns):
        if rng.random() < cross_ratio:
            src = f"k{rng.randrange(keyspace)}"
            dst = f"k{rng.randrange(keyspace)}"
            jobs.append(("transfer", (src, dst, 1)))
        else:
            key = f"k{rng.randrange(keyspace)}"
            jobs.append(("seq_put", (key, index)))
    return jobs


def saturation_config(n_shards: int, concurrency: int) -> ProtocolConfig:
    """Patience proportional to the expected per-shard queue depth.

    A closed-loop saturation workload queues calls on the per-shard
    sequence lock; the default timeouts would convert that backpressure
    into aborts.
    """
    depth = max(2, concurrency // max(1, n_shards))
    return ProtocolConfig(call_timeout=60.0 * depth, lock_timeout=90.0 * depth)


def run_sharded_workload(
    seed: int,
    n_shards: int,
    txns: int,
    n_cohorts: int = 3,
    concurrency: int = 8,
    cross_ratio: float = 0.25,
    settle: float = 100.0,
    duration: float = 20000.0,
    link=None,
    nemesis=None,
    trace=None,
    name: str = "kv",
) -> Tuple[Runtime, object, ClosedLoopStats]:
    """One full sharded run; returns (runtime, façade, stats).

    ``link`` overrides the network model (e.g. LOSSY), ``nemesis`` is
    injected before the load starts so its clocks align with ``settle``.
    """
    kwargs = {}
    if link is not None:
        kwargs["link"] = link
    if trace is not None:
        kwargs["trace"] = trace
    runtime = Runtime(seed=seed, **kwargs)
    sharded = runtime.sharded_group(
        name,
        n_shards=n_shards,
        n_cohorts=n_cohorts,
        config=saturation_config(n_shards, concurrency),
    )
    driver = runtime.create_driver("driver")
    if nemesis is not None:
        runtime.inject(nemesis)
    runtime.run_for(settle)
    jobs = make_jobs(seed, txns, cross_ratio=cross_ratio)
    stats = run_closed_loop(
        runtime, driver, sharded, jobs, concurrency=concurrency
    )
    runtime.run_for(duration)
    return runtime, sharded, stats
