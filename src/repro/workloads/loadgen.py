"""Closed- and open-loop load generation over workload drivers.

The closed-loop generator (:func:`run_closed_loop`) models a fixed
population of clients that wait for each transaction before issuing the
next, optionally retrying it until it commits.  The open-loop generator
(:func:`run_open_loop`) models arrival-rate-driven traffic YCSB-style:
Poisson inter-arrivals at a configured rate, zipfian key skew, a
configurable read fraction, and per-mode latency accounting -- the workload
shape the read serving path (``repro.reads``) exists for.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.sim.process import sleep, spawn


class ZipfianGenerator:
    """Zipf-skewed key indices over ``[0, n)`` via a precomputed CDF.

    ``theta`` is the usual YCSB skew constant: 0 degenerates to uniform,
    0.99 is the YCSB default (a few keys absorb most of the traffic).
    Drawing costs one uniform variate and a binary search.
    """

    def __init__(self, n: int, theta: float = 0.99):
        if n <= 0:
            raise ValueError(f"ZipfianGenerator needs n > 0, got {n}")
        self.n = n
        self.theta = theta
        total = 0.0
        cdf: List[float] = []
        for rank in range(1, n + 1):
            total += 1.0 / rank**theta
            cdf.append(total)
        self._cdf = [weight / total for weight in cdf]
        self._cdf[-1] = 1.0  # guard against float round-off at the tail

    def draw(self, rng) -> int:
        return bisect.bisect_left(self._cdf, rng.random())


def latency_histogram(
    latencies: List[float], bins: int = 12
) -> List[Tuple[float, int]]:
    """Log-spaced (upper_bound, count) pairs covering *latencies*."""
    if not latencies:
        return []
    low = max(min(latencies), 1e-9)
    high = max(latencies)
    if high <= low:
        return [(high, len(latencies))]
    ratio = (high / low) ** (1.0 / bins)
    edges = [low * ratio ** (i + 1) for i in range(bins)]
    edges[-1] = high
    counts = [0] * bins
    for value in latencies:
        counts[min(bisect.bisect_left(edges, value), bins - 1)] += 1
    return list(zip(edges, counts))


def _percentile(values: List[float], fraction: float) -> float:
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * fraction) - 1)]


@dataclasses.dataclass
class OpenLoopStats:
    """Outcome accounting for one open-loop run.

    Reads and writes are tracked separately; ``read_modes`` counts how
    each successful read was served (``lease`` / ``backup`` / ``cache`` /
    ``txn``), which is the serving-path tradeoff E19 reports.
    """

    issued_reads: int = 0
    issued_writes: int = 0
    reads_ok: int = 0
    reads_failed: int = 0
    writes_committed: int = 0
    writes_aborted: int = 0
    writes_unknown: int = 0
    read_modes: Dict[str, int] = dataclasses.field(default_factory=dict)
    read_latencies: List[float] = dataclasses.field(default_factory=list)
    write_latencies: List[float] = dataclasses.field(default_factory=list)
    read_staleness: List[float] = dataclasses.field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def issued(self) -> int:
        return self.issued_reads + self.issued_writes

    @property
    def completed(self) -> int:
        return (
            self.reads_ok
            + self.reads_failed
            + self.writes_committed
            + self.writes_aborted
            + self.writes_unknown
        )

    @property
    def drained(self) -> bool:
        return self.completed >= self.issued

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def read_mean_latency(self) -> float:
        if not self.read_latencies:
            return math.nan
        return sum(self.read_latencies) / len(self.read_latencies)

    @property
    def read_p99_latency(self) -> float:
        return _percentile(self.read_latencies, 0.99)

    @property
    def max_observed_staleness(self) -> float:
        return max(self.read_staleness, default=0.0)


def run_open_loop(
    runtime,
    driver,
    *,
    key: Callable[[int], str],
    n_keys: int,
    duration: float,
    rate: float,
    read_groupid: str = "kv",
    write_groupid: str = "clients",
    read_program: str = "read",
    write_program: str = "write",
    read_fraction: float = 0.9,
    theta: float = 0.99,
    max_staleness: Optional[float] = None,
    prefer: str = "primary",
    use_read_path: bool = True,
    value_of: Optional[Callable[[int], Any]] = None,
    stats: Optional[OpenLoopStats] = None,
    name: str = "openloop",
) -> OpenLoopStats:
    """Open-loop keyed get/put generation: Poisson arrivals, zipfian keys.

    A dispatcher process draws exponential inter-arrival gaps at *rate*
    ops per simulated time unit for *duration*, picks a key with
    :class:`ZipfianGenerator` skew *theta*, and fires each operation
    without waiting for the previous one (open loop -- queueing shows up
    as latency, not reduced offered load).  Reads go through
    :meth:`Driver.read` against *read_groupid* (honoring *max_staleness*
    and *prefer*, with the transactional *read_program* as fallback)
    unless ``use_read_path=False``, which sends every read down the full
    call path -- the paper-faithful baseline with an identical arrival
    and key sequence.  Writes always use the call path; committed writes
    feed the driver's commit-set cache via :meth:`Driver.note_write`.

    Returns the stats object, which fills in as the simulation runs;
    drive the sim past the window and drain with ``stats.drained``.
    """
    if stats is None:
        stats = OpenLoopStats()
    sim = runtime.sim
    stats.started_at = sim.now
    stats.finished_at = sim.now
    zipf = ZipfianGenerator(n_keys, theta)
    arrival_rng = runtime.sim.rng.fork(f"{name}/arrivals")
    key_rng = runtime.sim.rng.fork(f"{name}/keys")
    op_rng = runtime.sim.rng.fork(f"{name}/ops")

    def on_read_done(submitted_at: float):
        def cb(future) -> None:
            result = future.result()
            stats.read_latencies.append(sim.now - submitted_at)
            if result.ok:
                stats.reads_ok += 1
                stats.read_modes[result.mode] = (
                    stats.read_modes.get(result.mode, 0) + 1
                )
                stats.read_staleness.append(result.staleness)
            else:
                stats.reads_failed += 1
            stats.finished_at = sim.now

        return cb

    def on_baseline_read_done(submitted_at: float):
        def cb(future) -> None:
            outcome, _value = future.result()
            stats.read_latencies.append(sim.now - submitted_at)
            if outcome == "committed":
                stats.reads_ok += 1
                stats.read_modes["txn"] = stats.read_modes.get("txn", 0) + 1
                stats.read_staleness.append(0.0)
            else:
                stats.reads_failed += 1
            stats.finished_at = sim.now

        return cb

    def on_write_done(submitted_at: float, uid: str, value: Any):
        def cb(future) -> None:
            outcome, _result = future.result()
            stats.write_latencies.append(sim.now - submitted_at)
            if outcome == "committed":
                stats.writes_committed += 1
                driver.note_write(uid, value)
            elif outcome == "aborted":
                stats.writes_aborted += 1
            else:
                stats.writes_unknown += 1
            stats.finished_at = sim.now

        return cb

    def dispatcher():
        deadline = sim.now + duration
        sequence = 0
        while True:
            yield sleep(arrival_rng.expovariate(rate))
            if sim.now >= deadline:
                return
            uid = key(zipf.draw(key_rng))
            if op_rng.random() < read_fraction:
                stats.issued_reads += 1
                if use_read_path:
                    driver.read(
                        read_groupid,
                        uid,
                        max_staleness=max_staleness,
                        prefer=prefer,
                        fallback=(
                            write_groupid, read_program, (read_groupid, uid)
                        ),
                    ).add_done_callback(on_read_done(sim.now))
                else:
                    driver.call(
                        write_groupid, read_program, read_groupid, uid
                    ).add_done_callback(on_baseline_read_done(sim.now))
            else:
                sequence += 1
                value = sequence if value_of is None else value_of(sequence)
                stats.issued_writes += 1
                driver.call(
                    write_groupid, write_program, read_groupid, uid, value
                ).add_done_callback(on_write_done(sim.now, uid, value))

    spawn(sim, dispatcher(), name=f"{name}-dispatcher")
    return stats


@dataclasses.dataclass
class ClosedLoopStats:
    """Outcome accounting for one closed-loop run.

    ``committed`` counts jobs (each at most once); ``aborted`` and
    ``unknown`` count attempts, so under ``max_attempts > 1`` they are the
    attempts that were retried.  ``results`` holds one ``(program, args,
    outcome of the last attempt)`` per finished job, in finishing order
    like ``latencies``.
    """

    committed: int = 0
    aborted: int = 0
    unknown: int = 0
    latencies: List[float] = dataclasses.field(default_factory=list)
    results: List[Tuple[str, tuple, str]] = dataclasses.field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def submitted(self) -> int:
        return self.committed + self.aborted + self.unknown

    @property
    def gave_up(self) -> List[Tuple[str, tuple]]:
        """The jobs that ran out of attempts without committing."""
        return [
            (program, args)
            for program, args, outcome in self.results
            if outcome != "committed"
        ]

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return math.nan
        return sum(self.latencies) / len(self.latencies)

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def throughput(self) -> float:
        if self.duration <= 0:
            return math.nan
        return self.committed / self.duration

    @property
    def abort_rate(self) -> float:
        if self.submitted == 0:
            return math.nan
        return self.aborted / self.submitted


def run_closed_loop(
    runtime,
    driver,
    target,
    jobs: Iterable[Tuple[str, tuple]],
    concurrency: int = 1,
    think_time: float = 0.0,
    max_attempts: Optional[int] = 1,
    stats: Optional[ClosedLoopStats] = None,
) -> ClosedLoopStats:
    """Issue *jobs* ((program, args) pairs) through *driver*, closed-loop.

    Spawns *concurrency* worker processes that each take the next job when
    their previous one resolves.  *target* is whatever :meth:`Driver.call`
    takes: a groupid, or a sharded façade whose shard map routes each job.
    A job is attempted up to *max_attempts* times, ``None`` meaning until it
    commits: with idempotent distinct-key writes the *final replicated
    state* is then independent of the schedule (loss, view changes,
    batching), which is what :mod:`repro.gate` compares by digest.  A job
    that runs out of attempts is in ``stats.gave_up``.

    Returns the stats object, which fills in as the simulation runs (call
    ``runtime.run_for(...)`` after).
    """
    if stats is None:
        stats = ClosedLoopStats()
    stats.started_at = runtime.sim.now
    job_iter = iter(list(jobs))
    sim = runtime.sim

    def worker():
        for program, args in job_iter:
            submitted_at = sim.now
            for attempt in itertools.count(1):
                outcome, _result = yield driver.call(target, program, *args)
                if outcome == "committed":
                    stats.committed += 1
                    break
                elif outcome == "aborted":
                    stats.aborted += 1
                else:
                    stats.unknown += 1
                if attempt == max_attempts:
                    break
            stats.latencies.append(sim.now - submitted_at)
            stats.results.append((program, args, outcome))
            stats.finished_at = sim.now
            if think_time > 0:
                yield sleep(think_time)

    for index in range(concurrency):
        spawn(sim, worker(), name=f"loadgen-{index}")
    return stats
