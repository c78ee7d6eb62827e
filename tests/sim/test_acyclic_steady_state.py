"""The simulator's steady state creates no reference cycles.

Everything a run drops -- delivered messages, fired timers, finished
processes, resolved futures, the state a crash or a view change throws
away -- must be freed by reference count.  That is what lets the kernel
relax the cyclic collector's gen-0 threshold (``repro.sim.kernel``): there
is nothing for it to find on the hot path.  Each case below builds a
system, drives a workload to completion with the collector *disabled*, and
then asks the collector what it can find while the ``Runtime`` is still
alive: the answer must be nothing.
"""

from __future__ import annotations

import collections
import contextlib
import gc

import pytest

from repro import LOSSY, Nemesis
from repro.config import BatchConfig, ProtocolConfig, ReadConfig
from repro.harness.common import build_kv_system, drain, run_kv_batch
from repro.net.link import LinkModel
from repro.shard.workload import run_sharded_workload
from repro.sim import Simulator, sleep
from repro.sim.process import spawn
from repro.workloads.loadgen import run_closed_loop, run_open_loop


@contextlib.contextmanager
def no_cyclic_garbage():
    """Fail if the block leaves anything only the cyclic collector can free."""
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.disable()
    gc.collect()
    try:
        yield
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        histogram = collections.Counter(
            type(obj).__qualname__ for obj in gc.garbage
        ).most_common(12)
        assert found == 0, f"{found} unreachable objects: {histogram}"
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def test_mixed_reads_and_writes_on_three_cohorts():
    with no_cyclic_garbage():
        rt, _kv, _clients, driver, spec = build_kv_system(seed=4242, n_cohorts=3)
        stats = run_kv_batch(rt, driver, spec, 300, read_fraction=0.5, concurrency=4)
        rt.quiesce()
        assert stats.committed == 300


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "unbatched"])
def test_sixty_four_client_flood(batched):
    count = 256
    config = ProtocolConfig(
        batch=BatchConfig(
            enabled=batched, max_batch=2048, flush_interval=0.5, pipeline_depth=4
        )
    )
    with no_cyclic_garbage():
        rt, _kv, _clients, driver, spec = build_kv_system(
            seed=1818, n_cohorts=3, n_keys=count, config=config,
            link=LinkModel(base_delay=8.0, jitter=0.2),
        )
        jobs = [("write", ("kv", spec.key(i), i)) for i in range(count)]
        stats = run_closed_loop(rt, driver, "clients", jobs, concurrency=64)
        drain(rt, stats, count, step=50.0)
        rt.quiesce()
        assert stats.committed == count


def test_leased_reads():
    with no_cyclic_garbage():
        rt, _kv, _clients, driver, spec = build_kv_system(
            seed=1901, n_cohorts=3, n_keys=24,
            config=ProtocolConfig(reads=ReadConfig(enabled=True)),
        )
        rt.run_for(60.0)
        stats = run_open_loop(
            rt, driver, key=spec.key, n_keys=24, duration=400.0, rate=0.6,
            read_fraction=0.9,
        )
        rt.run_for(400.0)
        while not stats.drained:
            rt.run_for(100.0)
        rt.quiesce()
        assert stats.read_modes.get("lease", 0) > 100


def test_four_shard_two_phase_commit_transfers():
    with no_cyclic_garbage():
        rt, _sharded, stats = run_sharded_workload(
            seed=1717, n_shards=4, txns=80, concurrency=8
        )
        rt.quiesce()
        assert stats.committed == 80
        assert any(program == "transfer" for program, _a, _o in stats.results)


def test_three_crash_view_change_recover_rounds_under_loss():
    """The paths that throw state away: a crash drops the primary's buffer,
    janitor and flush loop; a view change retires the survivors' epoch."""
    count = 60
    with no_cyclic_garbage():
        rt, kv, _clients, driver, spec = build_kv_system(
            seed=1606, n_cohorts=3, n_keys=count, link=LOSSY,
            config=ProtocolConfig(batch=BatchConfig(enabled=True)),
        )
        jobs = [("write", ("kv", spec.key(i), i)) for i in range(count)]
        stats = run_closed_loop(rt, driver, "clients", jobs, concurrency=2, max_attempts=None)
        for _round in range(3):
            rt.run_for(150.0)
            primary = kv.active_primary()
            assert primary is not None
            views_before = len(rt.ledger.view_changes)
            primary.node.crash()
            rt.run_for(300.0)
            assert len(rt.ledger.view_changes) > views_before
            primary.node.recover()
        drain(rt, stats, count)
        rt.quiesce(duration=600.0)
        assert stats.committed == count


def test_interrupted_and_failed_processes_free_their_frames():
    """An exception that leaves a process body must not pin the kernel's
    frames (and through them whoever called ``run``) in a cycle."""

    def sleeper():
        yield sleep(100.0)

    def failing():
        yield sleep(1.0)
        raise ValueError("boom")

    with no_cyclic_garbage():
        sim = Simulator()
        interrupted = spawn(sim, sleeper(), name="interrupted")
        failed = spawn(sim, failing(), name="failed")
        sim.run(until=5.0)
        interrupted.interrupt()
        sim.run()
        assert interrupted.cancelled
        error = failed.exception()
        assert isinstance(error, ValueError)
        # what a reader needs is still there: the body's own frame
        assert error.__traceback__.tb_frame.f_code.co_name == "failing"
        del interrupted, failed, error


def test_stopping_a_nemesis_mid_run_leaves_nothing():
    with no_cyclic_garbage():
        rt, kv, _clients, _driver, _spec = build_kv_system(seed=7, n_cohorts=3)
        rt.inject(
            Nemesis("storm").partition_storm(
                [node.node_id for node in kv.nodes()],
                mean_healthy=200.0, mean_partitioned=80.0,
            )
        )
        rt.run_for(1_000.0)
        rt.faults.stop()
        rt.faults.heal_all()
        rt.quiesce()
