"""Bottom-layer micro-benchmarks (the E14 shapes), in nanoseconds per call.

Each is a ``perf_counter_ns`` loop around one layer's public functions:
median of ``REPEATS`` timings of at least ``MIN_SECONDS`` each.  They
belong to a layer and to no workload, so the suite runs them once per
invocation: a change to one of these data structures should show here first
and in ``txn_per_wall_s`` second.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

from repro.core.buffer import CommunicationBuffer
from repro.core.events import Aborted
from repro.core.messages import BufferAckMsg, BufferMsg
from repro.core.viewstamp import ViewId, Viewstamp
from repro.sim.kernel import Simulator
from repro.txn.ids import Aid
from repro.txn.locks import LockManager
from repro.txn.objects import READ, WRITE, ObjectStore

REPEATS = 5
MIN_SECONDS = 0.2
_VID = ViewId(3, 0)


def _ns_per_call(batch: Callable[[], int]) -> float:
    """*batch* runs some calls and returns how many; repeat it until
    ``MIN_SECONDS`` have passed, ``REPEATS`` times, and take the median."""
    rates = []
    for _ in range(REPEATS):
        calls = 0
        started = time.perf_counter_ns()
        while True:
            calls += batch()
            elapsed = time.perf_counter_ns() - started
            if elapsed >= MIN_SECONDS * 1e9:
                break
        rates.append(elapsed / calls)
    return statistics.median(rates)


def _schedule_pop() -> int:
    """Schedule then pop 2000 events through the kernel heap."""
    sim = Simulator()
    fire = int
    for index in range(2000):
        sim.schedule(float(index % 97), fire)
    sim.run()
    return 2000


def _records(n: int):
    return tuple(
        (ts, Aborted(aid=Aid("g", _VID, ts))) for ts in range(1, n + 1)
    )


_BUFFER_MSG = BufferMsg(viewid=_VID, records=_records(64), primary_ts=64)


def _byte_size() -> int:
    """Size one 64-record BufferMsg (record sizes are interned after the
    first call, as they are on every resend in a run)."""
    for _ in range(200):
        _BUFFER_MSG.byte_size()
    return 200


def _buffer_add_ack() -> int:
    sim = Simulator()
    buffer = CommunicationBuffer(
        viewid=_VID,
        backups=(1, 2),
        configuration_size=3,
        send=lambda mid, msg: None,
        set_timer=sim.schedule,
        on_force_failure=lambda: None,
        force_timeout=1000.0,
    )
    for index in range(200):
        stamp = buffer.add(Aborted(aid=Aid("g", _VID, index)))
        buffer.on_ack(BufferAckMsg(viewid=_VID, acked_ts=stamp.ts, mid=1))
    return 200


def _lock_acquire_release() -> int:
    """30 transactions: 5 read locks and a write lock each, then release."""
    store = ObjectStore()
    for index in range(20):
        store.create(f"x{index}", 0)
    locks = LockManager(store)
    for txn in range(30):
        aid = f"t{txn}"
        for index in range(5):
            locks.acquire(f"x{(txn + index) % 20}", aid, READ)
        locks.acquire(f"x{txn % 20}", aid, WRITE)
        locks.record_write(f"x{txn % 20}", aid, txn)
        locks.release_reads(aid)
        locks.install(aid)
    return 30 * 6


_STAMPS = [Viewstamp(ViewId(i % 7, i % 3), i) for i in range(200)]


def _viewstamp_compare() -> int:
    stamps = _STAMPS
    previous = stamps[-1]
    below = 0
    for stamp in stamps:
        below += stamp < previous
        previous = stamp
    return len(stamps)


MICROS: Dict[str, Callable[[], int]] = {
    "sim.schedule_pop_ns": _schedule_pop,
    "net.messages.byte_size_ns": _byte_size,
    "core.buffer.add_ack_ns": _buffer_add_ack,
    "txn.locks.acquire_release_ns": _lock_acquire_release,
    "core.viewstamp.compare_ns": _viewstamp_compare,
}


def run_micros() -> Dict[str, float]:
    return {name: _ns_per_call(batch) for name, batch in MICROS.items()}
