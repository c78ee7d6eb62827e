"""Stable storage: survives crashes, costs latency to force.

The paper deliberately minimizes stable storage (section 4.2): only
``mymid``, ``configuration``, ``mygroupid`` (written at creation) and
``cur_viewid`` (written at the end of a view change) are stable; everything
else is volatile and replication substitutes for disk forces.  Experiment
E3 measures exactly this trade (communication vs stable-storage latency),
and E11 measures the catastrophe exposure it buys, so the store models
write latency explicitly.

Crash semantics: a synchronous write becomes durable only when it
*completes*.  Writes are scheduled through the owning node, so a crash
mid-write cancels the completion and the old value remains -- the
atomic-page behaviour Lampson & Sturgis stable storage provides.

Fault modes (injected through :class:`~repro.faults.controller.FaultController`,
see docs/FAULTS.md):

- ``fail``: writes error after the usual latency (the future resolves to a
  :class:`DiskFault`); nothing is persisted.  Reads still serve the old
  pages -- a dead write head, not a lost disk.
- ``slow``: write latency is multiplied (a sick disk; gray failure).
- ``torn`` (one-shot): the next write becomes durable *halfway through its
  latency* and then the node crashes before acknowledging it.  The
  dangerous half of a torn force: the page landed but no one learned it,
  so on recovery stable state can be ahead of what the protocol believes
  was persisted.  (Lampson & Sturgis duplicate pages make the
  corrupted-page half detectable and recoverable, so this is the half
  that remains.)
"""

from __future__ import annotations

import copy
import enum
from typing import Any, Dict, List

from repro.sim.future import Future
from repro.sim.node import Node


class DiskFault(Exception):
    """A stable-storage write failed (injected disk fault)."""

    def __init__(self, node_id: str, key: str):
        self.node_id = node_id
        self.key = key
        super().__init__(f"stable write of {key!r} failed on {node_id}")


class StableStoragePolicy(enum.Enum):
    """What a cohort keeps on stable storage: section 4.2's spectrum.

    MINIMAL, the paper's design, keeps the four fields above and builds no
    extension; each other point is one :class:`~repro.storage.policy.StablePolicy`
    (DESIGN.md D8).  PRIMARY_GSTATE ("stable storage only at the primary")
    has the primary write its image, the full newview record, after every
    record it adds; ALL has every cohort do so after every record it adds
    or applies.  Both write with ``write_immediate`` (UPS-backed NVRAM, off
    the critical path) and recover by installing the image.  LOG is the
    conventional system of section 3.7: every force also waits for a
    stable write of that image, which recovery installs.
    """

    MINIMAL = "minimal"
    PRIMARY_GSTATE = "primary_gstate"
    ALL = "all"
    LOG = "log"


class StableStore:
    """Per-node key/value stable storage with modelled write latency.

    Values are deep-copied on write so later in-memory mutation of protocol
    state cannot retroactively alter what was "on disk".  Every store
    registers itself on its node (``node.stable_stores``) so the fault
    controller can find the disks of a node by id.
    """

    def __init__(self, node: Node, write_latency: float = 5.0):
        self.node = node
        self.write_latency = write_latency
        self._data: Dict[str, Any] = {}
        # -- injected fault state (disk state, not volatile: survives crashes)
        self.fail_writes = False
        self.slow_factor = 1.0
        self.torn_armed = False
        node.stable_stores.append(self)

    # -- fault injection (driven by FaultController.disk_*) -----------------

    def inject_fail(self, failing: bool = True) -> None:
        self.fail_writes = failing

    def inject_slow(self, factor: float) -> None:
        if factor < 1.0:
            raise ValueError(f"slow factor must be >= 1.0, got {factor!r}")
        self.slow_factor = factor

    def arm_torn(self) -> None:
        """One-shot: the next write persists mid-latency, then the node
        crashes before the write is acknowledged."""
        self.torn_armed = True

    def heal_faults(self) -> None:
        self.fail_writes = False
        self.slow_factor = 1.0
        self.torn_armed = False

    def faults_active(self) -> List[str]:
        """Human-readable active fault modes (for StallReports)."""
        active = []
        if self.fail_writes:
            active.append("fail")
        if self.slow_factor != 1.0:
            active.append(f"slow x{self.slow_factor:g}")
        if self.torn_armed:
            active.append("torn-armed")
        return active

    # -- the storage API ----------------------------------------------------

    def write(self, key: str, value: Any) -> Future:
        """Force *value* durable; the future resolves when it is on disk.

        If the node crashes before the latency elapses, the write is lost
        (the future is simply never resolved -- its waiters died with the
        node anyway).  Under an injected ``fail`` the future resolves to a
        :class:`DiskFault` after the latency and nothing is persisted --
        callers must check :meth:`Future.exception` before treating the
        value as durable.
        """
        future = Future(label=("stable-write:", key))
        snapshot = copy.deepcopy(value)
        latency = self.write_latency * self.slow_factor

        if self.torn_armed:
            self.torn_armed = False

            def tear() -> None:
                # The page lands, then the node dies before the completion
                # callback would have run: durable but unacknowledged.
                self._data[key] = snapshot
                self.node.crash()

            self.node.set_timer(latency / 2.0, tear)
            return future

        if self.fail_writes:

            def fail() -> None:
                future.set_exception(DiskFault(self.node.node_id, key))

            self.node.set_timer(latency, fail)
            return future

        def complete() -> None:
            self._data[key] = snapshot
            future.set_result(None)

        self.node.set_timer(latency, complete)
        return future

    def write_immediate(self, key: str, value: Any) -> None:
        """Durable write with no latency -- for initial configuration and
        the UPS-backed-NVRAM gstate model (section 4.2), which injected
        disk faults deliberately do not touch."""
        self._data[key] = copy.deepcopy(value)

    def read(self, key: str, default: Any = None) -> Any:
        """Read survives crashes; returns a copy so callers can mutate."""
        if key not in self._data:
            return default
        return copy.deepcopy(self._data[key])

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StableStore(node={self.node.node_id!r}, keys={sorted(self._data)})"
