"""Fail-stop nodes and the actors they host.

The paper's failure model (section 1): nodes are fail-stop processors -- they
crash cleanly (no byzantine behaviour), losing volatile state, and eventually
recover.  A :class:`Node` models one machine:

- ``crash()`` marks the node down, bumps its *incarnation*, cancels every
  timer set through the node, and tells each hosted actor to drop volatile
  state (``Actor.on_crash``).
- ``recover()`` marks it up and calls ``Actor.on_recover``, where protocol
  code re-initializes from stable storage (paper section 4: ``up_to_date``
  becomes false and the cohort starts a view change).

Actors must create timers via :meth:`Node.set_timer` so that a crash
invalidates them -- a timer set before a crash must never fire into the
recovered incarnation.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.sim.kernel import Simulator, Timer
from repro.sim.process import Process, spawn


class Actor:
    """Base class for protocol participants hosted on a node.

    Subclasses override :meth:`handle_message` plus the crash/recover hooks.
    """

    def __init__(self, node: "Node", address: str):
        self.node = node
        self.sim = node.sim
        self.address = address
        node.attach(self)

    # -- message plane -----------------------------------------------------

    def handle_message(self, message: Any, source: str) -> None:
        """Called by the network when a message addressed to us arrives."""
        raise NotImplementedError

    # -- failure hooks -------------------------------------------------------

    def on_crash(self) -> None:
        """Volatile state is being lost; subclasses drop in-memory state."""

    def on_recover(self) -> None:
        """The node came back up; re-initialize from stable storage."""

    # -- conveniences ---------------------------------------------------------

    def set_timer(self, delay: float, callback: Callable, *args: Any) -> Timer:
        return self.node.set_timer(delay, callback, *args)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        return self.node.spawn(generator, name=name)


class Node:
    """A fail-stop machine hosting zero or more actors."""

    #: Compact the timer/process bookkeeping lists once they exceed this many
    #: entries (dropping cancelled timers and finished processes).  The
    #: working threshold doubles with the surviving population after each
    #: sweep, so a node with N genuinely-live timers pays amortized O(1)
    #: per set_timer instead of O(N) once N crosses a fixed limit.
    _PRUNE_THRESHOLD = 64

    def __init__(self, sim: Simulator, node_id: str):
        self.sim = sim
        self.node_id = node_id
        self.up = True
        self.incarnation = 0
        self.actors: list[Actor] = []
        # StableStores hosted here register themselves (see repro.storage);
        # disk state is per-machine, so disk-fault injection targets nodes.
        self.stable_stores: list = []
        self._timers: list[Timer] = []
        self._processes: list[Process] = []
        self._timer_prune_at = self._PRUNE_THRESHOLD
        self._process_prune_at = self._PRUNE_THRESHOLD
        self.crash_count = 0

    def attach(self, actor: Actor) -> None:
        self.actors.append(actor)

    # -- timers & processes (crash-scoped) ---------------------------------

    def set_timer(self, delay: float, callback: Callable, *args: Any) -> Timer:
        """Schedule a callback that is silently dropped if the node crashes."""
        tracer = self.sim.tracer
        if tracer is None:
            timer = self.sim.schedule(
                delay, self._fire, self.incarnation, callback, args
            )
        else:
            # Causality through timers: the fire inherits the event context
            # in which the timer was armed (a delivery, another fire, ...).
            incarnation = self.incarnation
            armed_in = tracer.current()
            parents = (armed_in,) if armed_in is not None else ()

            def guarded() -> None:
                if self.up and self.incarnation == incarnation:
                    tracer.push(
                        tracer.emit_row("timer_fire", self.node_id, parents, (delay,))
                    )
                    try:
                        callback(*args)
                    finally:
                        tracer.pop()

            timer = self.sim.schedule(delay, guarded)
        self._timers.append(timer)
        if len(self._timers) > self._timer_prune_at:
            self._timers = [t for t in self._timers if t.active]
            self._timer_prune_at = max(
                self._PRUNE_THRESHOLD, 2 * len(self._timers)
            )
        return timer

    def _fire(self, incarnation: int, callback: Callable, args: tuple) -> None:
        if self.up and self.incarnation == incarnation:
            callback(*args)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Run a process that is interrupted if the node crashes."""
        process = spawn(self.sim, generator, name=name or f"proc@{self.node_id}")
        self._processes.append(process)
        if len(self._processes) > self._process_prune_at:
            self._processes = [p for p in self._processes if not p.done]
            self._process_prune_at = max(
                self._PRUNE_THRESHOLD, 2 * len(self._processes)
            )
        return process

    # -- failure injection -----------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: lose volatile state, kill timers and processes."""
        if not self.up:
            return
        self.up = False
        self.crash_count += 1
        self.incarnation += 1
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        for process in self._processes:
            if not process.done:
                process.interrupt()
        self._processes.clear()
        for actor in self.actors:
            actor.on_crash()
        if self.sim.tracer is not None:
            self.sim.tracer.emit_row("node_crash", self.node_id, (), (self.node_id,))

    def recover(self) -> None:
        """Come back up; actors re-initialize from stable storage."""
        if self.up:
            return
        self.up = True
        # crash() cancelled the old incarnation's timers but cancelled
        # entries can also accumulate between crashes; start clean.
        self._timers = [t for t in self._timers if t.active]
        self._processes = [p for p in self._processes if not p.done]
        if self.sim.tracer is not None:
            self.sim.tracer.emit_row("node_recover", self.node_id, (), (self.node_id,))
        for actor in self.actors:
            actor.on_recover()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"Node({self.node_id!r}, {state}, inc={self.incarnation})"
