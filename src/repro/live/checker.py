"""The liveness checker: polls armed specs against a running simulation.

Mirrors the :mod:`repro.trace` cost model: a runtime's ``liveness``
attribute is ``None`` by default and nothing anywhere pays for the
feature until :meth:`~repro.runtime.Runtime.arm_liveness` attaches a
checker.  Armed, the checker schedules one recurring simulator callback
that *reads* protocol and ledger state -- it never mutates the system
and never draws randomness, so a run with specs armed follows the exact
same trajectory (same ledger, same replica state, same ``state_digest``)
as one without.

Disruption awareness: every poll first classifies the system as
disrupted (a partition, a failed or overridden or degraded link, a down
node, or an active disk fault) and passes that to each spec, which by
default only charges its window with undisrupted time.  The classifier
uses the fault controller's captured default link, so ``lossy()`` counts
as a disruption while a network that was *built* lossy does not.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.config import IM_ALIVE_INTERVAL
from repro.live.report import LivenessViolation, build_stall_report
from repro.live.specs import LivenessSpec


class LivenessChecker:
    """Polls a set of :class:`LivenessSpec` against one runtime."""

    def __init__(
        self,
        runtime,
        specs: Iterable[LivenessSpec],
        poll_interval: Optional[float] = None,
        raise_on_violation: bool = True,
    ):
        self.runtime = runtime
        self.specs: List[LivenessSpec] = list(specs)
        if not self.specs:
            raise ValueError("arm_liveness needs at least one spec")
        for spec in self.specs:
            spec.bind(runtime)
        if poll_interval is None:
            poll_interval = IM_ALIVE_INTERVAL
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {poll_interval}")
        self.poll_interval = poll_interval
        self.raise_on_violation = raise_on_violation
        self.violations: List[LivenessViolation] = []
        self.polls = 0
        self._armed = True
        self._last_poll = runtime.sim.now
        runtime.sim.schedule(self.poll_interval, self._tick)

    # -- lifecycle ----------------------------------------------------------

    def disarm(self) -> None:
        """Stop polling; already-collected violations stay available."""
        self._armed = False

    # -- polling ------------------------------------------------------------

    def disrupted(self) -> bool:
        """Whether any injected disruption is active right now."""
        runtime = self.runtime
        if runtime.network.disrupted(runtime.faults._default_link):
            return True
        for node in runtime.nodes.values():
            if not node.up:
                return True
            for store in node.stable_stores:
                if store.faults_active():
                    return True
        return False

    def _tick(self) -> None:
        if not self._armed:
            return
        self.polls += 1
        now = self.runtime.sim.now
        dt = now - self._last_poll
        self._last_poll = now
        disrupted = self.disrupted()
        for spec in self.specs:
            reason = spec.step(dt, disrupted)
            if reason is not None:
                report = build_stall_report(self.runtime, spec, reason)
                violation = LivenessViolation(report)
                spec.reset()  # one report per expired window, not per poll
                if self.raise_on_violation:
                    self._armed = False
                    raise violation
                self.violations.append(violation)
        self.runtime.sim.schedule(self.poll_interval, self._tick)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LivenessChecker(specs={len(self.specs)}, polls={self.polls}, "
            f"violations={len(self.violations)}, armed={self._armed})"
        )
