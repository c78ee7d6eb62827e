"""Declarative fault plans: *what* to inject and *when*, as plain data.

A :class:`FaultPlan` is a time-ordered list of
steps (:class:`~repro.faults.controller.Step`), each a call of one primitive of
the fault controller (:data:`~repro.faults.controller.PRIMITIVES`), with no
reference to any live runtime.  ``plan.at(t)`` is a cursor whose methods
are the primitives, each checked as the primitive checks its call::

    plan = FaultPlan()
    plan.at(300).crash("kv-n0")
    plan.at(800).partition({"kv-n0"}, {"kv-n1", "kv-n2"})
    plan.at(1400).heal()
    plan.at(0).lossy(rate=0.1, duration=1000.0)

Times are relative to the moment the plan is handed to a
:class:`~repro.faults.controller.FaultController`, so the same plan replays
against any runtime; :meth:`FaultPlan.replay` builds the plan that re-makes
a controller's timeline.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.faults.controller import PRIMITIVES, InjectedFault, Step
from repro.sim.process import sleep


class _Cursor:
    """``plan.at(t)``: every primitive, as a method adding its step at *t*."""

    def __init__(self, plan: "FaultPlan", at: float):
        self._plan = plan
        self._at = at

    def __getattr__(self, name: str):
        if name not in PRIMITIVES:
            raise AttributeError(
                f"no fault primitive {name!r}; the primitives are {sorted(PRIMITIVES)}"
            )

        def add(*args, **kwargs) -> "_Cursor":
            self._plan.add(Step.of(self._at, name, args, kwargs))
            return self

        return add


class FaultPlan:
    """A deterministic, replayable schedule of fault injections."""

    def __init__(self) -> None:
        self._steps: List[Step] = []

    def add(self, step: Step) -> None:
        if step.at < 0:
            raise ValueError(f"fault scheduled in the past: at={step.at!r}")
        self._steps.append(step)

    def at(self, time: float) -> _Cursor:
        """Cursor scheduling steps *time* units after execution starts."""
        return _Cursor(self, time)

    def steps(self) -> List[Step]:
        """The steps in execution order (time, then insertion)."""
        return sorted(self._steps, key=lambda step: step.at)

    def __len__(self) -> int:
        return len(self._steps)

    def __iadd__(self, other: "FaultPlan") -> "FaultPlan":
        """Merge another plan's steps into this one (times stay as given)."""
        for step in other.steps():
            self.add(step)
        return self

    @classmethod
    def replay(cls, timeline: Iterable[InjectedFault], origin: float = 0.0) -> "FaultPlan":
        """The plan that, injected at simulated time *origin*, makes the
        calls that made *timeline* (a controller's ``timeline``)."""
        plan = cls()
        for event in timeline:
            if event.step is not None:
                plan.add(event.step._replace(at=event.step.at - origin))
        return plan

    def start(self, controller) -> None:
        """Run the plan on *controller* as one process."""
        controller.spawn(self._run(controller), name="fault-plan")

    def _run(self, controller):
        sim = controller.runtime.sim
        start = sim.now
        for step in self.steps():
            if start + step.at > sim.now:
                yield sleep(start + step.at - sim.now)
            getattr(controller, step.name)(*step.args, **dict(step.kwargs))
