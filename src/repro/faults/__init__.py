"""Deterministic fault injection (the paper's section 1 failure model).

The :class:`FaultController` of a runtime (``runtime.faults``) owns the one
fault vocabulary, its primitives (:data:`PRIMITIVES`), and records every
injected event.  A :class:`FaultPlan` is a replayable list of primitive
calls (:class:`Step`); a :class:`Nemesis` bundles randomized rules (each
a :class:`FaultRule`, in ``repro.faults.nemesis``) driven by the seeded
simulation RNG.  See ``docs/FAULTS.md`` for a walkthrough.
"""

from repro.faults.controller import PRIMITIVES, FaultController, InjectedFault, Step
from repro.faults.nemesis import FaultRule, Nemesis
from repro.faults.plan import FaultPlan

__all__ = [
    "PRIMITIVES",
    "FaultController",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "Nemesis",
    "Step",
]
