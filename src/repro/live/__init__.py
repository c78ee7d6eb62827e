"""Liveness specs, stall diagnosis, and the table of nemesis schedules.

Safety monitors (:mod:`repro.trace`) catch the protocol doing something
wrong; this package catches it doing *nothing*.  Three pieces:

- :mod:`repro.live.specs` -- composable, window-bounded eventual-progress
  assertions (``eventually_single_primary``, ``eventually_commits``,
  ``view_change_converges``, ``no_livelock``) whose deadlines only charge
  while the system is undisrupted, so a nemesis can rage without false
  alarms but a healed system owes progress;
- :mod:`repro.live.report` -- on a missed deadline,
  :class:`LivenessViolation` carries a :class:`StallReport`: per-node
  protocol state, pending timers, in-flight traffic, active disruptions
  (named partitioned quorums included), and a bounded causal slice;
- :mod:`repro.live.schedules` -- the nemesis schedules ``python -m repro.gate``
  crosses the spec catalog and every extension against (crash churn, lossy,
  partition+heal, asymmetric cuts, disk faults, a slow node, the soak's
  storm and region chaos, and one deliberately unhealable majority
  partition that is *required* to violate).

Arm specs with :meth:`repro.Runtime.arm_liveness`; a runtime without
armed specs pays nothing (``runtime.liveness`` stays ``None``), and armed
ones disturb nothing the protocol decides (``python -m repro.gate
liveness``).  See ``docs/LIVENESS.md``.
"""

from repro.live.checker import LivenessChecker
from repro.live.report import LivenessViolation, StallReport, build_stall_report
from repro.live.schedules import SCHEDULES, Schedule, one_crash
from repro.live.specs import (
    EventuallyCommits,
    EventuallySinglePrimary,
    LivenessSpec,
    NoLivelock,
    ViewChangeConverges,
    spec_catalog,
)

__all__ = [
    "EventuallyCommits",
    "EventuallySinglePrimary",
    "LivenessChecker",
    "LivenessSpec",
    "LivenessViolation",
    "NoLivelock",
    "SCHEDULES",
    "Schedule",
    "StallReport",
    "ViewChangeConverges",
    "build_stall_report",
    "one_crash",
    "spec_catalog",
]
