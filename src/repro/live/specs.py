"""Liveness specs: window-bounded eventual-progress assertions.

A safety monitor (:mod:`repro.trace.monitors`) says "this must never
happen"; a liveness spec says "this must *eventually* happen, and
'eventually' has a budget".  Each spec is a predicate plus a window:
whenever the predicate is unsatisfied, the spec accrues *eligible* time,
and if it stays unsatisfied for longer than ``within`` the checker raises
:class:`~repro.live.report.LivenessViolation`.

The twist that makes the specs usable under fault injection is
*disruption-relative* time: with ``relax_under_disruption`` (the
default), eligible time only accrues while the system is undisrupted --
no partitions, no failed links, no down nodes, no disk faults, the
default link model in force.  A nemesis can then run arbitrary havoc
without tripping the spec, but once the schedule heals, the system owes
progress within the window.  Set ``relax_under_disruption=False`` for a
strict spec that charges the window regardless -- that is how a test
asserts a *permanent* majority partition produces a violation whose
:class:`~repro.live.report.StallReport` names the cut.

Nothing in a spec mutates the system or draws randomness: an armed
checker observes the identical trajectory an unarmed run takes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import INVITE_TIMEOUT, UNDERLING_TIMEOUT
from repro.detect.backoff import CAP_FACTOR, JITTER, VIEW_RETRY_DELAY


class LivenessSpec:
    """Base class: window accounting over a boolean progress predicate.

    Subclasses implement :meth:`satisfied` (and optionally override
    :meth:`describe` / :meth:`unsatisfied_reason`).  ``bind`` is called
    once when the spec is armed against a runtime.
    """

    name = "liveness"

    def __init__(self, within: float, relax_under_disruption: bool = True):
        if within <= 0:
            raise ValueError(f"within must be positive, got {within}")
        self.within = within
        self.relax_under_disruption = relax_under_disruption
        self.runtime = None
        self._eligible = 0.0

    def bind(self, runtime) -> None:
        self.runtime = runtime

    def reset(self) -> None:
        self._eligible = 0.0

    def satisfied(self) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        relax = "relaxed" if self.relax_under_disruption else "strict"
        return f"{self.name}(within={self.within:g}, {relax})"

    def unsatisfied_reason(self) -> str:
        return "progress predicate unsatisfied"

    def step(self, dt: float, disrupted: bool) -> Optional[str]:
        """Advance the window by *dt*; a string means the window expired."""
        if self.satisfied():
            self._eligible = 0.0
            return None
        if disrupted and self.relax_under_disruption:
            return None  # the clock is paused while faults are active
        self._eligible += dt
        if self._eligible <= self.within:
            return None
        return (
            f"{self.unsatisfied_reason()} for {self._eligible:g} "
            f"undisrupted time units (window {self.within:g})"
        )


class EventuallySinglePrimary(LivenessSpec):
    """Exactly one up, ACTIVE cohort of *groupid* claims the primaryship."""

    name = "eventually_single_primary"

    def __init__(self, groupid: str, within: float, **kwargs):
        super().__init__(within, **kwargs)
        self.groupid = groupid

    def _claimants(self) -> int:
        group = self.runtime.groups[self.groupid]
        return sum(
            1
            for cohort in group.active_cohorts()
            if cohort.is_primary
        )

    def satisfied(self) -> bool:
        return self._claimants() == 1

    def describe(self) -> str:
        return f"{super().describe()} group={self.groupid}"

    def unsatisfied_reason(self) -> str:
        count = self._claimants()
        return (
            f"group {self.groupid!r} has {count} active primaries "
            f"(want exactly 1)"
        )


class EventuallyCommits(LivenessSpec):
    """The system keeps committing: at least *n* new commits per window.

    Unlike the other specs this one measures throughput of the whole
    ledger, so it needs a workload that retries until commit; arm it only
    while such a workload is running.
    """

    name = "eventually_commits"

    def __init__(self, n: int, within: float, **kwargs):
        super().__init__(within, **kwargs)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self._base = 0

    def bind(self, runtime) -> None:
        super().bind(runtime)
        self._base = len(runtime.ledger.committed)

    def satisfied(self) -> bool:
        count = len(self.runtime.ledger.committed)
        if count - self._base >= self.n:
            self._base = count
            return True
        return False

    def describe(self) -> str:
        return f"{super().describe()} n={self.n}"

    def unsatisfied_reason(self) -> str:
        fresh = len(self.runtime.ledger.committed) - self._base
        return f"only {fresh} of {self.n} expected commits landed"


class ViewChangeConverges(LivenessSpec):
    """Every started view change of *groupid* eventually completes."""

    name = "view_change_converges"

    def __init__(self, groupid: str, within: float, **kwargs):
        super().__init__(within, **kwargs)
        self.groupid = groupid

    def satisfied(self) -> bool:
        ledger = self.runtime.ledger
        starts = [
            at for groupid, at in ledger.view_change_started
            if groupid == self.groupid
        ]
        if not starts:
            return True
        completions = ledger.view_changes_for(self.groupid)
        return bool(completions) and completions[-1].completed_at >= starts[-1]

    def describe(self) -> str:
        return f"{super().describe()} group={self.groupid}"

    def unsatisfied_reason(self) -> str:
        ledger = self.runtime.ledger
        starts = [
            at for groupid, at in ledger.view_change_started
            if groupid == self.groupid
        ]
        completions = ledger.view_changes_for(self.groupid)
        latest_done = completions[-1].completed_at if completions else None
        return (
            f"group {self.groupid!r} view change started at {starts[-1]:g} "
            f"has not completed (latest completion: {latest_done})"
        )


class NoLivelock(LivenessSpec):
    """View formation must not retry unboundedly without completing a view.

    Counts ``view_changes_started`` attempts since the group's last
    *completed* view change; more than *max_retries* of them sustained
    for the window is a livelock (e.g. dueling managers that keep
    preempting each other, or a manager whose ``cur_viewid`` writes keep
    failing).
    """

    name = "no_livelock"

    def __init__(self, groupid: str, max_retries: int, within: float, **kwargs):
        super().__init__(within, **kwargs)
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        self.groupid = groupid
        self.max_retries = max_retries
        self._starts_at_completion = 0
        self._completions_seen = 0

    def _starts(self) -> int:
        counters = self.runtime.metrics.counters
        return counters.get(f"view_changes_started:{self.groupid}", 0)

    def satisfied(self) -> bool:
        completions = len(self.runtime.ledger.view_changes_for(self.groupid))
        if completions > self._completions_seen:
            # A view formed; everything before it was productive retrying.
            self._completions_seen = completions
            self._starts_at_completion = self._starts()
        return self._starts() - self._starts_at_completion <= self.max_retries

    def describe(self) -> str:
        return (
            f"{super().describe()} group={self.groupid} "
            f"max_retries={self.max_retries}"
        )

    def unsatisfied_reason(self) -> str:
        stuck = self._starts() - self._starts_at_completion
        return (
            f"group {self.groupid!r} started {stuck} view changes since its "
            f"last completed view (bound {self.max_retries})"
        )


def spec_catalog(
    groupid: str,
    config,
    within_scale: float = 1.0,
    commits: Optional[int] = None,
    strict: bool = False,
) -> List[LivenessSpec]:
    """The standard spec set for one group, windows derived from timing.

    The base window is several full view-change budgets (underling
    timeout + invite timeout + retry slack), so a clean network gets a
    tight bound while ``within_scale`` loosens it for schedules that
    keep the system legitimately busy; ``commits`` arms the throughput
    spec on top.  ``strict=True`` charges windows even while faults are
    active (for asserting that unhealable disruption *does* violate).
    """
    window = within_scale * 4.0 * (UNDERLING_TIMEOUT + INVITE_TIMEOUT + VIEW_RETRY_DELAY)
    # A client attempt can legitimately sleep through one fully backed-off
    # retry delay (per-attempt timeout x backoff cap x max jitter) before
    # it re-probes a recovered group, so the throughput window must be
    # wider than that or quiet-but-healthy clients trip it.
    commit_window = max(
        window,
        within_scale
        * 2.0
        * (2.0 * config.call_timeout)
        * CAP_FACTOR
        * (1.0 + JITTER),
    )
    relax = not strict
    specs: List[LivenessSpec] = [
        EventuallySinglePrimary(
            groupid, within=window, relax_under_disruption=relax
        ),
        ViewChangeConverges(
            groupid, within=window, relax_under_disruption=relax
        ),
        NoLivelock(
            groupid,
            max_retries=12,
            within=window,
            relax_under_disruption=relax,
        ),
    ]
    if commits is not None:
        specs.append(
            EventuallyCommits(
                commits, within=commit_window, relax_under_disruption=relax
            )
        )
    return specs
