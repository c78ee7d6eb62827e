"""Module groups: wiring cohorts onto nodes (paper section 2).

"The method replicates individual modules to obtain module groups.  A
module group consists of several copies of the module, called cohorts,
which behave as a single, logical entity; the program can indicate the
number of cohorts when the group is created...  We expect a small number
of cohorts per group, on the order of three or five."
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, List, Optional, Tuple

from repro.config import ProtocolConfig
from repro.core.cohort import Cohort, Status
from repro.core.quorum import Quorums
from repro.core.view import View
from repro.core.viewstamp import ViewId
from repro.sim.node import Node


class ModuleGroup:
    """A replicated module: one cohort per node, bootstrapped into an
    initial view with the lowest-mid cohort as primary."""

    def __init__(
        self,
        runtime,
        groupid: str,
        spec,
        nodes: List[Node],
        config: Optional[ProtocolConfig] = None,
    ):
        if not nodes:
            raise ValueError("a group needs at least one cohort")
        self.runtime = runtime
        self.groupid = groupid
        self.spec = spec
        self.config = config if config is not None else runtime.config
        # The one reader of ScaleConfig.witnesses: every count of members
        # toward a quorum reads this value.
        scale = self.config.scale
        self.quorums = Quorums(len(nodes), scale.witnesses if scale is not None else 0)
        self.configuration: Tuple[Tuple[int, str], ...] = tuple(
            (mid, f"{groupid}/{mid}") for mid in range(len(nodes))
        )
        runtime.location.register(groupid, self.configuration)

        # The group's initial objects, built once and shared read-only by
        # its cohorts' stores (DESIGN.md D26).
        initial_image = MappingProxyType(
            {uid: (value, 0) for uid, value in spec.initial_objects().items()}
        )
        initial_viewid = ViewId(1, 0)
        initial_view = View(primary=0, backups=tuple(range(1, len(nodes))))
        self.cohorts: Dict[int, Cohort] = {}
        for mid, node in enumerate(nodes):
            self.cohorts[mid] = Cohort(
                node=node,
                runtime=runtime,
                groupid=groupid,
                mid=mid,
                configuration=self.configuration,
                quorums=self.quorums,
                spec=spec,
                initial_image=initial_image,
                config=self.config,
                initial_viewid=initial_viewid,
                initial_view=initial_view,
            )

    # -- structure ------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.cohorts)

    def cohort(self, mid: int) -> Cohort:
        return self.cohorts[mid]

    def nodes(self) -> List[Node]:
        return [cohort.node for cohort in self.cohorts.values()]

    def register_program(self, name: str, fn) -> None:
        """Register a transaction program runnable at this group's primary."""
        self.spec.register_program(name, fn)

    # -- inspection (used by tests, examples, and the harness) ---------------

    def active_primary(self) -> Optional[Cohort]:
        """The cohort acting as primary of the most recent active view."""
        best: Optional[Cohort] = None
        for cohort in self.cohorts.values():
            if not cohort.node.up or cohort.status is not Status.ACTIVE:
                continue
            if not cohort.is_primary:
                continue
            if best is None or cohort.cur_viewid > best.cur_viewid:
                best = cohort
        return best

    def active_cohorts(self) -> List[Cohort]:
        return [
            cohort
            for cohort in self.cohorts.values()
            if cohort.node.up and cohort.status is Status.ACTIVE
        ]

    def highest_viewid(self) -> ViewId:
        return max(cohort.cur_viewid for cohort in self.cohorts.values())

    def read_object(self, uid: str):
        """Read an object's base value at the current primary (test oracle)."""
        primary = self.active_primary()
        if primary is None:
            raise RuntimeError(f"group {self.groupid} has no active primary")
        return primary.store.base(uid)

    def converged(self) -> bool:
        """True when every caught-up active cohort agrees on all objects.

        Backups still draining the buffer are excluded; run the simulation
        a few flush intervals past quiescence before asserting this.
        """
        primary = self.active_primary()
        if primary is None or primary.buffer is None:
            return False
        # A store holds exactly the entries that differ from the group's
        # initial objects (DESIGN.md D26), so two stores hold the same image
        # exactly when they hold the same entries.
        reference = primary.store.snapshot()
        for cohort in self.active_cohorts():
            if cohort.mymid == primary.mymid:
                continue
            if cohort.mymid in self.quorums.witnesses:
                continue  # witnesses hold no state to converge (repro.scale)
            if cohort.cur_viewid != primary.cur_viewid:
                return False
            if cohort.applied_ts < primary.buffer.timestamp:
                return False
            if cohort.store.snapshot() != reference:
                return False
        return True

    def divergence_report(self) -> List[str]:
        """Human-readable differences between primary and backups."""
        primary = self.active_primary()
        if primary is None:
            return [f"{self.groupid}: no active primary"]
        problems = []
        reference = primary.store.snapshot()
        for cohort in self.active_cohorts():
            if cohort.mymid == primary.mymid:
                continue
            if cohort.mymid in self.quorums.witnesses:
                continue  # witnesses hold no state to compare (repro.scale)
            if cohort.cur_viewid != primary.cur_viewid:
                problems.append(
                    f"{cohort.address}: view {cohort.cur_viewid} != "
                    f"{primary.cur_viewid}"
                )
                continue
            snapshot = cohort.store.snapshot()
            for uid in dict.fromkeys([*reference, *snapshot]):  # either wrote
                mine, theirs = cohort.store.entry(uid), primary.store.entry(uid)
                if mine != theirs:
                    problems.append(f"{cohort.address}: {uid}={mine} != {theirs}")
        return problems

    # -- failure injection ------------------------------------------------------

    def crash_cohort(self, mid: int) -> None:
        self.cohorts[mid].node.crash()

    def recover_cohort(self, mid: int) -> None:
        self.cohorts[mid].node.recover()

    def crash_primary(self) -> Optional[int]:
        """Crash the current active primary; returns its mid."""
        primary = self.active_primary()
        if primary is None:
            return None
        primary.node.crash()
        return primary.mymid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModuleGroup({self.groupid!r}, n={self.size})"
