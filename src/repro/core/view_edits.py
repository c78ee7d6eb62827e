"""Unilateral view edits (section 4.1; ``ProtocolConfig(unilateral_edits=True)``).

Section 4.1 lets a primary that can still reach a majority exclude a backup
it suspects, or re-add a cohort it hears again, by adding a ``ViewEdit``
record to its buffer instead of running a full view change.  This extension
takes over the view-change controller's ``edit_view`` policy (which refuses
every edit in the paper's cohort) and has the buffer keep the whole view's
records, so a re-added backup can be caught up from where it left off.
Experiment E12 measures what it saves.
"""

from __future__ import annotations

from typing import Callable

from repro.core.events import ViewEdit
from repro.core.extension import Extension, wrap


class UnilateralEdits(Extension):
    def __init__(self, cohort) -> None:
        super().__init__(cohort)
        cohort.buffer_options["retain_all"] = True
        wrap(cohort.view_change, "edit_view", self._edit)

    def _edit(self, refuse: Callable, view_suspects, outside_live) -> bool:
        """Primary: exclude suspects / re-add live cohorts without a full
        view change; False when that would lose the majority."""
        cohort = self.cohort
        if not cohort.is_primary:
            return refuse(view_suspects, outside_live)
        new_backups = set(cohort.cur_view.backups)
        for peer in view_suspects:
            if peer != cohort.cur_view.primary:
                new_backups.discard(peer)
        for peer in outside_live:
            new_backups.add(peer)
        if len(new_backups) + 1 < cohort.quorums.formation:
            # Losing the majority: the primary must stop working on
            # transactions (section 4.1) -- full view change instead.
            return False
        if new_backups == set(cohort.cur_view.backups):
            return True  # only the primary is suspect of itself; nothing to do
        edited = tuple(sorted(new_backups))
        cohort.add_record(ViewEdit(backups=edited))
        cohort.buffer.set_backups(cohort.quorums.storage(edited))
        cohort.metrics.incr("unilateral_view_edits")
        cohort.buffer.flush()
        return True
