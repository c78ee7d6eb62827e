"""Ack trees (``ScaleConfig(ack_tree=True)``; docs/SCALE.md).

Storage backups forward their cumulative buffer acks up the deterministic
fan-in :class:`~repro.scale.AckTree` instead of straight to the primary:
this extension decides *where* a backup's ack goes (and stamps the
subtree's aggregated ``agg`` pairs on it), and makes an interior node fold
its children's acks into its own after ``ACK_DELAY``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core import messages as m
from repro.core.extension import Extension, Table, wrap, wrap_row
from repro.scale import AckTree

#: Fan-in of the tree: children per interior node, and the number of tree
#: roots reporting directly to the primary.
ACK_FANOUT = 4
#: Coalescing delay before an interior node forwards its subtree's
#: aggregated acks upward.
ACK_DELAY = 0.5


class AckTreeAcks(Extension):
    def __init__(self, cohort) -> None:
        super().__init__(cohort)
        self._tree: Optional[AckTree] = None  # cached per (viewid, backups)
        self._tree_key = None
        self._children: Dict[int, int] = {}  # subtree mid -> acked_ts
        self._children_viewid = None
        self._forward_armed = False
        wrap(cohort, "build_buffer_ack", self._route_up_the_tree)

    def wire(self, any_status: Table, primary_only: Table) -> None:
        wrap_row(any_status, m.BufferAckMsg, self._fold_child)

    def reset(self) -> None:
        self._children = {}
        self._children_viewid = None
        self._forward_armed = False

    def _tree_for_view(self) -> AckTree:
        cohort = self.cohort
        key = (cohort.cur_viewid, cohort.cur_view.backups)
        if self._tree_key != key:
            self._tree = AckTree(
                cohort.cur_view.primary,
                cohort.quorums.storage(cohort.cur_view.backups),
                ACK_FANOUT,
            )
            self._tree_key = key
        return self._tree

    def _route_up_the_tree(self, build: Callable):
        """Our tree parent, and the ack with our subtree aggregated."""
        cohort = self.cohort
        primary, ack = build()
        pairs = {cohort.mymid: cohort.applied_ts}
        if self._children_viewid == cohort.cur_viewid:
            pairs.update(self._children)  # never holds our own mid
        parent = self._tree_for_view().parent(cohort.mymid)
        if parent != primary and cohort.liveness.suspects(parent):
            # A dead interior node must not orphan its subtree: bypass it.
            parent = primary
        ack.agg = tuple(sorted(pairs.items()))
        return parent, ack

    def _fold_child(self, handler: Callable, msg: m.BufferAckMsg) -> None:
        # The paper's row hears the child (liveness) wherever it runs, and
        # feeds the buffer at a primary.
        handler(msg)
        cohort = self.cohort
        if not cohort.is_backup_in(msg.viewid):
            return
        # Interior node: fold the child's (aggregated) subtree into ours and
        # forward the merged subtree upward after ``ACK_DELAY``.
        if self._children_viewid != cohort.cur_viewid:
            self._children = {}
            self._children_viewid = cohort.cur_viewid
        for mid, ts in msg.agg if msg.agg else ((msg.mid, msg.acked_ts),):
            if mid != cohort.mymid and ts > self._children.get(mid, -1):
                self._children[mid] = ts
        if not self._forward_armed:
            self._forward_armed = True
            cohort.set_timer(
                ACK_DELAY, self._forward, cohort._epoch, cohort.cur_viewid
            )

    def _forward(self, epoch: int, viewid) -> None:
        cohort = self.cohort
        self._forward_armed = False
        if cohort._epoch == epoch and cohort.is_backup_in(viewid):
            cohort.emit("ack_tree", len(self._children), cohort.applied_ts)
            cohort.ack_now()
