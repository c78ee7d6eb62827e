"""The cohort's extension seam (DESIGN.md, *Extension seam*).

:class:`~repro.core.cohort.Cohort` is the paper's Figure 4 and nothing
else.  Every mechanism beyond it (section 4.1's unilateral view edits,
section 4.2's stable storage, batched transmission, read leases, gossip
heartbeats, ack trees, witness replicas) is an :class:`Extension` that
:func:`build_extensions` creates when, and only when, the cohort's config
arms it.  A disabled mechanism is *absent*: no object, no field on the
cohort, no branch; ``cohort.extensions == ()`` by default.

An extension reaches the protocol three ways: it adds or wraps **handler
rows** of the cohort's two type-keyed dispatch tables (:func:`wrap_row`, in
``wire``: tables are rebuilt on recovery); it takes over, once, in its
constructor, the **builders** of the four messages extensions stamp, the
three **policies** with one owner each -- ``Cohort.acknowledge`` (when a
backup acks), ``Liveness.beacon`` (whom a heartbeat round reaches;
:mod:`repro.detect.liveness`) and ``ViewChangeController.edit_view``
(whether a liveness sweep's suspicions are met by editing the view) -- and
section 4.2's **storage points** --
``add_record`` or ``_record_bookkeeping`` (an image is written after it)
and ``force_to`` -- with :func:`wrap`; and it hears the cohort's
**lifecycle** under the names the roles already use.  Extensions are built
and wired innermost first: a later one's wrapper runs before an earlier
one's.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Tuple

from repro.storage.stable import StableStoragePolicy

#: ``type(message)`` -> bound handler (the cohort's two dispatch tables)
Table = Dict[type, Callable]


class Extension:
    """One optional mechanism of one cohort.

    Subclasses override what they need; every method here is implemented
    by at least one extension.  ``wire`` aside, the hooks are the cohort's
    status transitions: ``on_become_primary`` (end of
    ``activate_as_primary``), ``on_leave_active`` (start of
    ``leave_active``, before the buffer closes), ``on_install`` (joined a
    formed view as a backup) and ``reset`` (recovery, the roles' name for
    it: whatever volatile state the crash took is dropped here, and what
    stable storage kept is read back).
    """

    def __init__(self, cohort) -> None:
        self.cohort = cohort

    def wire(self, any_status: Table, primary_only: Table) -> None:
        """Add or wrap rows; called at construction and after recovery."""

    def on_become_primary(self) -> None:
        pass

    def on_leave_active(self) -> None:
        pass

    def on_install(self) -> None:
        pass

    def reset(self) -> None:
        pass


def wrap(owner, name: str, around: Callable) -> None:
    """Replace ``owner.<name>`` by ``around(owner.<name>, ...)``, on this one
    instance: how an extension takes over a builder or a policy of its
    cohort (or of the cohort's roles and view-change controller) without
    the owner testing for it."""
    setattr(owner, name, partial(around, getattr(owner, name)))


def wrap_row(table: Table, cls: type, around: Callable) -> None:
    """Replace the *cls* row of a dispatch table by ``around(row, message)``."""
    table[cls] = partial(around, table[cls])


def build_extensions(cohort) -> Tuple[Extension, ...]:
    """The extensions *cohort*'s config arms, innermost first.

    The only place in ``repro.core`` that reads ``storage_policy``,
    ``unilateral_edits`` and the ``batch``, ``reads`` and ``scale``
    sub-configs (but for ``scale.witnesses``, which
    :class:`~repro.core.group.ModuleGroup` turns into the group's
    :class:`~repro.core.quorum.Quorums`); each subsystem is imported only
    when armed, so a paper-faithful run never loads ``repro.storage.policy``,
    ``repro.core.view_edits``, ``repro.scale`` or ``repro.reads.lease``.
    """
    config = cohort.config
    batch, reads, scale = config.batch, config.reads, config.scale
    # BatchConfig.max_batch caps a flush in both transmission modes.
    cohort.buffer_options["max_batch"] = batch.max_batch
    extensions: List[Extension] = []
    if config.storage_policy is not StableStoragePolicy.MINIMAL:
        from repro.storage.policy import StablePolicy

        extensions.append(StablePolicy(cohort, config.storage_policy))
    if config.unilateral_edits:
        from repro.core.view_edits import UnilateralEdits

        extensions.append(UnilateralEdits(cohort))
    if scale is not None and scale.ack_tree:
        from repro.scale.ack_tree import AckTreeAcks

        extensions.append(AckTreeAcks(cohort))
    if cohort.quorums.witnesses:
        from repro.scale.witness import Witnesses

        extensions.append(Witnesses(cohort))
    if reads.enabled:
        from repro.reads.serving import Leases

        extensions.append(Leases(cohort))
    if batch.enabled:
        from repro.core.batching import Batching

        extensions.append(Batching(cohort, batch))
    if scale is not None and scale.gossip:
        from repro.scale.gossip import Gossip

        extensions.append(Gossip(cohort, beacon_primary=reads.enabled))
    return tuple(extensions)
