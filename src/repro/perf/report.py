"""The two digests every identity check in the repo compares.

``ledger_digest`` pins a run's *schedule* (same seed, same bytes) and
``state_digest`` what the protocol *computed* (the same under any
schedule): :mod:`repro.gate` holds configurations to one or the other, and
``vrbench`` prints both for every workload.
"""

from __future__ import annotations

import hashlib


def ledger_digest(runtime) -> str:
    """Deterministic sha256 over a run's observable outcome.

    Covers the full ledger (commits, aborts, effects, view changes), the
    event count, and the final clock -- any reordering introduced by a
    kernel change shows up here as a different digest on the same seed.
    """
    ledger = runtime.ledger
    parts = [
        repr(sorted((str(aid), at) for aid, at in ledger.committed.items())),
        repr(sorted((str(aid), why) for aid, why in ledger.aborted.items())),
        repr(
            sorted(
                (str(aid), groupid, sorted(reads.items()), sorted(writes.items()))
                for (aid, groupid), (reads, writes) in ledger.effects.items()
            )
        ),
        repr(
            [
                (ev.groupid, str(ev.viewid), ev.primary, ev.completed_at)
                for ev in ledger.view_changes
            ]
        ),
        repr(runtime.sim.events_processed),
        repr(runtime.sim.now),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def state_digest(runtime) -> str:
    """Deterministic sha256 over the final replicated *application state*.

    Unlike :func:`ledger_digest`, this covers only what the paper's safety
    argument promises survives any schedule: each group's committed base
    values (uid -> value at the active primary).  It deliberately excludes
    event counts, clocks, versions, and aids, all of which legitimately
    differ between two runs that commit the same transactions along
    different schedules -- e.g. a batched and an unbatched run of the same
    workload.  Two configs that disagree here lost, duplicated, or
    reordered conflicting writes.
    """
    parts = []
    for groupid in sorted(runtime.groups):
        primary = runtime.groups[groupid].active_primary()
        if primary is None:
            parts.append(f"{groupid}: no active primary")
            continue
        items = sorted((uid, repr(base)) for uid, (base, _) in primary.store.items())
        parts.append(f"{groupid}: {items!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()
