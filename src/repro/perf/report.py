"""The two digests every identity check in the repo compares.

``ledger_digest`` pins a run's *schedule* (same seed, same bytes) and
``state_digest`` what the protocol *computed* (the same under any
schedule): :mod:`repro.gate` holds configurations to one or the other, and
``vrbench`` prints both for every workload.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, List

from repro.sim.rng import sha256


def _feed_list(digest, items: Iterable) -> None:
    """Feed *digest* the bytes of ``repr(list(items))``, an item at a time."""
    opening = b"["
    for item in items:
        digest.update(opening)
        digest.update(repr(item).encode())
        opening = b", "
    digest.update(b"[]" if opening == b"[" else b"]")


def _sorted_keys(table: dict, first: Callable, then: Callable) -> List:
    """The keys of *table* in the order of ``(first(key), then(key))``: two
    stable sorts, so the only strings alive at once are the sort keys."""
    keys = sorted(table, key=then)
    keys.sort(key=first)
    return keys


def _aid_name(key: tuple) -> str:
    return str(key[0])


def ledger_digest(runtime) -> str:
    """Deterministic sha256 over a run's observable outcome.

    Covers the full ledger (commits, aborts, effects, view changes), the
    event count, and the final clock -- any reordering introduced by a
    kernel change shows up here as a different digest on the same seed.
    The bytes are the ``repr`` of each part's sorted list, the parts one to
    a line, fed an item at a time: no part is ever one string, and no list
    but the sorted keys is built.
    """
    ledger = runtime.ledger
    digest = sha256()
    for outcomes in (ledger.committed, ledger.aborted):
        _feed_list(
            digest,
            (
                (str(aid), outcomes[aid])
                for aid in _sorted_keys(outcomes, str, outcomes.__getitem__)
            ),
        )
        digest.update(b"\n")
    effects = ledger.effects
    _feed_list(
        digest,
        (
            (str(key[0]), key[1], *map(list, effects[key]))
            for key in _sorted_keys(effects, _aid_name, itemgetter(1))
        ),
    )
    digest.update(b"\n")
    _feed_list(
        digest,
        (
            (ev.groupid, str(ev.viewid), ev.primary, ev.completed_at)
            for ev in ledger.view_changes
        ),
    )
    digest.update(f"\n{runtime.sim.events_processed!r}\n{runtime.sim.now!r}".encode())
    return digest.hexdigest()


def state_digest(runtime) -> str:
    """Deterministic sha256 over the final replicated *application state*.

    Unlike :func:`ledger_digest`, this covers only what the paper's safety
    argument promises survives any schedule: each group's committed base
    values (uid -> value at the active primary).  It deliberately excludes
    event counts, clocks, versions, and aids, all of which legitimately
    differ between two runs that commit the same transactions along
    different schedules -- e.g. a batched and an unbatched run of the same
    workload.  Two configs that disagree here lost, duplicated, or
    reordered conflicting writes.  One line per group, ``groupid: `` and
    the ``repr`` of its sorted ``(uid, repr(base))`` list, fed a line and
    an item at a time.
    """
    digest = sha256()
    for line, groupid in enumerate(sorted(runtime.groups)):
        if line:
            digest.update(b"\n")
        primary = runtime.groups[groupid].active_primary()
        if primary is None:
            digest.update(f"{groupid}: no active primary".encode())
            continue
        digest.update(f"{groupid}: ".encode())
        _feed_list(
            digest, sorted([(uid, repr(base)) for uid, (base, _) in primary.store.items()])
        )
    return digest.hexdigest()
