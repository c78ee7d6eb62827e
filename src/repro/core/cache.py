"""The client's local cache of (viewid, view, primary) per server group.

Section 3.1: "To make a remote call, the system looks up the primary and
viewid for the group in its cache, initializing the cache if necessary...
If the reply indicates that the view has changed, update the cache, if
possible."  :meth:`ClientCache.learn` is that update, and the only code
that turns view information into an entry: every host hands it the
(viewid, view) a reply carries and re-sends only what it itself holds.
The cache only ever moves forward: stale information (an older viewid)
never overwrites newer.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.core.view import View
from repro.core.viewstamp import ViewId
from repro.location.service import primary_address_in


@dataclasses.dataclass
class CacheEntry:
    viewid: ViewId
    view: View
    primary_address: str


class ClientCache:
    """Per-host cache mapping groupid -> current (viewid, view, primary).

    ``location`` is the location service the primary's address is
    resolved through; hosts read a group's members from it as well."""

    def __init__(self, location) -> None:
        self.location = location
        self._entries: Dict[str, CacheEntry] = {}

    def get(self, groupid: str) -> Optional[CacheEntry]:
        return self._entries.get(groupid)

    def primary(self, groupid: str) -> Optional[str]:
        """The cached primary's address, or None: the group is not cached."""
        entry = self._entries.get(groupid)
        return None if entry is None else entry.primary_address

    def learn(
        self, groupid: str, viewid: Optional[ViewId], view: Optional[View]
    ) -> bool:
        """Install *view*, named *viewid*, if it is newer than the cached
        one; True if the cache moved.  A missing viewid or view, an unknown
        group and a primary the group never registered change nothing."""
        if viewid is None or view is None:
            return False
        current = self._entries.get(groupid)
        if current is not None and current.viewid >= viewid:
            return False
        configuration = self.location.try_lookup(groupid)
        if configuration is None:
            return False
        address = primary_address_in(configuration, view)
        if address is None:
            return False
        self._entries[groupid] = CacheEntry(viewid, view, address)
        return True

    def invalidate(self, groupid: str) -> None:
        self._entries.pop(groupid, None)

    def __contains__(self, groupid: str) -> bool:
        return groupid in self._entries
