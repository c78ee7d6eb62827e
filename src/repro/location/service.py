"""Highly-available location service: groupid -> configuration.

Paper section 3: "We assume the system provides a highly-available location
server that maps groupids to configurations; various implementations are
discussed in [15, 20, 22, 31]...  Note that the location server defines the
limits of availability: no module group can be more available than it is."

Substitution (see DESIGN.md): the paper treats this server as an assumed,
separately-published building block, so we model it as an always-available
oracle holding the (static) groupid -> configuration map.  Everything the
protocol actually exercises -- discovering the *current primary and viewid*
by probing configuration members, coping with stale caches -- still happens
over the simulated network (see :mod:`repro.core.calls`); only the static
membership lookup is oracular.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

#: One configuration: the group's (mid, address) members, in mid order as
#: registered.  Every lookup method returns this shape per group.
Configuration = Tuple[Tuple[int, str], ...]


class GroupNotFound(KeyError):
    """A strict lookup named a groupid the service has never registered.

    Subclasses :class:`KeyError` so legacy ``except KeyError`` handlers
    keep working; carries the offending ``groupid`` for programmatic use.
    """

    def __init__(self, groupid: str):
        super().__init__(f"unknown group {groupid!r}")
        self.groupid = groupid


def primary_address_in(configuration: Iterable[Tuple[int, str]], view) -> Optional[str]:
    """The address of *view*'s primary within a (mid, address) configuration."""
    if view is None:
        return None
    for mid, address in configuration:
        if mid == view.primary:
            return address
    return None


class LocationService:
    """Maps groupids to configurations ((mid, address) pairs).

    Many groups coexist (every shard of a sharded key space is its own
    group), so the lookup API offers one contract at two strictness
    levels, all returning the same per-group shape (a
    :data:`Configuration`, i.e. a tuple of (mid, address) pairs):

    - :meth:`lookup` -- strict: raises :class:`GroupNotFound` on a miss.
      Use when an unknown groupid is a caller bug.
    - :meth:`try_lookup` -- tolerant: returns ``None`` on a miss.  Use in
      message handlers keyed off a groupid carried in a reply, which may
      be stale or forged by a fault schedule.
    - :meth:`lookup_many` -- batch form of the same choice: strict mode
      raises :class:`GroupNotFound` for the first missing groupid,
      tolerant mode (the default) silently omits missing groups.

    Misses never return sentinel configurations (no empty tuples): a miss
    is always either ``None``/omission or :class:`GroupNotFound`.

    The service also publishes versioned :class:`~repro.shard.map.ShardMap`
    values: a republish must strictly increase the version, so a stale
    publisher can never roll routing backwards.
    """

    def __init__(self) -> None:
        self._configurations: Dict[str, Tuple[Tuple[int, str], ...]] = {}
        self._shard_maps: Dict[str, Any] = {}
        # repro.geo: address -> "dc/zone" site, plus the topology whose
        # distance() metric ranks replicas for nearest-* routing.
        self._sites: Dict[str, str] = {}
        self._topology = None

    def register(self, groupid: str, configuration) -> None:
        if groupid in self._configurations:
            raise ValueError(
                f"group {groupid!r} already registered; groupids are "
                "system-wide unique (pick another name for the new group)"
            )
        configuration = tuple(configuration)
        if not configuration:
            raise ValueError(f"group {groupid!r} registered an empty configuration")
        self._configurations[groupid] = configuration

    def lookup(self, groupid: str) -> Configuration:
        """The configuration of *groupid*; raises :class:`GroupNotFound`
        if it was never registered."""
        configuration = self._configurations.get(groupid)
        if configuration is None:
            raise GroupNotFound(groupid)
        return configuration

    def try_lookup(self, groupid: str) -> Optional[Configuration]:
        """The configuration of *groupid*, or ``None`` if it is not
        registered.  Never raises on a miss."""
        return self._configurations.get(groupid)

    def lookup_many(
        self, groupids: Iterable[str], strict: bool = False
    ) -> Dict[str, Configuration]:
        """Configurations keyed by groupid, in *groupids* order.

        With ``strict=False`` (the default) unknown groupids are omitted
        from the result; with ``strict=True`` the first unknown groupid
        raises :class:`GroupNotFound`, mirroring :meth:`lookup`.
        """
        found: Dict[str, Configuration] = {}
        for groupid in groupids:
            configuration = self._configurations.get(groupid)
            if configuration is None:
                if strict:
                    raise GroupNotFound(groupid)
                continue
            found[groupid] = configuration
        return found

    def groups(self):
        return tuple(self._configurations)

    def __contains__(self, groupid: str) -> bool:
        return groupid in self._configurations

    # -- geo sites and nearest-replica routing (repro.geo) -----------------

    def attach_topology(self, topology) -> None:
        """Install the topology whose distances rank nearest-* answers."""
        if self._topology is not None and self._topology is not topology:
            raise ValueError("a different topology is already attached")
        self._topology = topology

    def register_site(self, address: str, site: str) -> None:
        """Record that *address* lives at topology *site*.

        Sites are as permanent as the configuration map itself: a second
        registration for the same address is rejected (a node does not
        move between datacenters mid-run).
        """
        if address in self._sites:
            raise ValueError(
                f"address {address!r} already registered at site "
                f"{self._sites[address]!r}; site registrations are permanent"
            )
        if self._topology is not None and not self._topology.has_site(site):
            raise ValueError(f"unknown site {site!r} for address {address!r}")
        self._sites[address] = site

    def site_of(self, address: str) -> Optional[str]:
        return self._sites.get(address)

    def _distance(self, from_site: Optional[str], address: str) -> float:
        """Routing distance from a client site to a registered address.

        Unknown sites (either end) rank after every known pair, so a
        placed replica always beats an unplaced one.
        """
        to_site = self._sites.get(address)
        if self._topology is None or from_site is None or to_site is None:
            return float("inf")
        return self._topology.distance(from_site, to_site)

    def nearest_backup(
        self, groupid: str, view, site: Optional[str]
    ) -> Optional[str]:
        """The view's backup nearest to *site* (ties broken by mid).

        Returns ``None`` if the group is unknown, the view is absent, or
        no backup named by the view is registered -- the tolerance of
        in-progress view changes that ``ClientCache.learn`` has too.
        """
        configuration = self.try_lookup(groupid)
        if configuration is None or view is None:
            return None
        members = dict(configuration)
        best: Optional[str] = None
        best_rank: Optional[Tuple[float, int]] = None
        for mid in sorted(view.backups):
            address = members.get(mid)
            if address is None:
                continue
            rank = (self._distance(site, address), mid)
            if best_rank is None or rank < best_rank:
                best, best_rank = address, rank
        return best

    def nearest_member(
        self, groupid: str, view, site: Optional[str]
    ) -> Optional[str]:
        """The view member (primary included) nearest to *site*.

        The primary wins distance ties, so a flat (or site-less) lookup
        degrades to primary routing.
        """
        configuration = self.try_lookup(groupid)
        if configuration is None or view is None:
            return None
        members = dict(configuration)
        best: Optional[str] = None
        best_rank: Optional[Tuple[float, int]] = None
        ordered = [view.primary] + sorted(view.backups)
        for tiebreak, mid in enumerate(ordered):
            address = members.get(mid)
            if address is None:
                continue
            rank = (self._distance(site, address), tiebreak)
            if best_rank is None or rank < best_rank:
                best, best_rank = address, rank
        return best

    # -- shard maps --------------------------------------------------------

    def publish_shard_map(self, name: str, shard_map) -> None:
        """Publish (or republish) a versioned shard map under *name*.

        A republish must carry a strictly larger version than the
        currently published map -- the same monotonicity discipline
        viewids obey, applied to routing metadata.
        """
        current = self._shard_maps.get(name)
        if current is not None and shard_map.version <= current.version:
            raise ValueError(
                f"shard map {name!r} v{shard_map.version} does not supersede "
                f"published v{current.version}"
            )
        self._shard_maps[name] = shard_map

    def shard_map(self, name: str):
        if name not in self._shard_maps:
            raise KeyError(f"no shard map published under {name!r}")
        return self._shard_maps[name]

    def shard_maps(self):
        return tuple(self._shard_maps)
