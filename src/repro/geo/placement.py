"""Placement policies: which site each cohort of a group lands on.

``Runtime.create_group`` (and therefore ``sharded_group``, which builds
its shards through it) consults the runtime's resolved policy whenever a
geo topology is armed and the caller did not pass explicit nodes.  A
policy maps ``(topology, groupid, n_cohorts)`` to one site per mid, in
mid order -- mid 0 is the group's initial primary, which is what
``primary_affinity`` exploits.

Policies are deliberately *stateful* (per-DC cursors, a group counter)
so consecutive groups -- e.g. a sharded group's shards -- interleave
across the topology deterministically by creation order.  Configure them
by name (``"spread"``, ``"single_dc"``, ``"single_dc:dc-a"``,
``"primary_affinity:dc-b"``) so each :class:`~repro.runtime.Runtime`
resolves a fresh instance; passing a policy *instance* shares its
cursors across every runtime that uses that config.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.geo.topology import Topology

#: The names ``resolve_placement`` accepts (docs/GEO.md vocabulary).
PLACEMENT_POLICIES = ("spread", "single_dc", "primary_affinity")


class PlacementPolicy:
    """Maps a group's cohorts to topology sites."""

    name = "policy"

    def place(self, topology: Topology, groupid: str, n_cohorts: int) -> List[str]:
        """One site per mid (index = mid), consuming this policy's cursors."""
        raise NotImplementedError

    def validate(self, topology: Topology) -> None:
        """Raise ValueError if the policy names a datacenter *topology* lacks."""

    def _take(
        self, topology: Topology, dc_name: str, cursors: Dict[str, int]
    ) -> str:
        """The DC's next slot-weighted site, advancing its cursor."""
        cycle = topology.sites_of(dc_name)
        cursor = cursors.get(dc_name, 0)
        cursors[dc_name] = cursor + 1
        return cycle[cursor % len(cycle)]


class Spread(PlacementPolicy):
    """Naive geo-redundancy: cohort i -> datacenter ``i % n_dcs``.

    Maximizes surviving-region coverage but puts every quorum on the
    WAN: each force waits for a cross-DC majority.
    """

    name = "spread"

    def __init__(self) -> None:
        self._cursors: Dict[str, int] = {}

    def place(self, topology: Topology, groupid: str, n_cohorts: int) -> List[str]:
        dcs = topology.dc_names()
        return [
            self._take(topology, dcs[index % len(dcs)], self._cursors)
            for index in range(n_cohorts)
        ]


class SingleDc(PlacementPolicy):
    """Whole groups in one datacenter: LAN quorums, region-sized blast radius.

    ``SingleDc("dc-a")`` pins every group to that DC; ``SingleDc()``
    round-robins *whole groups* across DCs by creation order, which gives
    a sharded group one shard per DC -- locality-aware sharding with only
    cross-shard 2PC paying WAN prices.
    """

    name = "single_dc"

    def __init__(self, dc: Optional[str] = None) -> None:
        self.dc = dc
        self._group_index = 0
        self._cursors: Dict[str, int] = {}

    def validate(self, topology: Topology) -> None:
        dcs = topology.dc_names()
        if self.dc is not None and self.dc not in dcs:
            raise ValueError(f"unknown datacenter {self.dc!r} (have {list(dcs)})")

    def place(self, topology: Topology, groupid: str, n_cohorts: int) -> List[str]:
        self.validate(topology)
        dcs = topology.dc_names()
        if self.dc is not None:
            dc = self.dc
        else:
            dc = dcs[self._group_index % len(dcs)]
        self._group_index += 1
        return [self._take(topology, dc, self._cursors) for _ in range(n_cohorts)]


class PrimaryAffinity(PlacementPolicy):
    """A LAN majority in *region* (primary included), the rest spread.

    The first ``n // 2 + 1`` mids -- a bare majority, led by mid 0, the
    initial primary -- land in *region*, so every force commits on a
    LAN quorum; the remaining cohorts round-robin the other DCs for
    region-failure survival (losing *region* costs the majority, the
    deliberate trade this policy makes for local commit latency).
    """

    name = "primary_affinity"

    def __init__(self, region: str) -> None:
        self.region = region
        self._cursors: Dict[str, int] = {}

    def validate(self, topology: Topology) -> None:
        dcs = topology.dc_names()
        if self.region not in dcs:
            raise ValueError(f"unknown region {self.region!r} (have {list(dcs)})")

    def place(self, topology: Topology, groupid: str, n_cohorts: int) -> List[str]:
        self.validate(topology)
        dcs = topology.dc_names()
        majority = n_cohorts // 2 + 1
        others = [dc for dc in dcs if dc != self.region] or [self.region]
        sites = [
            self._take(topology, self.region, self._cursors)
            for _ in range(min(majority, n_cohorts))
        ]
        for index in range(n_cohorts - len(sites)):
            sites.append(
                self._take(topology, others[index % len(others)], self._cursors)
            )
        return sites


def spread() -> Spread:
    return Spread()


def single_dc(dc: Optional[str] = None) -> SingleDc:
    return SingleDc(dc)


def primary_affinity(region: str) -> PrimaryAffinity:
    return PrimaryAffinity(region)


def resolve_placement(spec: Union[str, PlacementPolicy]) -> PlacementPolicy:
    """A fresh policy from a name spec, or *spec* itself if already one.

    Accepted names: ``"spread"``, ``"single_dc"``, ``"single_dc:DC"``,
    ``"primary_affinity:REGION"``.
    """
    if isinstance(spec, PlacementPolicy):
        return spec
    name, _, arg = spec.partition(":")
    if name == "spread" and not arg:
        return Spread()
    if name == "single_dc":
        return SingleDc(arg or None)
    if name == "primary_affinity" and arg:
        return PrimaryAffinity(arg)
    raise ValueError(
        f"unknown placement {spec!r}; expected one of "
        f"{', '.join(PLACEMENT_POLICIES)} "
        "(single_dc:DC and primary_affinity:REGION take an argument)"
    )
