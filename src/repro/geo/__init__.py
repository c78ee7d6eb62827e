"""repro.geo: multi-datacenter topologies, placement, and geo routing.

The paper assumes a flat network.  This package models *where* cohorts
and clients live (datacenters -> zones -> node slots), derives per-pair
structural link models from that shape, places replica groups across it
(:mod:`repro.geo.placement`), and lets drivers route reads to the
nearest serving replica.  Everything is gated behind
``ProtocolConfig(geo=GeoConfig(topology=...))`` -- ``geo is None`` is
byte-identical to the flat network.  See docs/GEO.md.

CLI::

    python -m repro.geo check-docs docs/GEO.md   # docs drift gate
    python -m repro.gate geo                     # E20 determinism gate
"""

from repro.config import GeoConfig
from repro.geo.placement import (
    PLACEMENT_POLICIES,
    PlacementPolicy,
    PrimaryAffinity,
    SingleDc,
    Spread,
    primary_affinity,
    resolve_placement,
    single_dc,
    spread,
)
from repro.geo.topology import (
    CROSS_DC,
    INTRA_DC,
    INTRA_ZONE,
    Datacenter,
    Topology,
    Zone,
    symmetric_topology,
)

__all__ = [
    "CROSS_DC",
    "Datacenter",
    "GeoConfig",
    "INTRA_DC",
    "INTRA_ZONE",
    "PLACEMENT_POLICIES",
    "PlacementPolicy",
    "PrimaryAffinity",
    "SingleDc",
    "Spread",
    "Topology",
    "Zone",
    "primary_affinity",
    "resolve_placement",
    "single_dc",
    "spread",
    "symmetric_topology",
]
