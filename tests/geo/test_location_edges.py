"""LocationService edges: tolerant batch lookups, site registration
permanence, nearest-replica routing under stale views (geo routing)."""

import pytest

from repro.core import View
from repro.core.cache import ClientCache
from repro.core.viewstamp import ViewId
from repro.location import GroupNotFound, LocationService
from repro.geo.topology import symmetric_topology

TOPO = symmetric_topology(n_dcs=2, zones_per_dc=1, slots_per_zone=2)


def service():
    svc = LocationService()
    svc.register("kv", ((0, "kv/0"), (1, "kv/1"), (2, "kv/2")))
    return svc


# -- primary address of an unknown group -------------------------------------


def test_primary_address_for_unknown_group():
    cache = ClientCache(service())
    assert not cache.learn("nope", ViewId(1, 0), View(primary=0, backups=(1,)))
    assert cache.primary("nope") is None


# -- lookup_many strictness ---------------------------------------------------


def test_lookup_many_tolerant_omits_unknown_groups():
    svc = service()
    svc.register("bank", ((0, "bank/0"),))
    found = svc.lookup_many(["kv", "ghost", "bank"], strict=False)
    assert set(found) == {"kv", "bank"}
    assert found["bank"] == ((0, "bank/0"),)


def test_lookup_many_strict_raises_on_first_missing():
    svc = service()
    with pytest.raises(GroupNotFound) as exc:
        svc.lookup_many(["kv", "ghost", "also-missing"], strict=True)
    assert exc.value.groupid == "ghost"


# -- site registration --------------------------------------------------------


def test_duplicate_site_registration_rejected():
    svc = service()
    svc.attach_topology(TOPO)
    svc.register_site("kv/0", "dc-a/z1")
    with pytest.raises(ValueError, match="permanent"):
        svc.register_site("kv/0", "dc-b/z1")
    assert svc.site_of("kv/0") == "dc-a/z1"


def test_register_site_validates_against_topology():
    svc = service()
    svc.attach_topology(TOPO)
    with pytest.raises(ValueError, match="unknown site"):
        svc.register_site("kv/0", "mars/z1")


def test_attach_topology_rejects_replacement():
    svc = service()
    svc.attach_topology(TOPO)
    svc.attach_topology(TOPO)  # same object is idempotent
    with pytest.raises(ValueError):
        svc.attach_topology(symmetric_topology(n_dcs=3))


# -- nearest-* routing edges --------------------------------------------------


def geo_service():
    svc = service()
    svc.attach_topology(TOPO)
    svc.register_site("kv/0", "dc-a/z1")
    svc.register_site("kv/1", "dc-b/z1")
    svc.register_site("kv/2", "dc-b/z1")
    return svc


def test_nearest_backup_prefers_local_replica():
    svc = geo_service()
    view = View(primary=0, backups=(1, 2))
    assert svc.nearest_backup("kv", view, "dc-b/z1") == "kv/1"  # mid tiebreak
    assert svc.nearest_backup("kv", view, "dc-a/z1") is not None


def test_nearest_backup_degrades_to_none():
    svc = geo_service()
    assert svc.nearest_backup("ghost", View(0, (1,)), "dc-a/z1") is None
    assert svc.nearest_backup("kv", None, "dc-a/z1") is None
    # A view whose backups are all unregistered mids: nothing to serve.
    assert svc.nearest_backup("kv", View(primary=0, backups=(8, 9)),
                              "dc-a/z1") is None


def test_nearest_member_primary_wins_ties():
    svc = geo_service()
    view = View(primary=1, backups=(0, 2))
    # From dc-b both kv/1 (primary) and kv/2 are equidistant: primary wins.
    assert svc.nearest_member("kv", view, "dc-b/z1") == "kv/1"
    # From dc-a the lone local replica beats the remote primary.
    assert svc.nearest_member("kv", view, "dc-a/z1") == "kv/0"


def test_nearest_member_without_site_degrades_to_primary():
    svc = geo_service()
    view = View(primary=2, backups=(0, 1))
    assert svc.nearest_member("kv", view, None) == "kv/2"
