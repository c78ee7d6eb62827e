"""Geo-aware driver routing: sited drivers, nearest-* reads, geo_route."""

import pytest

from repro.config import GeoConfig, ProtocolConfig, ReadConfig, TraceConfig
from repro.geo.topology import symmetric_topology
from repro.harness.common import build_kv_system

TOPO = symmetric_topology(n_dcs=3, zones_per_dc=2, slots_per_zone=2)


def geo_config():
    return ProtocolConfig(
        reads=ReadConfig(enabled=True),
        geo=GeoConfig(topology=TOPO, placement="spread"),
    )


def build(driver_site, trace=None, seed=5):
    rt, kv, _clients, driver, spec = build_kv_system(
        seed=seed, n_cohorts=5, config=geo_config(), trace=trace,
        driver_site=driver_site,
    )
    rt.run_for(400.0)  # settle: view formed, leases granted
    key = spec.key(0)
    outcome = driver.call("clients", "write", "kv", key, 42)
    rt.run_for(300.0)
    assert outcome.result().status == "committed"
    return rt, kv, driver, key


def read(rt, driver, key, **kwargs):
    future = driver.read("kv", key, **kwargs)
    rt.run_for(300.0)
    return future.result()


def test_driver_site_recorded_and_routing_armed():
    rt, _kv, driver, _key = build("dc-b/z1")
    assert driver.site == "dc-b/z1"
    assert rt.location.site_of(driver.address) == "dc-b/z1"


def test_siteless_driver_has_no_geo_routing():
    rt, _kv, driver, key = build(None)
    assert driver.site is None
    # "nearest" is still a valid preference; it degrades to the primary.
    result = read(rt, driver, key)
    assert result.ok and result.value == 42


def test_backup_read_served_from_local_datacenter():
    rt, kv, driver, key = build("dc-b/z1")
    result = read(rt, driver, key, prefer="backup", max_staleness=400.0)
    assert result.ok and result.value == 42
    assert result.mode == "backup"


def test_nearest_read_from_remote_site_uses_local_backup():
    rt, kv, driver, key = build("dc-b/z1")
    # With spread placement the primary (mid 0) is in dc-a; the nearest
    # member from dc-b is a local backup.
    assert kv.active_primary().mymid == 0
    result = read(rt, driver, key, prefer="nearest")
    assert result.ok and result.value == 42
    assert result.mode == "backup"


def test_nearest_read_from_primary_site_uses_lease():
    rt, _kv, driver, key = build("dc-a/z1")
    # The driver shares the primary's site: nearest member IS the primary
    # (ties go to the primary), so the read serves from its lease.
    result = read(rt, driver, key, prefer="nearest")
    assert result.ok and result.value == 42
    assert result.mode == "lease"


def test_invalid_prefer_rejected():
    rt, _kv, driver, key = build("dc-a/z1")
    with pytest.raises(ValueError):
        driver.read("kv", key, prefer="teleport")


def test_geo_route_trace_event_emitted():
    rt, _kv, driver, key = build("dc-b/z1", trace=TraceConfig())
    result = read(rt, driver, key, prefer="nearest")
    assert result.ok
    routes = [e for e in rt.tracer.events() if e.kind == "geo_route"]
    assert routes, "no geo_route event emitted"
    data = routes[-1].data
    assert data["site"] == "dc-b/z1"
    assert data["group"] == "kv"
    assert data["role"] == "backup"
    assert data["target_site"].startswith("dc-b/")
    assert data["prefer"] == "nearest"


def test_flat_network_emits_no_geo_route():
    rt, _kv, driver, key = _flat_build()
    result = read(rt, driver, key)
    assert result.ok
    routes = [e for e in rt.tracer.events() if e.kind == "geo_route"]
    assert routes == []


def _flat_build(seed=5):
    rt, kv, _clients, driver, spec = build_kv_system(
        seed=seed, n_cohorts=5,
        config=ProtocolConfig(reads=ReadConfig(enabled=True)),
        trace=TraceConfig(),
    )
    rt.run_for(400.0)
    key = spec.key(0)
    outcome = driver.call("clients", "write", "kv", key, 42)
    rt.run_for(300.0)
    assert outcome.result().status == "committed"
    return rt, kv, driver, key
