"""Tests for the workload driver front-end."""

import pytest

from tests.conftest import build_counter_system


def test_driver_commits_and_returns_result(counter_system):
    rt, _counter, _clients, driver = counter_system
    future = driver.call("clients", "bump", 3)
    rt.run_for(400)
    assert future.result() == ("committed", 3)


def test_driver_measures_latency(counter_system):
    rt, _counter, _clients, driver = counter_system
    driver.call("clients", "bump", 1)
    rt.run_for(400)
    stat = rt.metrics.latencies["driver_txn_latency"]
    assert stat.count == 1
    assert stat.mean > 0


def test_driver_discovers_primary_from_cold_cache(counter_system):
    rt, _counter, _clients, driver = counter_system
    assert driver.cache.get("clients") is None
    future = driver.call("clients", "bump", 1)
    rt.run_for(400)
    assert future.result()[0] == "committed"
    assert driver.cache.get("clients") is not None


def test_driver_follows_client_group_failover(counter_system):
    rt, _counter, clients, driver = counter_system
    first = driver.call("clients", "bump", 1)
    rt.run_for(400)
    assert first.result()[0] == "committed"
    clients.crash_primary()
    rt.run_for(400)
    second = driver.call("clients", "bump", 1)
    rt.run_for(3000)
    assert second.done
    assert second.result()[0] == "committed"


def test_driver_gives_up_after_retry_budget():
    rt, counter, clients, driver = build_counter_system(seed=14)
    for mid in range(3):
        clients.crash_cohort(mid)  # the whole client group is dead
    future = driver.call("clients", "bump", 1, retries=2)
    rt.run_for(10_000)
    assert future.done
    assert future.result() == ("unknown", None)


def test_driver_duplicate_outcome_suppressed(counter_system):
    """A retransmitted outcome for the same request resolves only once."""
    rt, _counter, _clients, driver = counter_system
    future = driver.call("clients", "bump", 2)
    rt.run_for(400)
    first = future.result()
    # Late duplicate delivery must be ignored without error.
    from repro.core.messages import TxnOutcomeMsg

    driver.handle_message(
        TxnOutcomeMsg(request_id=1, outcome="aborted", result=None, aid=None),
        "clients/0",
    )
    assert future.result() == first


def test_driver_crash_resolves_pending_to_unknown(counter_system):
    """A driver crash must not strand callers: every in-flight submission
    resolves to ("unknown", None) and its retry timer is cancelled."""
    rt, _counter, _clients, driver = counter_system
    futures = [driver.call("clients", "bump", 1) for _ in range(3)]
    assert not any(future.done for future in futures)
    rt.faults.crash(driver.node.node_id)
    assert all(future.result() == ("unknown", None) for future in futures)
    assert not driver._requests
    rt.run_for(2000)  # stale timers must not fire into the cleared table


def test_driver_timeout_exhaustion_cancels_timer(counter_system):
    """When the retry budget runs out, the request resolves to "unknown"
    AND its per-attempt timer is cancelled and dropped -- a resolved
    request must not pin a live heap entry on the lazy-cancel path."""
    rt, _counter, clients, driver = counter_system
    for mid in range(3):
        clients.crash_cohort(mid)
    future = driver.call("clients", "bump", 1, retries=1, timeout=50.0)
    (request,) = driver._requests.values()
    rt.run_for(5000)
    assert future.result() == ("unknown", None)
    assert request.timer is None  # cancelled and nulled, not just expired
    assert not driver._requests


def test_driver_crash_nulls_pending_timers(counter_system):
    rt, _counter, _clients, driver = counter_system
    driver.call("clients", "bump", 1, timeout=500.0)
    (request,) = driver._requests.values()
    assert request.timer is not None
    rt.faults.crash(driver.node.node_id)
    assert request.timer is None
    assert request.future.result() == ("unknown", None)


def test_driver_submit_rejects_non_positive_timeout(counter_system):
    _rt, _counter, _clients, driver = counter_system
    with pytest.raises(ValueError):
        driver.call("clients", "bump", 1, timeout=0)
    with pytest.raises(ValueError):
        driver.call("clients", "bump", 1, timeout=-5.0)


def test_driver_submit_timeout_overrides_default(counter_system):
    rt, _counter, _clients, driver = counter_system
    driver.call("clients", "bump", 1, timeout=77.0)
    (request,) = driver._requests.values()
    assert request.retry.base() == 77.0
    driver.call("clients", "bump", 1)
    default = [r for r in driver._requests.values() if r.retry.base() != 77.0]
    assert default and default[0].retry.base() == rt.config.call_timeout * 2


def test_create_group_requires_at_least_one_cohort():
    from repro import EmptyModule, Runtime

    rt = Runtime(seed=1)
    with pytest.raises(ValueError, match="n_cohorts"):
        rt.create_group("empty", EmptyModule(), n_cohorts=0)
    with pytest.raises(ValueError):
        rt.create_group("empty", EmptyModule(), nodes=[])


def test_driver_request_ids_unique(counter_system):
    rt, _counter, _clients, driver = counter_system
    f1 = driver.call("clients", "bump", 1)
    f2 = driver.call("clients", "bump", 1)
    rt.run_for(600)
    assert f1.result()[0] == "committed"
    assert f2.result()[0] == "committed"
    assert rt.ledger.commit_count == 2  # two distinct transactions ran
