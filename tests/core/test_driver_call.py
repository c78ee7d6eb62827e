"""Driver.call / CallResult: the unified submission surface.

``Driver.call`` is the one routing entry point -- groupid targets and
sharded façade targets alike -- and resolves to a typed :class:`CallResult`.
"""

import pytest

from repro import CallFailed, CallResult
from repro.harness.common import build_kv_system
from tests.shard.util import build_sharded, keys_owned_by


# -- CallResult -------------------------------------------------------------


def test_call_result_status_properties():
    committed = CallResult("committed", 42)
    aborted = CallResult("aborted")
    unknown = CallResult("unknown")
    assert committed.committed and not committed.aborted and not committed.unknown
    assert aborted.aborted and not aborted.committed
    assert unknown.unknown and not unknown.committed
    assert committed.value == 42
    assert aborted.value is None


def test_call_result_unpacks_like_the_legacy_tuple():
    outcome, value = CallResult("committed", 7)
    assert (outcome, value) == ("committed", 7)


def test_call_result_unwrap():
    assert CallResult("committed", "ok").unwrap() == "ok"
    with pytest.raises(CallFailed) as excinfo:
        CallResult("aborted").unwrap()
    assert excinfo.value.result.status == "aborted"
    with pytest.raises(CallFailed):
        CallResult("unknown").unwrap()


# -- Driver.call routing ----------------------------------------------------


def _resolve(rt, future, time=2_000.0):
    rt.run_for(time)
    assert future.done
    return future.result()


def test_call_plain_groupid():
    rt, _kv, _clients, driver, spec = build_kv_system(seed=3, n_cohorts=3)
    result = _resolve(rt, driver.call("clients", "write", "kv", spec.key(0), 5))
    assert isinstance(result, CallResult)
    assert result.committed
    assert _resolve(rt, driver.call("clients", "read", "kv", spec.key(0))).unwrap() == 5


def test_call_routes_facade_instance_and_registered_name():
    rt, sharded, driver = build_sharded(seed=21, n_shards=2)
    (key,) = keys_owned_by(sharded, 0)
    assert _resolve(rt, driver.call(sharded, "write", key, 11)).committed
    # The façade's registered name is equivalent to the instance.
    assert _resolve(rt, driver.call("kv", "read", key)).unwrap() == 11


def test_call_rejects_nonpositive_timeout():
    rt, _kv, _clients, driver, _spec = build_kv_system(seed=3, n_cohorts=3)
    with pytest.raises(ValueError):
        driver.call("clients", "write", "kv", "k0", 1, timeout=0)


@pytest.mark.parametrize("timeout", [-1.0, 0])
def test_read_rejects_nonpositive_timeout(timeout):
    """A negative timeout sent its request and then raised from the kernel,
    leaving the request registered; zero re-sent at one instant until the
    retries ran out.  Both are refused before anything is sent."""
    rt, kv, _clients, driver, spec = build_kv_system(seed=3, n_cohorts=3)
    sent = rt.network.messages_sent_total
    with pytest.raises(ValueError, match="timeout"):
        driver.read("kv", spec.key(0), timeout=timeout)
    assert driver._reads == {}
    assert rt.network.messages_sent_total == sent
