"""The stale_lease monitor trips when a leased read is served under a
view older than one whose primary has already committed a write, and
stays quiet on every legitimate interleaving.  The monitor is handed
``ViewId`` objects, as the instrumented sites record them."""

import pytest

from repro.config import TraceConfig
from repro.core.viewstamp import ViewId
from repro.sim.kernel import Simulator
from repro.trace import InvariantViolation, Tracer, build_monitors


def make_tracer():
    tracer = Tracer(Simulator(seed=1), TraceConfig())
    tracer.install_monitors(build_monitors(("stale_lease",)))
    return tracer


def commit(tracer, viewid, ts=5, group="kv", mid=0):
    tracer.emit("record_added", node=f"n{mid}", group=group, mid=mid,
                viewid=viewid, ts=ts, rtype="Committed", role="primary")


def lease_read(tracer, viewid, group="kv", mid=0):
    tracer.emit("lease_read", node=f"n{mid}", group=group, mid=mid,
                viewid=viewid, uid="key0")


def test_trips_on_read_under_superseded_view():
    tracer = make_tracer()
    lease_read(tracer, ViewId(1, 0))
    commit(tracer, ViewId(2, 1))
    with pytest.raises(InvariantViolation) as caught:
        lease_read(tracer, ViewId(1, 0))
    assert caught.value.monitor == "stale_lease"
    assert "stale lease" in str(caught.value)


def test_viewid_ordering_is_numeric_not_lexicographic():
    tracer = make_tracer()
    commit(tracer, ViewId(10, 2))
    with pytest.raises(InvariantViolation):
        lease_read(tracer, ViewId(9, 1))  # its label "v9.1" sorts after "v10.2"


def test_quiet_on_reads_in_the_committing_view_or_newer():
    tracer = make_tracer()
    lease_read(tracer, ViewId(1, 0))  # before any commit: fine
    commit(tracer, ViewId(2, 1))
    lease_read(tracer, ViewId(2, 1))
    lease_read(tracer, ViewId(3, 0))
    commit(tracer, ViewId(1, 0), ts=9)  # a late, older commit must not regress
    lease_read(tracer, ViewId(2, 1))


def test_quiet_on_backup_and_other_group_commits():
    tracer = make_tracer()
    # backup record_added and other groups' commits advance nothing here
    tracer.emit("record_added", node="n1", group="kv", mid=1,
                viewid=ViewId(5, 0), ts=3, rtype="Committed", role="backup")
    commit(tracer, ViewId(5, 0), group="other")
    lease_read(tracer, ViewId(1, 0))
