"""Unit tests for the lease bookkeeping (repro.reads.lease): validity is
a configuration-majority rule over unexpired grants, promises survive
pruning exactly while unexpired, recovery leaves a conservative residue,
and the view-formation bound covers every reported promise to anyone but
the chosen primary."""

from repro.config import LEASE_DURATION
from repro.core.quorum import Quorums
from repro.reads.lease import CRASH_GRANTEE, ReadState, formation_lease_bound


class _View:
    def __init__(self, primary, backups):
        self.primary = primary
        self.backups = tuple(backups)


class _Clock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def make_state(config_size=3, now=0.0):
    clock = _Clock(now)
    return ReadState(Quorums(config_size), clock), clock


def test_lease_needs_majority_of_unexpired_grants():
    state, clock = make_state(config_size=3)
    view = _View(0, [1, 2])
    assert not state.lease_valid(view)
    state.record_grant(1, 30.0)
    # self + one grantor = 2 = majority(3)
    assert state.lease_valid(view)
    clock.now = 30.0  # grants are valid strictly while expiry > now
    assert not state.lease_valid(view)


def test_lease_ignores_grants_from_non_members():
    state, clock = make_state(config_size=3)
    state.record_grant(7, 100.0)  # not a backup of this view
    assert not state.lease_valid(_View(0, [1, 2]))
    assert state.lease_valid(_View(0, [7, 2]))


def test_lease_until_is_kth_largest_expiry():
    state, clock = make_state(config_size=5)
    view = _View(0, [1, 2, 3, 4])
    # majority(5) = 3, so self + 2 grantors; validity lapses when the
    # 2nd-largest unexpired grant does
    state.record_grant(1, 40.0)
    assert state.lease_until(view) == 0.0  # one grantor is not enough
    state.record_grant(2, 25.0)
    state.record_grant(3, 10.0)
    assert state.lease_valid(view)
    assert state.lease_until(view) == 25.0
    clock.now = 26.0
    assert not state.lease_valid(view)
    assert state.lease_until(view) == 0.0


def test_singleton_group_holds_its_lease_forever():
    state, _clock = make_state(config_size=1)
    view = _View(0, [])
    assert state.lease_valid(view)
    assert state.lease_until(view) == float("inf")


def test_record_grant_keeps_the_newest_expiry():
    state, _clock = make_state()
    state.record_grant(1, 30.0)
    state.record_grant(1, 20.0)  # stale duplicate must not shorten
    assert state.grants[1] == 30.0


def test_promises_prune_lazily_and_keep_max():
    state, clock = make_state()
    assert LEASE_DURATION == 30.0  # the expiries below are 30 units out
    assert state.make_promise(0) == 30.0
    clock.now = 10.0
    assert state.make_promise(0) == 40.0
    state.make_promise(2)
    clock.now = 41.0  # promise to 0 expired, promise to 2 (until 40) too
    assert state.outstanding_promises() == ()
    clock.now = 20.0
    state.make_promise(0)
    assert state.outstanding_promises() == ((0, 50.0),)


def test_promise_residue_covers_lost_volatile_state():
    state, clock = make_state()
    state.make_promise(0)
    clock.now = 5.0
    state.promise_residue()
    assert state.outstanding_promises() == ((CRASH_GRANTEE, 35.0),)


def test_reset_grants_clears_validity():
    state, _clock = make_state(config_size=3)
    view = _View(0, [1, 2])
    state.record_grant(1, 30.0)
    state.was_valid = True
    state.reset_grants()
    assert not state.lease_valid(view)
    assert not state.was_valid


def test_staleness_tracks_mark_fresh():
    state, clock = make_state(now=100.0)
    assert state.staleness() == 0.0
    clock.now = 112.0
    assert state.staleness() == 12.0
    state.mark_fresh()
    assert state.staleness() == 0.0


class _Acceptance:
    def __init__(self, promises):
        self.lease_promises = tuple(promises)


def test_formation_bound_is_max_over_foreign_promises():
    responses = [
        _Acceptance([(0, 50.0), (3, 80.0)]),
        _Acceptance([(0, 65.0)]),
        object(),  # an acceptance without lease_promises contributes 0
    ]
    # promises to the chosen primary itself are harmless
    assert formation_lease_bound(responses, chosen_primary=0) == 80.0
    assert formation_lease_bound(responses, chosen_primary=3) == 65.0
    assert formation_lease_bound([], chosen_primary=0) == 0.0


def test_formation_bound_counts_crash_residue_against_any_primary():
    responses = [_Acceptance([(CRASH_GRANTEE, 90.0)])]
    for primary in (0, 1, 2):
        assert formation_lease_bound(responses, primary) == 90.0
