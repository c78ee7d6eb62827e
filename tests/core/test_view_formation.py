"""Tests for the view formation rule and primary selection (section 4).

These call ``repro.core.view_change.form_view`` directly with synthetic
acceptance sets, including the paper's three-cohort A/B/C example.
"""

from itertools import combinations

import pytest

from repro.core.messages import AcceptMsg
from repro.core.quorum import Quorums, majority, sub_majority
from repro.core.view import View
from repro.core.view_change import form_view
from repro.core.viewstamp import ViewId, Viewstamp

V1 = ViewId(1, 0)
V2 = ViewId(2, 1)
V3 = ViewId(3, 2)


def normal(mid, viewid, ts, was_primary=False, view=None):
    return AcceptMsg(
        viewid=V3,
        mid=mid,
        crashed=False,
        viewstamp=Viewstamp(viewid, ts),
        was_primary=was_primary,
        crash_viewid=None,
        view=view,
    )


def crashed(mid, viewid):
    return AcceptMsg(
        viewid=V3,
        mid=mid,
        crashed=True,
        viewstamp=None,
        was_primary=False,
        crash_viewid=viewid,
    )


def witness_vote(mid):
    """A witness's evidence-free acceptance (``Witnesses._vote_without_evidence``)."""
    return AcceptMsg(
        viewid=V3,
        mid=mid,
        crashed=False,
        viewstamp=None,
        was_primary=False,
        crash_viewid=None,
        witness=True,
    )


def form(responses, config_size=3, extended=False, witnesses=0):
    # The group's Quorums, as ModuleGroup builds it.
    return form_view(
        {r.mid: r for r in responses}, Quorums(config_size, witnesses), extended
    )


def test_majority_helpers():
    assert majority(1) == 1
    assert majority(3) == 2
    assert majority(5) == 3
    assert sub_majority(3) == 1
    assert sub_majority(5) == 2


def test_no_majority_accepted_fails():
    assert form([normal(0, V1, 5)]) is None


def test_all_normal_majority_forms():
    view = form([normal(0, V1, 5), normal(1, V1, 3)])
    assert view is not None
    assert view.primary == 0
    assert view.backups == (1,)


def test_condition1_majority_normal_ignores_crashed():
    view = form([normal(0, V1, 5), normal(1, V1, 3), crashed(2, V1)])
    assert view is not None
    assert view.primary == 0
    assert set(view.backups) == {1, 2}  # crashed acceptor joins as backup


def test_condition2_crashed_from_old_view_ok():
    """crash_viewid < normal_viewid: the crashed cohort lost nothing new."""
    view = form([normal(0, V2, 4), crashed(1, V1)])
    assert view is not None
    assert view.primary == 0


def test_condition3_same_view_needs_old_primary():
    """The paper's A/B/C scenario.  A (mid 0) crashed and recovered while in
    view v1; B is partitioned away; C (mid 2) accepted normally with v1
    state.  C was a backup, so condition 3 fails: A may have forced events
    (to B) that C never saw."""
    result = form([crashed(0, V1), normal(2, V1, 2, was_primary=False)])
    assert result is None


def test_condition3_satisfied_when_primary_accepts():
    """Same shape, but the normal acceptor was v1's primary -- it knows at
    least as much as any backup, so the view can form."""
    view = form([crashed(0, V1), normal(2, V1, 2, was_primary=True)])
    assert view is not None
    assert view.primary == 2


def test_no_normal_acceptances_fails():
    assert form([crashed(0, V1), crashed(1, V1)]) is None


def test_crashed_newer_than_all_normals_fails():
    """A crashed cohort was in a newer view than any normal acceptor: its
    lost state may contain forced events nobody present knows."""
    result = form([normal(0, V1, 9), normal(1, V1, 9), crashed(2, V2)])
    # Majority normal (condition 1) still holds here with 2 of 3 normals.
    assert result is not None
    # ...but with a 5-group and only 2 normals it must fail:
    result5 = form(
        [normal(0, V1, 9), normal(1, V1, 9), crashed(2, V2)], config_size=5
    )
    assert result5 is None


def test_primary_is_max_viewstamp_holder():
    view = form([normal(0, V1, 3), normal(1, V1, 7), normal(2, V1, 5)])
    assert view.primary == 1


def test_viewid_dominates_ts_in_primary_choice():
    view = form([normal(0, V1, 100), normal(1, V2, 1)])
    assert view.primary == 1


def test_old_primary_preferred():
    """Minimal disruption: the old primary wins even on a viewstamp tie."""
    view = form(
        [normal(0, V1, 7, was_primary=False), normal(1, V1, 7, was_primary=True)]
    )
    assert view.primary == 1


def test_tie_breaks_to_lowest_mid():
    view = form([normal(2, V1, 7), normal(1, V1, 7)])
    assert view.primary == 1


def test_all_acceptors_become_members():
    view = form(
        [normal(0, V1, 1), normal(1, V1, 2), crashed(2, V1), normal(3, V1, 9)],
        config_size=5,
    )
    assert view is not None
    assert view.primary == 3
    assert set(view.backups) == {0, 1, 2}
    assert len(view.members) >= Quorums(5).formation


def test_a_view_that_cannot_force_does_not_form():
    """n = 5 with witnesses {3, 4}: one normal acceptor and both witnesses
    are a majority and meet condition 1, but the view they would make has no
    storage backup, so every force in it would stall to ``force_timeout``."""
    quorums = Quorums(5, witnesses=2)
    assert quorums.witnesses == {3, 4} and quorums.force == 2
    assert form([normal(0, V1, 5), witness_vote(3), witness_vote(4)], 5, witnesses=2) is None
    # One storage backup short of the force quorum is no better...
    assert (
        form([normal(0, V1, 5), normal(1, V1, 5), witness_vote(3)], 5, witnesses=2)
        is None
    )
    # ...and the force quorum itself forms.
    view = form(
        [normal(0, V1, 5), normal(1, V1, 5), normal(2, V1, 4), witness_vote(3)],
        5,
        witnesses=2,
    )
    assert view == View(primary=0, backups=(1, 2, 3))


@pytest.mark.parametrize("n", range(1, 10))
def test_the_crash_guard_strands_exactly_the_survivors_that_form_no_view(n):
    """``Quorums.strands`` (protected crash churn's guard) against
    ``form_view`` with every survivor set accepting: they agree."""
    for w in range(n - majority(n) + 1):
        quorums = Quorums(n, w)
        for size in range(n + 1):
            for survivors in combinations(range(n), size):
                votes = [
                    witness_vote(mid) if mid in quorums.witnesses else normal(mid, V1, 5)
                    for mid in survivors
                ]
                formed = form(votes, n, witnesses=w)
                assert quorums.strands(survivors) == (formed is None), (n, w, survivors)


def test_view_rejects_primary_in_backups():
    with pytest.raises(ValueError):
        View(primary=0, backups=(0, 1))


def test_view_rejects_duplicate_backups():
    with pytest.raises(ValueError):
        View(primary=0, backups=(1, 1))


def test_view_membership():
    view = View(primary=0, backups=(1, 2))
    assert 0 in view and 2 in view and 3 not in view
    assert view.members == frozenset({0, 1, 2})


# -- extended formation rule (beyond the paper; DESIGN.md D11) -----------------


def test_extended_rule_sole_backup_suffices():
    """View V had a single backup (so every force reached it): under the
    extended rule that backup can seed the new view without V's primary.
    The paper's rule (condition 3) stalls on exactly this case."""
    old_view = View(primary=1, backups=(2,))
    responses = [
        crashed(0, V2),
        normal(2, V2, 5, was_primary=False, view=old_view),
    ]
    assert form(responses) is None  # paper rule: catastrophe
    view = form(responses, extended=True)
    assert view is not None
    assert view.primary == 2


def test_extended_rule_insufficient_backups_still_stalls():
    """With two backups and sub-majority 1, one backup cannot prove
    coverage (forces may have gone to the other backup only)."""
    old_view = View(primary=0, backups=(1, 2))
    responses = [
        crashed(0, V1),
        crashed(1, V1),
        normal(2, V1, 5, view=old_view),
    ]
    assert form(responses, extended=True) is None


def test_extended_rule_both_backups_cover():
    """Both backups of a two-backup view together intersect every possible
    force quorum (b - s + 1 = 2)."""
    old_view = View(primary=0, backups=(1, 2))
    responses = [
        crashed(0, V1),
        normal(1, V1, 3, view=old_view),
        normal(2, V1, 5, view=old_view),
    ]
    # Majority-normal (condition 1) also fires at n=3; force the extended
    # path with a 5-cohort configuration where 2 normals are not a majority.
    result = form(responses, config_size=5, extended=True)
    assert result is not None
    assert result.primary == 2  # max viewstamp holder
    assert form(responses, config_size=5) is None  # paper rule stalls


def test_extended_rule_needs_membership_info():
    responses = [
        crashed(0, V2),
        normal(2, V2, 5, view=None),  # no cur_view in the acceptance
    ]
    assert form(responses, extended=True) is None


def test_extended_rule_end_to_end_recovery():
    """The E6-style scenario: the primary of a two-member view crashes
    while the third cohort is already down; with the extended rule the
    surviving (sole) backup re-forms the group once a majority is back."""
    from repro.config import ProtocolConfig as PC
    from tests.conftest import build_counter_system

    for extended in (False, True):
        rt, counter, _clients, driver = build_counter_system(
            seed=31, config=PC(extended_formation_rule=extended)
        )
        future = driver.call("clients", "bump", 4)
        rt.run_for(300)
        assert future.result()[0] == "committed"
        rt.quiesce()
        counter.crash_cohort(0)          # v2 forms: primary 1, sole backup 2
        rt.run_for(800)
        assert counter.active_primary() is not None
        counter.crash_cohort(1)          # v2's primary gone; 2 alone
        rt.run_for(400)
        # Both crashed cohorts return with volatile loss.  Acceptances:
        # 0 crashed@v1, 1 crashed@v2, 2 normal@v2.  crash_viewid == v2 ==
        # normal_viewid and v2's primary (1) lost its state, so the paper's
        # conditions 1-3 all fail.  But cohort 2 was v2's *only* backup, so
        # every force in v2 reached it: the extended rule can prove that.
        counter.recover_cohort(0)
        counter.recover_cohort(1)
        rt.run_for(4000)
        primary = counter.active_primary()
        if extended:
            assert primary is not None and primary.mymid == 2
            assert primary.store.get("count").base == 4
        else:
            assert primary is None  # the paper's rule stalls here
