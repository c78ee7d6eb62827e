"""A prepared participant that learns "committed" from a query commits what
it prepared (section 3.4, DESIGN.md D17).

A coordinator cohort answers ``QueryReplyMsg(aid, "committed", ())`` once
``Done`` has removed its committing record: the outcome table keeps the
outcome, not the pset.  A participant that took that empty pset for the
transaction's pset dropped every completed call as an orphan and committed
nothing, while the other participant installed its write.  A prepared
participant has the pset its prepare carried, and commits with that.
"""

from repro.core import messages as m

from tests.core.test_read_only_commit import _tap
from tests.core.test_sole_participant_commit import _two_groups


def test_a_prepared_participant_commits_its_own_pset_on_an_empty_reply():
    rt, group_a, group_b, _clients, driver, spec = _two_groups()
    key = spec.key(1)
    lost = (m.CommitMsg, m.QueryMsg)
    _tap(rt, lambda _source, payload: "drop" if isinstance(payload, lost) else None)
    driver.call("clients", "write_a_and_b", key, 9, retries=0)
    rt.run_for(40.0)
    participant = group_b.active_primary()
    (aid,) = participant.server_role.prepared
    assert participant.server_role.prepared[aid].pset_pairs  # names B's call
    participant.server_role.on_query_reply(m.QueryReplyMsg(aid, "committed", ()))
    rt.run_for(40.0)
    assert aid not in participant.server_role.prepared
    assert group_b.active_primary().store.get(key).base == 9
