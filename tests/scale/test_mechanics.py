"""Unit tests for the repro.scale building blocks.

AckTree topology, witness sizing/bounds (the group's Quorums), and the
all-off => None normalization that underwrites the zero-cost-when-disabled
claim.
"""

import pytest

from repro.config import ProtocolConfig, ScaleConfig
from repro.core.quorum import Quorums
from repro.scale import AckTree


# -- AckTree ----------------------------------------------------------------


def test_ack_tree_roots_report_to_primary():
    tree = AckTree(primary=0, backups=range(1, 14), fanout=4)
    # The first `fanout` backups in sorted order are the tree roots.
    for mid in (1, 2, 3, 4):
        assert tree.parent(mid) == 0


def test_ack_tree_interior_parent_and_children_agree():
    tree = AckTree(primary=0, backups=range(1, 30), fanout=4)
    for mid in tree.order:
        for child in tree.children(mid):
            assert tree.parent(child) == mid


def test_ack_tree_every_backup_reaches_the_primary():
    tree = AckTree(primary=0, backups=range(1, 100), fanout=3)
    for mid in tree.order:
        hops = 0
        node = mid
        while node != 0:
            node = tree.parent(node)
            hops += 1
            assert hops <= len(tree.order), "cycle in ack tree"
    # Fan-in bound: nobody aggregates more than `fanout` children.
    for mid in tree.order:
        assert len(tree.children(mid)) <= 3


def test_ack_tree_primary_fan_in_is_fanout_not_n():
    tree = AckTree(primary=7, backups=[b for b in range(50) if b != 7], fanout=4)
    roots = [mid for mid in tree.order if tree.parent(mid) == 7]
    assert len(roots) == 4


def test_ack_tree_is_order_deterministic():
    a = AckTree(primary=0, backups=[5, 3, 9, 1, 7], fanout=2)
    b = AckTree(primary=0, backups=[9, 7, 5, 3, 1], fanout=2)
    assert a.order == b.order == (1, 3, 5, 7, 9)
    assert all(a.parent(m) == b.parent(m) for m in a.order)


def test_ack_tree_unknown_mid_defaults_to_primary():
    tree = AckTree(primary=0, backups=[1, 2, 3], fanout=2)
    assert tree.parent(99) == 0
    assert tree.children(99) == ()


def test_ack_tree_fanout_floor_is_one():
    tree = AckTree(primary=0, backups=[1, 2, 3], fanout=0)
    assert tree.fanout == 1
    assert tree.parent(1) == 0
    assert tree.parent(2) == 1  # a chain


# -- witness sizing ---------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 7, 9, 25, 100])
def test_max_witnesses_leaves_a_storage_force_quorum(n):
    w = n - Quorums(n).formation  # the most witnesses an n-group may have
    quorums = Quorums(n, w)  # the bound itself is valid
    assert len(quorums.storage(range(n))) >= quorums.formation
    assert quorums.force + 1 <= len(quorums.storage(range(n)))
    with pytest.raises(ValueError):
        Quorums(n, w + 1)


def test_witness_mids_are_the_highest_and_never_the_seed_primary():
    assert Quorums(9, 2).witnesses == frozenset({7, 8})
    assert 0 not in Quorums(5, 5 - Quorums(5).formation).witnesses
    assert Quorums(9).witnesses == Quorums(9, 0).witnesses == frozenset()


# -- all-off is absent -------------------------------------------------------


def test_all_off_scale_config_builds_no_extension():
    """An all-off ScaleConfig must be as absent as ``scale=None``, or the
    byte-identical-schedule claim would hinge on every hot path checking
    each mechanism individually."""
    from repro import EmptyModule, Runtime

    rt = Runtime(seed=1, config=ProtocolConfig(scale=ScaleConfig()))
    group = rt.create_group("g", EmptyModule(), n_cohorts=3)
    for cohort in group.cohorts.values():
        assert cohort.extensions == ()
    rt_armed = Runtime(
        seed=1, config=ProtocolConfig(scale=ScaleConfig(gossip=True))
    )
    armed = rt_armed.create_group("g", EmptyModule(), n_cohorts=3)
    for cohort in armed.cohorts.values():
        assert [type(e).__name__ for e in cohort.extensions] == ["Gossip"]
